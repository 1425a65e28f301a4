#include "stats/clustering.h"

#include <algorithm>
#include <limits>
#include <map>

#include "util/logging.h"

namespace foresight {

namespace {

struct GroupStats {
  double sum_x = 0.0;
  double sum_y = 0.0;
  double count = 0.0;
};

}  // namespace

double SegmentationScore(const std::vector<Point2>& points,
                         const std::vector<int32_t>& labels) {
  FORESIGHT_CHECK(points.size() == labels.size());
  // std::map: the ss_between reduction below is order-sensitive in
  // floating point; ordered iteration keeps scores bit-identical
  // across platforms and hash implementations.
  std::map<int32_t, GroupStats> groups;
  double grand_x = 0.0, grand_y = 0.0, n = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    if (labels[i] < 0) continue;
    GroupStats& g = groups[labels[i]];
    g.sum_x += points[i].x;
    g.sum_y += points[i].y;
    g.count += 1.0;
    grand_x += points[i].x;
    grand_y += points[i].y;
    n += 1.0;
  }
  if (n < 2.0 || groups.size() < 2) return 0.0;
  grand_x /= n;
  grand_y /= n;
  double ss_between = 0.0;
  for (const auto& [label, g] : groups) {
    double dx = g.sum_x / g.count - grand_x;
    double dy = g.sum_y / g.count - grand_y;
    ss_between += g.count * (dx * dx + dy * dy);
  }
  double ss_total = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    if (labels[i] < 0) continue;
    double dx = points[i].x - grand_x;
    double dy = points[i].y - grand_y;
    ss_total += dx * dx + dy * dy;
  }
  if (ss_total <= 0.0) return 0.0;
  return std::clamp(ss_between / ss_total, 0.0, 1.0);
}

double CalinskiHarabasz(const std::vector<Point2>& points,
                        const std::vector<int32_t>& labels) {
  FORESIGHT_CHECK(points.size() == labels.size());
  // std::map: the ss_between reduction below is order-sensitive in
  // floating point; ordered iteration keeps scores bit-identical
  // across platforms and hash implementations.
  std::map<int32_t, GroupStats> groups;
  double grand_x = 0.0, grand_y = 0.0, n = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    if (labels[i] < 0) continue;
    GroupStats& g = groups[labels[i]];
    g.sum_x += points[i].x;
    g.sum_y += points[i].y;
    g.count += 1.0;
    grand_x += points[i].x;
    grand_y += points[i].y;
    n += 1.0;
  }
  size_t k = groups.size();
  if (n < 3.0 || k < 2 || n <= static_cast<double>(k)) return 0.0;
  grand_x /= n;
  grand_y /= n;
  double ss_between = 0.0;
  for (const auto& [label, g] : groups) {
    double dx = g.sum_x / g.count - grand_x;
    double dy = g.sum_y / g.count - grand_y;
    ss_between += g.count * (dx * dx + dy * dy);
  }
  double ss_within = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    if (labels[i] < 0) continue;
    const GroupStats& g = groups[labels[i]];
    double dx = points[i].x - g.sum_x / g.count;
    double dy = points[i].y - g.sum_y / g.count;
    ss_within += dx * dx + dy * dy;
  }
  if (ss_within <= 0.0) return std::numeric_limits<double>::infinity();
  double kd = static_cast<double>(k);
  return (ss_between / (kd - 1.0)) / (ss_within / (n - kd));
}

}  // namespace foresight
