#include "stats/dependence.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "util/logging.h"

namespace foresight {

EquiWidthBinning BinEquiWidth(const std::vector<double>& values,
                              size_t bins) {
  FORESIGHT_CHECK(bins >= 1 && bins <= 256);
  EquiWidthBinning binning;
  binning.ids.assign(values.size(), 0);
  binning.counts.assign(bins, 0.0);
  if (values.empty()) return binning;
  auto [min_it, max_it] = std::minmax_element(values.begin(), values.end());
  double lo = *min_it, hi = *max_it;
  if (lo != hi) {
    double width = (hi - lo) / static_cast<double>(bins);
    for (size_t i = 0; i < values.size(); ++i) {
      size_t bin = static_cast<size_t>((values[i] - lo) / width);
      binning.ids[i] = static_cast<uint8_t>(std::min(bin, bins - 1));
    }
  }
  for (uint8_t id : binning.ids) binning.counts[id] += 1.0;
  double total = static_cast<double>(values.size());
  for (double c : binning.counts) {
    if (c > 0.0) {
      double p = c / total;
      binning.entropy -= p * std::log(p);
    }
  }
  return binning;
}

double MutualInformationFromBins(const EquiWidthBinning& x,
                                 const EquiWidthBinning& y) {
  FORESIGHT_CHECK(x.ids.size() == y.ids.size() &&
                  x.counts.size() == y.counts.size());
  const size_t n = x.ids.size();
  const size_t bins = x.counts.size();
  if (n < 2) return 0.0;
  // Cell counts are small integers, so counting them as integers gives the
  // same doubles as counting in doubles.
  std::vector<uint32_t> joint(bins * bins, 0);
  for (size_t i = 0; i < n; ++i) ++joint[x.ids[i] * bins + y.ids[i]];
  const std::vector<double>& mx = x.counts;
  const std::vector<double>& my = y.counts;
  double total = static_cast<double>(n);
  double mi = 0.0;
  for (size_t a = 0; a < bins; ++a) {
    if (mx[a] == 0.0) continue;
    for (size_t b = 0; b < bins; ++b) {
      double c = static_cast<double>(joint[a * bins + b]);
      if (c == 0.0 || my[b] == 0.0) continue;
      double pxy = c / total;
      mi += pxy * std::log(pxy * total * total / (mx[a] * my[b]));
    }
  }
  return std::max(0.0, mi);
}

double NormalizedMutualInformationFromBins(const EquiWidthBinning& x,
                                           const EquiWidthBinning& y) {
  FORESIGHT_CHECK(x.ids.size() == y.ids.size());
  if (x.ids.size() < 2) return 0.0;
  if (x.entropy <= 0.0 || y.entropy <= 0.0) return 0.0;
  double mi = MutualInformationFromBins(x, y);
  return std::clamp(mi / std::sqrt(x.entropy * y.entropy), 0.0, 1.0);
}

double BinnedMutualInformation(const std::vector<double>& x,
                               const std::vector<double>& y, size_t bins) {
  FORESIGHT_CHECK(x.size() == y.size());
  FORESIGHT_CHECK(bins >= 2);
  if (x.size() < 2) return 0.0;
  return MutualInformationFromBins(BinEquiWidth(x, bins),
                                   BinEquiWidth(y, bins));
}

double NormalizedMutualInformation(const std::vector<double>& x,
                                   const std::vector<double>& y, size_t bins) {
  FORESIGHT_CHECK(x.size() == y.size());
  if (x.size() < 2) return 0.0;
  return NormalizedMutualInformationFromBins(BinEquiWidth(x, bins),
                                             BinEquiWidth(y, bins));
}

double CramersV(const std::vector<int32_t>& x, const std::vector<int32_t>& y) {
  FORESIGHT_CHECK(x.size() == y.size());
  // Re-map codes to dense indices over the rows where both are present.
  std::unordered_map<int32_t, size_t> xmap, ymap;
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] < 0 || y[i] < 0) continue;
    auto [xi, x_inserted] = xmap.try_emplace(x[i], xmap.size());
    auto [yi, y_inserted] = ymap.try_emplace(y[i], ymap.size());
    pairs.emplace_back(xi->second, yi->second);
  }
  size_t r = xmap.size(), c = ymap.size();
  size_t n = pairs.size();
  if (n < 2 || r < 2 || c < 2) return 0.0;

  std::vector<double> joint(r * c, 0.0), row(r, 0.0), col(c, 0.0);
  for (auto [a, b] : pairs) {
    joint[a * c + b] += 1.0;
    row[a] += 1.0;
    col[b] += 1.0;
  }
  double total = static_cast<double>(n);
  double chi2 = 0.0;
  for (size_t a = 0; a < r; ++a) {
    for (size_t b = 0; b < c; ++b) {
      double expected = row[a] * col[b] / total;
      if (expected > 0.0) {
        double diff = joint[a * c + b] - expected;
        chi2 += diff * diff / expected;
      }
    }
  }
  double denom = total * static_cast<double>(std::min(r, c) - 1);
  if (denom <= 0.0) return 0.0;
  return std::clamp(std::sqrt(chi2 / denom), 0.0, 1.0);
}

double CorrelationRatio(const std::vector<double>& values,
                        const std::vector<int32_t>& codes) {
  FORESIGHT_CHECK(values.size() == codes.size());
  // std::map: the ss_between reduction below is order-sensitive in
  // floating point; ordered iteration keeps the score deterministic.
  std::map<int32_t, std::pair<double, double>> groups;  // sum, count
  double grand_sum = 0.0;
  double n = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (codes[i] < 0) continue;
    auto& [sum, count] = groups[codes[i]];
    sum += values[i];
    count += 1.0;
    grand_sum += values[i];
    n += 1.0;
  }
  if (n < 2.0 || groups.size() < 2) return 0.0;
  double grand_mean = grand_sum / n;
  double ss_between = 0.0;
  for (const auto& [code, sc] : groups) {
    double group_mean = sc.first / sc.second;
    double d = group_mean - grand_mean;
    ss_between += sc.second * d * d;
  }
  double ss_total = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (codes[i] < 0) continue;
    double d = values[i] - grand_mean;
    ss_total += d * d;
  }
  if (ss_total <= 0.0) return 0.0;
  return std::clamp(ss_between / ss_total, 0.0, 1.0);
}

}  // namespace foresight
