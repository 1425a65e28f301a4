#include "stats/quantiles.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace foresight {

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  FORESIGHT_CHECK(q >= 0.0 && q <= 1.0);
  if (sorted.size() == 1) return sorted[0];
  double position = q * static_cast<double>(sorted.size() - 1);
  size_t lower = static_cast<size_t>(std::floor(position));
  size_t upper = static_cast<size_t>(std::ceil(position));
  double weight = position - static_cast<double>(lower);
  return sorted[lower] * (1.0 - weight) + sorted[upper] * weight;
}

double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return SortedQuantile(values, q);
}

double Median(std::vector<double> values) {
  return ExactQuantile(std::move(values), 0.5);
}

BoxPlotStats ComputeBoxPlotStats(const std::vector<double>& values) {
  BoxPlotStats stats;
  if (values.empty()) return stats;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  stats.min = sorted.front();
  stats.max = sorted.back();
  stats.q1 = SortedQuantile(sorted, 0.25);
  stats.median = SortedQuantile(sorted, 0.5);
  stats.q3 = SortedQuantile(sorted, 0.75);
  double iqr = stats.q3 - stats.q1;
  double lower_fence = stats.q1 - 1.5 * iqr;
  double upper_fence = stats.q3 + 1.5 * iqr;

  stats.lower_whisker = stats.q1;
  stats.upper_whisker = stats.q3;
  for (double x : sorted) {
    if (x >= lower_fence) {
      stats.lower_whisker = x;
      break;
    }
  }
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    if (*it <= upper_fence) {
      stats.upper_whisker = *it;
      break;
    }
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] < lower_fence || values[i] > upper_fence) {
      stats.outlier_indices.push_back(i);
    }
  }
  return stats;
}

}  // namespace foresight
