#ifndef FORESIGHT_STATS_QUANTILES_H_
#define FORESIGHT_STATS_QUANTILES_H_

#include <cstddef>
#include <vector>

namespace foresight {

/// Exact quantile of `values` at rank q in [0, 1], using linear interpolation
/// between order statistics (R type-7 / NumPy default). `values` need not be
/// sorted. Returns 0 for empty input.
double ExactQuantile(std::vector<double> values, double q);

/// Exact quantile over data already sorted ascending.
double SortedQuantile(const std::vector<double>& sorted, double q);

/// Median shortcut.
double Median(std::vector<double> values);

/// Five-number summary plus Tukey whiskers and outliers, as drawn by a
/// box-and-whisker plot (the paper's visualization for the Outliers insight).
struct BoxPlotStats {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  /// Whisker ends: furthest points within 1.5 * IQR fences.
  double lower_whisker = 0.0;
  double upper_whisker = 0.0;
  /// Indices (into the input) of points beyond the fences.
  std::vector<size_t> outlier_indices;
};

BoxPlotStats ComputeBoxPlotStats(const std::vector<double>& values);

}  // namespace foresight

#endif  // FORESIGHT_STATS_QUANTILES_H_
