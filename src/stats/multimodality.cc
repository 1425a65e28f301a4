#include "stats/multimodality.h"

#include <algorithm>
#include <cmath>

#include "stats/moments.h"
#include "stats/quantiles.h"

namespace foresight {

namespace {
constexpr double kInvSqrt2Pi = 0.3989422804014327;
}

KdeResult ComputeKde(const std::vector<double>& values, size_t grid_size) {
  KdeResult result;
  if (values.empty() || grid_size < 2) return result;

  RunningMoments m = MomentsOf(values);
  double sigma = m.stddev();
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  double iqr = SortedQuantile(sorted, 0.75) - SortedQuantile(sorted, 0.25);
  double n = static_cast<double>(values.size());
  // Silverman's rule of thumb with the robust spread estimate.
  double spread = sigma;
  if (iqr > 0.0) spread = std::min(sigma, iqr / 1.349);
  if (spread <= 0.0) spread = sigma > 0.0 ? sigma : 1.0;
  double bandwidth = 0.9 * spread * std::pow(n, -0.2);
  if (bandwidth <= 0.0) bandwidth = 1.0;
  result.bandwidth = bandwidth;

  double lo = sorted.front() - bandwidth;
  double hi = sorted.back() + bandwidth;
  if (lo == hi) {
    lo -= 0.5;
    hi += 0.5;
  }
  double step = (hi - lo) / static_cast<double>(grid_size - 1);
  result.grid.resize(grid_size);
  result.density.assign(grid_size, 0.0);
  for (size_t g = 0; g < grid_size; ++g) {
    result.grid[g] = lo + step * static_cast<double>(g);
  }
  // Each point adds its kernel to the grid points within a 4-bandwidth
  // cutoff, a contiguous run [first, end) that moves right with the sorted
  // data. Along the regular grid u = (x - s) / bandwidth steps by delta, so
  // the kernel follows K(g + 1) = K(g) * r(g) with r(g + 1) = r(g) *
  // exp(-delta^2): two exp calls per point instead of one per (grid point,
  // point) pair, within about 1e-13 of the peak of the direct sum.
  const double cutoff = 4.0 * bandwidth;
  const double delta = step / bandwidth;
  const double decay = std::exp(-delta * delta);
  size_t first = 0;
  for (double s : sorted) {
    while (first < grid_size && !(s <= result.grid[first] + cutoff)) ++first;
    size_t end = first;
    while (end < grid_size && !(s < result.grid[end] - cutoff)) ++end;
    if (end == first) continue;
    double u = (result.grid[first] - s) / bandwidth;
    double kernel = std::exp(-0.5 * u * u);
    result.density[first] += kernel;
    if (end - first == 1) continue;
    double ratio = std::exp(-delta * (u + 0.5 * delta));
    for (size_t g = first + 1; g < end; ++g) {
      kernel *= ratio;
      ratio *= decay;
      result.density[g] += kernel;
    }
  }
  for (double& d : result.density) d = d * kInvSqrt2Pi / (n * bandwidth);
  return result;
}

std::vector<Mode> FindModes(const KdeResult& kde, double min_prominence_frac) {
  std::vector<Mode> modes;
  const auto& d = kde.density;
  if (d.size() < 3) return modes;
  double global_max = *std::max_element(d.begin(), d.end());
  if (global_max <= 0.0) return modes;

  // Local maxima (plateau-tolerant): d rises into i and falls after i.
  std::vector<size_t> peak_indices;
  for (size_t i = 1; i + 1 < d.size(); ++i) {
    if (d[i] > d[i - 1] && d[i] >= d[i + 1]) {
      // Skip plateau duplicates: take the first index of a flat top.
      peak_indices.push_back(i);
      while (i + 1 < d.size() && d[i + 1] == d[i]) ++i;
    }
  }
  for (size_t idx : peak_indices) {
    // Prominence: height above the higher of the two deepest valleys
    // separating this peak from a higher peak (or the boundary).
    double left_min = d[idx];
    for (size_t j = idx; j-- > 0;) {
      left_min = std::min(left_min, d[j]);
      if (d[j] > d[idx]) break;
    }
    double right_min = d[idx];
    for (size_t j = idx + 1; j < d.size(); ++j) {
      right_min = std::min(right_min, d[j]);
      if (d[j] > d[idx]) break;
    }
    double prominence = d[idx] - std::max(left_min, right_min);
    if (prominence >= min_prominence_frac * global_max) {
      modes.push_back({kde.grid[idx], d[idx], prominence});
    }
  }
  std::sort(modes.begin(), modes.end(),
            [](const Mode& a, const Mode& b) { return a.density > b.density; });
  return modes;
}

double MultimodalityScore(const std::vector<double>& values) {
  if (values.size() < 8) return 0.0;
  KdeResult kde = ComputeKde(values);
  std::vector<Mode> modes = FindModes(kde);
  if (modes.size() < 2) return 0.0;
  double primary = modes.front().density;
  if (primary <= 0.0) return 0.0;
  double secondary_mass = 0.0;
  for (size_t i = 1; i < modes.size(); ++i) {
    secondary_mass += modes[i].prominence / primary;
  }
  return secondary_mass / (1.0 + secondary_mass);
}

double BimodalityCoefficient(const std::vector<double>& values) {
  if (values.size() < 4) return 0.0;
  RunningMoments m = MomentsOf(values);
  double kurt = m.kurtosis();
  // NaN kurtosis (constant column) compares false here and falls through to
  // the 0.0 return: a constant column is simply not bimodal.
  if (!(kurt > 0.0)) return 0.0;
  double skew = m.skewness();
  return (skew * skew + 1.0) / kurt;
}

}  // namespace foresight
