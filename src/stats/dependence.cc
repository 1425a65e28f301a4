#include "stats/dependence.h"

#include <algorithm>
#include <cmath>

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

double NormalizedMutualInformation(const std::vector<double>& x,
                                   const std::vector<double>& y, size_t bins) {
  FORESIGHT_CHECK(x.size() == y.size());
  if (x.size() < 2) return 0.0;
  return NormalizedMutualInformationFromBins(BinEquiWidth(x, bins),
                                             BinEquiWidth(y, bins));
}

}  // namespace foresight
