#ifndef FORESIGHT_STATS_DEPENDENCE_H_
#define FORESIGHT_STATS_DEPENDENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace foresight {

/// The "general statistical dependence" measure (one of the paper's
/// additional insights) over numeric x numeric pairs: binned normalized
/// mutual information.

/// Bins per side of the mutual-information histograms.
inline constexpr size_t kMutualInformationBins = 16;

/// One side of the binned mutual-information estimators: each value's
/// equi-width bin id over [min, max], the bin counts, and their entropy
/// (nats). A pair of these is all the estimators below need, so a column
/// binned once can be paired with many others.
struct EquiWidthBinning {
  std::vector<uint8_t> ids;
  std::vector<double> counts;  ///< One per bin.
  double entropy = 0.0;
};

/// Bins `values` into `bins` equal-width bins (1 <= bins <= 256); a constant
/// input puts everything in bin 0.
EquiWidthBinning BinEquiWidth(const std::vector<double>& values,
                              size_t bins = kMutualInformationBins);

/// Mutual information (nats) of the joint bins x bins histogram of two
/// binned sides of equal size and bin count.
double MutualInformationFromBins(const EquiWidthBinning& x,
                                 const EquiWidthBinning& y);

/// MI normalized by sqrt(Hx * Hy), in [0, 1]; 0 when either marginal entropy
/// vanishes. The vector form bins both equal-length inputs and calls the
/// binned one.
double NormalizedMutualInformation(const std::vector<double>& x,
                                   const std::vector<double>& y,
                                   size_t bins = kMutualInformationBins);
double NormalizedMutualInformationFromBins(const EquiWidthBinning& x,
                                           const EquiWidthBinning& y);

}  // namespace foresight

#endif  // FORESIGHT_STATS_DEPENDENCE_H_
