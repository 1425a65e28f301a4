#ifndef FORESIGHT_STATS_DEPENDENCE_H_
#define FORESIGHT_STATS_DEPENDENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace foresight {

/// Measures of "general statistical dependence" (one of the paper's
/// additional insights), covering every attribute-type pairing:
///   numeric x numeric      -> binned normalized mutual information
///   categorical x categorical -> Cramér's V
///   numeric x categorical  -> correlation ratio eta^2

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

/// Mutual information (nats) between two equal-length numeric vectors after
/// equi-width binning into `bins` x `bins` cells.
double BinnedMutualInformation(const std::vector<double>& x,
                               const std::vector<double>& y,
                               size_t bins = kMutualInformationBins);

/// MI normalized by sqrt(Hx * Hy), in [0, 1]; 0 when either marginal entropy
/// vanishes.
double NormalizedMutualInformation(const std::vector<double>& x,
                                   const std::vector<double>& y,
                                   size_t bins = kMutualInformationBins);

/// The same two estimators over already-binned sides of equal size and bin
/// count: the vector forms above bin both inputs and call these.
double MutualInformationFromBins(const EquiWidthBinning& x,
                                 const EquiWidthBinning& y);
double NormalizedMutualInformationFromBins(const EquiWidthBinning& x,
                                           const EquiWidthBinning& y);

/// Cramér's V in [0, 1] over two code vectors (codes need not be dense;
/// negative codes mean missing and such rows are skipped pairwise).
double CramersV(const std::vector<int32_t>& x, const std::vector<int32_t>& y);

/// Correlation ratio eta^2 in [0, 1]: fraction of the variance of `values`
/// explained by the grouping `codes` (rows with negative codes are skipped).
double CorrelationRatio(const std::vector<double>& values,
                        const std::vector<int32_t>& codes);

}  // namespace foresight

#endif  // FORESIGHT_STATS_DEPENDENCE_H_
