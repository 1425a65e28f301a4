#ifndef FORESIGHT_STATS_CORRELATION_H_
#define FORESIGHT_STATS_CORRELATION_H_

#include <cstddef>
#include <vector>

#include "data/column.h"

namespace foresight {

/// Pearson product-moment correlation rho(x, y) (§2.2, insight 6). Inputs
/// must have equal length; returns 0 for fewer than 2 points or when either
/// side is constant. Assembled from the three functions below: each of
/// sxx, syy and sxy is its own sequential sum in index order, so a caller
/// that keeps one side's CenteredMoments and runs only the cross-product
/// loop per pair gets the same bits.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// One side of PearsonCorrelation: the mean and the centered sum of squares
/// sum((x - mean)^2). Requires a non-empty `x`.
struct CenteredMoments {
  double mean = 0.0;
  double sum_squares = 0.0;
};
CenteredMoments ComputeCenteredMoments(const std::vector<double>& x);

/// sum((x - mean_x) * (y - mean_y)) in index order over equal-length inputs.
double CenteredCrossProduct(const std::vector<double>& x, double mean_x,
                            const std::vector<double>& y, double mean_y);

/// rho = sxy / sqrt(sxx * syy), clamped to [-1, 1]; 0 when either side is
/// constant (a sum of squares <= 0).
double PearsonFromSums(double sxy, double sxx, double syy);

/// Fractional ranks with ties averaged (the standard midrank convention).
/// Values must be NaN-free (callers drop nulls first). Values that compare
/// equal share a tie group, so -0.0 and +0.0 rank together.
std::vector<double> FractionalRanks(const std::vector<double>& values);

/// Spearman rank correlation: Pearson over midranks. Captures nonlinear
/// monotonic relationships (one of the paper's "additional insights", and the
/// second ranking metric the §4.1 scenario uses for correlation insights).
double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y);

/// Kendall's tau-b, computed in O(n log n) via merge-sort inversion counting
/// with tie correction.
double KendallTau(const std::vector<double>& x, const std::vector<double>& y);

/// Extracts the rows where BOTH numeric columns are non-null, as paired
/// vectors (pairwise deletion, the convention used for all two-column
/// insight metrics).
struct PairedValues {
  std::vector<double> x;
  std::vector<double> y;
};
PairedValues ExtractPairedValid(const NumericColumn& a, const NumericColumn& b);

/// Two-pass moment sums over the pairwise-valid rows of two columns: count,
/// means, and the centered products sxy/sxx/syy that Pearson is assembled
/// from. Produced by PairedMomentsBlocked.
struct PairedMoments {
  size_t count = 0;
  double mean_x = 0.0;
  double mean_y = 0.0;
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
};

/// Blocked two-pass paired moments. Columns with zero nulls feed the kernels
/// straight from their raw buffers (no compaction copy); otherwise the
/// pairwise-valid rows are compacted into thread-local scratch first. The
/// kernels accumulate into four independent lanes (row i to lane i mod 4),
/// which is what lets the AVX2 clone vectorize — the lane-partitioned
/// addition order IS the definition, so the scalar and AVX2 clones are
/// bit-identical (same no-FMA target_clones pattern as sketch ingestion).
/// Note the lane split means sums round differently from the sequential
/// PearsonCorrelation; both are exact two-pass algorithms, but they are
/// distinct rounding specifications.
PairedMoments PairedMomentsBlocked(const NumericColumn& a,
                                   const NumericColumn& b);

/// Exact Pearson over the pairwise-valid rows of two columns via
/// PairedMomentsBlocked — the SIMD refine kernel of the sketch-first prune
/// pipeline and the exact path of the linear-relationship class. Same edge
/// semantics as PearsonCorrelation: 0 for fewer than 2 paired rows or a
/// constant side, result clamped to [-1, 1].
double PearsonPairedBlocked(const NumericColumn& a, const NumericColumn& b);

}  // namespace foresight

#endif  // FORESIGHT_STATS_CORRELATION_H_
