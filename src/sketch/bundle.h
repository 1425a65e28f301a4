#ifndef FORESIGHT_SKETCH_BUNDLE_H_
#define FORESIGHT_SKETCH_BUNDLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "data/column.h"
#include "sketch/entropy.h"
#include "sketch/kll.h"
#include "sketch/panel_cache.h"
#include "sketch/random_projection.h"
#include "sketch/simhash.h"
#include "sketch/spacesaving.h"
#include "stats/moments.h"

namespace foresight {

/// Tunable sizes for the per-column sketch bundles.
struct SketchConfig {
  /// Hyperplane bits for correlation estimation. The paper prescribes
  /// k = O(log^2 n); 0 means "auto": round log2(n)^2 up to a multiple of 64.
  size_t hyperplane_bits = 0;
  size_t projection_dims = 64;
  size_t kll_k = 200;
  size_t spacesaving_capacity = 64;
  size_t entropy_k = 128;
  uint64_t seed = 0xF0E51647;

  /// Resolves hyperplane_bits for a dataset with n rows.
  size_t ResolveHyperplaneBits(size_t n_rows) const;
};

/// All sketch state for one NUMERIC column: moments (exact, single-pass),
/// KLL quantiles, hyperplane signature, JL projection. Raw points come from
/// the profile's shared row sample (TableProfile::sampled_numeric).
/// This is the §3 composition: one preprocessing pass fills every member,
/// and disjoint row ranges merge member-wise.
struct NumericColumnSketch {
  RunningMoments moments;
  KllSketch quantiles;
  /// Raw mergeable accumulator; BundleBuilder::FinalizeNumeric derives
  /// `signature` from it and the mean.
  HyperplaneAccumulator hyperplane_acc;
  /// Derived: a pure function of `hyperplane_acc` and the mean, so never
  /// serialized. Every profile's sketches are finalized after a build, an
  /// append merge and a load.
  BitSignature signature;
  /// JL projection of the RAW column plus the projection of the all-ones
  /// indicator over the same (valid) rows; centering composes as
  /// proj(b~) = proj(b) - mean * proj(1).
  ProjectionSketch projection;
  ProjectionSketch projection_ones;
  /// Derived cache: CenteredProjection() materialized at finalize time so
  /// pairwise metrics don't re-center per pair. Empty (k() == 0) until
  /// FinalizeNumeric runs; never serialized.
  ProjectionSketch centered_projection;
  /// Derived cache: `quantiles.SortedView()` built at finalize time, so a
  /// quantile query is a binary search rather than a sort. Empty until
  /// FinalizeNumeric runs; never serialized.
  KllSortedView quantile_view;

  /// Projection of the centered column, using the final mean.
  ProjectionSketch CenteredProjection() const;

  /// Merges a sketch of a disjoint row range of the same column. Clears the
  /// derived members (the mean and the quantiles change) until
  /// FinalizeNumeric.
  void Merge(const NumericColumnSketch& other);
};

/// All sketch state for one CATEGORICAL column: frequent items and entropy.
struct CategoricalColumnSketch {
  SpaceSavingSketch heavy_hitters;
  EntropySketch entropy;

  void Merge(const CategoricalColumnSketch& other);
};

/// Reusable scratch buffers for numeric ingestion, so hot loops never
/// allocate per call. One instance per worker thread; pass it to every
/// Accumulate call that thread makes.
struct IngestScratch {
  std::vector<double> values;       ///< Compacted valid values of one block.
  std::vector<uint32_t> local_rows; ///< Panel-local rows of those values.
  std::vector<double> hyperplane_row;
  std::vector<double> projection_row;
};

/// Ones-side accumulators shared across fully-valid columns: ones_dot and
/// projection_ones depend only on the ROW SET, not on column values, so one
/// partition-wide accumulation serves every column with zero nulls.
struct SharedOnes {
  std::vector<double> hyperplane_ones;
  std::vector<double> projection_ones;
};

/// Builds sketch bundles for whole columns (single pass each) or row ranges
/// (for composition tests / partitioned preprocessing).
class BundleBuilder {
 public:
  BundleBuilder(const SketchConfig& config, size_t n_rows);

  const SketchConfig& config() const { return config_; }
  size_t hyperplane_bits() const { return hyperplane_bits_; }
  const HyperplaneSketcher& hyperplane_sketcher() const {
    return hyperplane_sketcher_;
  }
  const ProjectionSketcher& projection_sketcher() const {
    return projection_sketcher_;
  }

  /// Creates empty sketches sized per the config. These two factories state
  /// a profile's sketch geometry.
  NumericColumnSketch MakeNumericSketch() const;
  CategoricalColumnSketch MakeCategoricalSketch() const;

  /// True when `sketch` has the sizes and seeds of the empty sketch the
  /// matching factory builds: hyperplane and projection widths and KLL k;
  /// SpaceSaving capacity, entropy k and entropy seed.
  /// Sketches of one geometry pair with each other and merge with the
  /// builder's deltas, so LoadProfile holds every column to this rule rather
  /// than let a mismatch abort the first query or append.
  bool MatchesGeometry(const NumericColumnSketch& sketch) const;
  bool MatchesGeometry(const CategoricalColumnSketch& sketch) const;

  /// Folds rows [row_offset, ...) of a column into a sketch, generating each
  /// row's random components as it goes. Null rows are skipped for value
  /// sketches but still advance the absolute row index, so
  /// hyperplane/projection components stay row-aligned across columns. This
  /// is the per-row reference the panel-blocked kernels below must match bit
  /// for bit. `scratch` (optional) supplies reusable row buffers so repeated
  /// calls don't reallocate.
  void AccumulateNumeric(const NumericColumn& column, size_t row_begin,
                         size_t row_end, NumericColumnSketch& sketch,
                         IngestScratch* scratch = nullptr) const;

  /// Panel-blocked ingestion of rows [row_begin, row_end), which must lie
  /// inside `panel`'s row range: the kernel for columns with nulls. The
  /// valid rows are compacted into `scratch` and fed to the gather kernels.
  /// Bit-identical to AccumulateNumeric over the same rows: value sketches
  /// see values in row order and every dot/ones accumulator receives one
  /// addition per valid row in ascending row order.
  void AccumulateNumericBlocked(const NumericColumn& column,
                                const RandomPanelBlock& panel,
                                size_t row_begin, size_t row_end,
                                NumericColumnSketch& sketch,
                                IngestScratch& scratch) const;

  /// Panel-blocked ingestion for a group of fully-valid (zero-null) columns
  /// over one panel span: the kernel for columns without nulls. Value
  /// sketches are fed per column in row order and each value accumulator
  /// receives the same addition sequence as AccumulateNumeric, but the dense
  /// kernel sweeps each panel slab once per group of four columns instead of
  /// once per column, keeping it hot in L1. The ones-side accumulators are
  /// left untouched: they depend only on the row set, so the caller applies
  /// one SharedOnes partition total to every such column (see
  /// AccumulateSharedOnes).
  void AccumulateNumericBlockedGroup(const NumericColumn* const* columns,
                                     NumericColumnSketch* const* sketches,
                                     size_t num_columns,
                                     const RandomPanelBlock& panel,
                                     size_t row_begin, size_t row_end) const;

  /// Accumulates the ones-side contribution of rows [row_begin, row_end)
  /// (inside `panel`) into `ones`, sized/zeroed on first use. Streaming the
  /// same blocks in the same order as a fully-valid column's row loop makes
  /// the result bit-identical to that column's own ones accumulation.
  void AccumulateSharedOnes(const RandomPanelBlock& panel, size_t row_begin,
                            size_t row_end, SharedOnes& ones) const;

  /// Copies a finished SharedOnes total into a fully-valid column's sketch.
  void ApplySharedOnes(const SharedOnes& ones,
                       NumericColumnSketch& sketch) const;

  void AccumulateCategorical(const CategoricalColumn& column, size_t row_begin,
                             size_t row_end,
                             CategoricalColumnSketch& sketch) const;

  /// Derives the signature, the centered projection and the quantile view
  /// from the mergeable members: the one place finalized state is made,
  /// after a build, an append merge and a load.
  void FinalizeNumeric(NumericColumnSketch& sketch) const;

  /// One-shot: sketch a full column.
  NumericColumnSketch SketchNumeric(const NumericColumn& column) const;
  CategoricalColumnSketch SketchCategorical(
      const CategoricalColumn& column) const;

 private:
  /// Folds one value into a sketch given this row's pre-generated hyperplane
  /// and projection components.
  void AccumulateRowValue(double value,
                          const std::vector<double>& hyperplane_row,
                          const std::vector<double>& projection_row,
                          NumericColumnSketch& sketch) const;

  SketchConfig config_;
  size_t hyperplane_bits_;
  HyperplaneSketcher hyperplane_sketcher_;
  ProjectionSketcher projection_sketcher_;
  double projection_scale_;  ///< 1/sqrt(projection_dims), hoisted off the row loop.
};

}  // namespace foresight

#endif  // FORESIGHT_SKETCH_BUNDLE_H_
