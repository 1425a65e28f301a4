#ifndef FORESIGHT_CORE_PROFILE_H_
#define FORESIGHT_CORE_PROFILE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "data/table.h"
#include "sketch/bundle.h"
#include "sketch/panel_cache.h"
#include "stats/correlation.h"
#include "stats/dependence.h"
#include "util/json.h"
#include "util/status.h"

namespace foresight {

class ThreadPool;

/// One column's slice of the shared row sample, plus what the pairwise
/// estimators derive from it. Built when the sample is materialized (after
/// a build, an append and a load); only the non-null midranks are stored in
/// the profile document.
struct ColumnSample {
  /// Numeric columns: values aligned with sampled_rows(), NaN marking
  /// nulls, and the midranks of the non-null values at the same slots.
  std::vector<double> values;
  std::vector<double> ranks;
  /// Categorical columns: dictionary codes, -1 marking nulls.
  std::vector<int32_t> codes;
  /// Numeric columns with no null slot: every pairwise estimator reads the
  /// whole sample, so its per-column halves are made here once. `bins` are
  /// the equi-width mutual-information bins of `values`; `rank_moments` are
  /// the mean and centered sum of squares of `ranks`.
  bool dense = false;
  EquiWidthBinning bins;
  CenteredMoments rank_moments;
};

/// Everything the approximate query path needs, produced by one preprocessing
/// pass over the table (§3: "the dataset is preprocessed to compute sketches,
/// samples, and indexes that will support fast approximate insight querying"):
///   - a sketch bundle per column (moments, KLL, hyperplane signature, JL
///     projection / SpaceSaving, entropy sketch);
///   - a shared uniform ROW sample (row-aligned across columns), the one
///     source of raw points: outliers and multimodality read one column of
///     it, Spearman, mutual information and segmentation read joint rows;
///   - per-column views, the "indexes" queries read instead of rebuilding
///     per-column state: the sample's values, midranks, mutual-information
///     bins and midrank moments (ColumnSample), and each KLL sketch's sorted
///     view (NumericColumnSketch::quantile_view).
///
/// The profile references (does not own) the table it was built from.
class TableProfile {
 public:
  TableProfile() = default;
  TableProfile(TableProfile&&) = default;
  TableProfile& operator=(TableProfile&&) = default;

  const DataTable& table() const { return *table_; }
  const SketchConfig& config() const { return config_; }
  const BundleBuilder& builder() const { return *builder_; }

  /// Per-column sketches; present for every column of matching type.
  const NumericColumnSketch& numeric_sketch(size_t column) const;
  const CategoricalColumnSketch& categorical_sketch(size_t column) const;
  bool has_numeric_sketch(size_t column) const {
    return numeric_.count(column) > 0;
  }
  bool has_categorical_sketch(size_t column) const {
    return categorical_.count(column) > 0;
  }

  /// Row ids in the shared row sample (ascending).
  const std::vector<size_t>& sampled_rows() const { return sampled_rows_; }

  /// Sampled values of a numeric column, aligned with `sampled_rows()`
  /// (NaN marks nulls). Use SampledPairedValid for joint extraction.
  const std::vector<double>& sampled_numeric(size_t column) const;

  /// Fractional (midrank) ranks of the non-null sampled values of a numeric
  /// column, aligned with `sampled_rows()` (NaN marks nulls). Precomputed so
  /// Spearman estimates are a Pearson over cached ranks — O(m) per pair
  /// instead of O(m log m) — which keeps all-pairs monotonic-relationship
  /// queries interactive. (Ranks are global per column; under pairwise null
  /// deletion this is the standard approximation.)
  const std::vector<double>& sampled_ranks(size_t column) const;
  /// Sampled dictionary codes of a categorical column (-1 marks null).
  const std::vector<int32_t>& sampled_codes(size_t column) const;
  /// The whole sample state of any column.
  const ColumnSample& sample(size_t column) const;

  /// Wall-clock seconds spent preprocessing (for E2/E8 reporting).
  double preprocess_seconds() const { return preprocess_seconds_; }

  /// Telemetry snapshot of the panel cache used during ingestion (the cache
  /// itself is transient to the preprocessing pass). All-zero for tables with
  /// no numeric columns.
  const RandomPanelCache::Stats& panel_stats() const { return panel_stats_; }

  /// Approximate total sketch memory in bytes (for E8 reporting).
  size_t EstimateMemoryBytes() const;

  /// Serializes the full profile (config, row sample, every column's sketch
  /// bundle) to a version-3 JSON document. Preprocessing is the expensive
  /// step; a deployment persists the profile once and serves many sessions
  /// from it. Derived state is not stored: the column samples and their
  /// views re-materialize from the stored row ids against the table at load
  /// time, and each numeric column's signature, centered projection and
  /// quantile view are derived again by BundleBuilder::FinalizeNumeric. The
  /// non-null sample midranks are the exception, stored because they spare
  /// a per-column sort on load.
  JsonValue ToJson() const;

 private:
  friend class Preprocessor;

  const DataTable* table_ = nullptr;
  SketchConfig config_;
  std::unique_ptr<BundleBuilder> builder_;
  std::unordered_map<size_t, NumericColumnSketch> numeric_;
  std::unordered_map<size_t, CategoricalColumnSketch> categorical_;
  std::vector<size_t> sampled_rows_;
  /// Indexed by column.
  std::vector<ColumnSample> samples_;
  double preprocess_seconds_ = 0.0;
  RandomPanelCache::Stats panel_stats_;
};

/// Options for preprocessing.
struct PreprocessOptions {
  SketchConfig sketch;
  /// Size of the shared row sample.
  size_t row_sample_size = 2048;
  /// Partition layout: ascending row end-offsets, the last equal to the
  /// table's row count (e.g. {1000, 1010} = rows [0,1000) then [1000,1010));
  /// empty (the default) is one pass over every row. Each partition is
  /// sketched independently and the partials merge in order; empty
  /// partitions are allowed and skipped. This is how an append history is
  /// replayed as a from-scratch build: a profile grown by AppendToProfile at
  /// these boundaries is bit-identical to Profile() over the full table with
  /// the same boundaries (the gate in test_append_equivalence).
  std::vector<size_t> partition_boundaries;
  /// Rows per cached random panel block (0 = auto). Peak panel memory is
  /// O(resident blocks * block_rows * (hyperplane_bits + projection_dims) * 8
  /// bytes).
  size_t panel_block_rows = 0;
};

/// Builds TableProfiles.
class Preprocessor {
 public:
  /// Profiles every column of `table`. The returned profile references
  /// `table`, which must outlive it. The per-column sketch bundles (and, with
  /// several partitions, the per-partition partials feeding each merge) are
  /// built on `pool`; a null `pool` runs on a one-thread pool, inline.
  /// Because every row's random hyperplane/projection components derive only
  /// from (seed, row) and each column's sketches see their rows in the same
  /// order either way, the resulting profile is bit-identical to the serial
  /// one — across worker counts and panel block sizes, for any fixed
  /// partition layout. (Different partition layouts are statistically
  /// equivalent but not bit-identical: merging independently-built sketches
  /// reassociates floating-point sums.)
  static StatusOr<TableProfile> Profile(const DataTable& table,
                                        const PreprocessOptions& options = {},
                                        ThreadPool* pool = nullptr);

  /// Extends `profile` — built from `table` back when it had `old_rows` rows,
  /// before the new rows were appended (see DataTable::AppendRows) — by
  /// sketching ONLY rows [old_rows, num_rows) through the same panel-blocked
  /// kernels and merging the delta into each column's sketches in partition
  /// order. The contract, gated by test_append_equivalence and re-gated by
  /// bench_append: the grown profile is bit-identical to Profile() over the
  /// full table with `partition_boundaries` replaying the same append
  /// history. The shared row sample depends only on (seed, row count, sample
  /// size), so it is recomputed and rematerialized outright.
  ///
  /// The delta uses the profile's own sketch geometry (options.sketch is
  /// ignored); options supplies the panel block size and sample size. The
  /// work runs on `pool`; a null `pool` runs inline.
  /// Returns FailedPrecondition when the auto-resolved hyperplane width
  /// changes at the new row count — sketches of different widths cannot
  /// merge — in which case the profile is untouched and the caller should
  /// fall back to a full rebuild. All other errors also leave the profile
  /// unmodified.
  static Status AppendToProfile(const DataTable& table, size_t old_rows,
                                const PreprocessOptions& options,
                                TableProfile* profile,
                                ThreadPool* pool = nullptr);

  /// Restores a profile persisted by TableProfile::ToJson against `table`
  /// (which must be the table it was built from: column names/types and row
  /// count are validated). The table must outlive the profile. Only version-3
  /// documents load, and every column's sketches must match the geometry the
  /// document's own config gives (BundleBuilder::MatchesGeometry), so a
  /// hostile document is refused here rather than aborting a later query or
  /// append. Numeric sketches are finalized as after a build. The sample
  /// vectors rematerialize on `pool` (a null `pool` runs inline); the
  /// restored profile is bit-identical either way (see MaterializeSamples).
  static StatusOr<TableProfile> LoadProfile(const DataTable& table,
                                            const JsonValue& json,
                                            ThreadPool* pool = nullptr);

 private:
  /// Rebuilds samples_ from sampled_rows_, one column per task on `pool`.
  /// `preset_present_ranks` maps column index -> the non-null sample's
  /// midranks (as persisted under "sample_ranks"); a matching entry replaces
  /// the rank sort for that column, a missing or length-mismatched one falls
  /// back to the canonical recompute.
  static void MaterializeSamples(
      const DataTable& table, TableProfile& profile, ThreadPool& pool,
      const std::unordered_map<size_t, std::vector<double>>*
          preset_present_ranks = nullptr);
};

}  // namespace foresight

#endif  // FORESIGHT_CORE_PROFILE_H_
