#include "core/profile.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "sketch/panel_cache.h"
#include "sketch/serialize.h"
#include "stats/correlation.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace foresight {

namespace {

/// Splits `items` into one contiguous block per pool thread. For the numeric
/// column blocks, fewer and wider blocks mean fewer panel acquisitions per
/// partition and fuller four-column groups for the grouped kernel.
size_t BlockGrain(size_t items, const ThreadPool& pool) {
  size_t threads = pool.num_threads();
  return std::max<size_t>(1, (items + threads - 1) / threads);
}

/// A partition layout: contiguous [begin, end) row ranges in ascending order.
using RowRanges = std::vector<std::pair<size_t, size_t>>;

/// Resolves the partition layout for a table of `n` rows: partition_boundaries
/// (validated: non-decreasing, ending at n), or one range when empty.
StatusOr<RowRanges> ResolveRanges(size_t n, const PreprocessOptions& options) {
  if (options.partition_boundaries.empty()) return RowRanges{{0, n}};
  RowRanges ranges;
  size_t prev = 0;
  for (size_t boundary : options.partition_boundaries) {
    if (boundary < prev || boundary > n) {
      return Status::InvalidArgument(
          "partition_boundaries must be non-decreasing row offsets within "
          "the table");
    }
    ranges.emplace_back(prev, boundary);
    prev = boundary;
  }
  if (prev != n) {
    return Status::InvalidArgument(
        "the last partition boundary must equal the table's row count");
  }
  return ranges;
}

/// The profile document version ToJson writes and LoadProfile accepts. Bump
/// it whenever the stored state changes, so older snapshots are rebuilt.
constexpr int kProfileVersion = 3;

Status GeometryError(const std::string& column) {
  return Status::InvalidArgument(
      "column '" + column +
      "' has sketch sizes or seeds that differ from the profile config");
}

/// The shared row sample: uniform without replacement, ascending. Depends
/// only on (seed, n, sample size) — never on how rows arrived — so an
/// appended profile recomputes it outright and still matches a from-scratch
/// build bit for bit.
std::vector<size_t> ComputeSampledRows(size_t n,
                                       const PreprocessOptions& options) {
  size_t sample_size = std::min(options.row_sample_size, n);
  Rng rng(options.sketch.seed ^ 0x505A4D50ULL);
  std::vector<size_t> sampled;
  if (sample_size == n) {
    sampled.resize(n);
    for (size_t i = 0; i < n; ++i) sampled[i] = i;
    return sampled;
  }
  // Floyd's algorithm for a uniform sample without replacement.
  sampled.reserve(sample_size);
  std::unordered_map<size_t, bool> seen;
  for (size_t j = n - sample_size; j < n; ++j) {
    size_t t = static_cast<size_t>(rng.UniformInt(j + 1));
    if (seen.count(t)) {
      sampled.push_back(j);
      seen[j] = true;
    } else {
      sampled.push_back(t);
      seen[t] = true;
    }
  }
  std::sort(sampled.begin(), sampled.end());
  return sampled;
}

/// Un-finalized per-column sketches built over a set of row ranges, plus the
/// panel-cache telemetry of the pass.
struct ColumnSketchSet {
  std::vector<NumericColumnSketch> numeric;  ///< Parallel to numeric_cols.
  std::vector<CategoricalColumnSketch> categorical;  ///< To cat_cols.
  RandomPanelCache::Stats panel_stats;
};

/// The shared ingestion machinery behind both full builds and append deltas:
/// accumulates every column's sketches over `ranges` and merges the
/// per-range partials in range order. Numeric sketches are NOT finalized —
/// callers finalize after any further merging (the append path merges the
/// delta into existing sketches first).
///
/// Work is tiled as (partition x column-block); each tile sweeps its
/// partition's rows in ascending order, so every column's sketches consume
/// their rows in the same order no matter how tiles are scheduled — the
/// result is bit-identical across worker counts and panel block sizes for a
/// fixed `ranges`, and equal to BundleBuilder::AccumulateNumeric run per
/// range and merged in range order (the oracle in test_kernel_equivalence).
///
/// The per-row random components are materialized once per row block in a
/// RandomPanelCache shared by all columns and partitions, and tiles consume
/// the cached panels through dense blocked kernels. Partitions are swept
/// p-major with grain 1, so concurrent workers stay on the same partition's
/// row range and share the same resident panel blocks. Columns with zero
/// nulls additionally share the ones-side accumulation (it depends only on
/// the row set): the column-block-0 tile accumulates it once per partition
/// and it is copied into every fully-valid column.
ColumnSketchSet BuildColumnSketches(const DataTable& table,
                                    const BundleBuilder& builder,
                                    const std::vector<size_t>& numeric_cols,
                                    const std::vector<size_t>& cat_cols,
                                    const RowRanges& ranges,
                                    const PreprocessOptions& options,
                                    ThreadPool& pool) {
  ColumnSketchSet result;
  size_t n = table.num_rows();
  size_t parts = ranges.size();
  size_t n_num = numeric_cols.size();
  std::vector<const NumericColumn*> numeric_ptrs;
  numeric_ptrs.reserve(n_num);
  for (size_t c : numeric_cols) {
    numeric_ptrs.push_back(&table.column(c).AsNumeric());
  }
  result.numeric.reserve(n_num);
  for (size_t i = 0; i < n_num; ++i) {
    result.numeric.push_back(builder.MakeNumericSketch());
  }
  if (n_num > 0) {
    size_t col_grain = BlockGrain(n_num, pool);
    size_t num_cb = (n_num + col_grain - 1) / col_grain;
    // parts == 1 accumulates straight into result.numeric (offset 0);
    // otherwise per-partition partials merge in partition order below —
    // the same merge sequence the serial path performs.
    std::vector<NumericColumnSketch> partials;
    if (parts > 1) {
      partials.reserve(parts * n_num);
      for (size_t i = 0; i < parts * n_num; ++i) {
        partials.push_back(builder.MakeNumericSketch());
      }
    }
    std::vector<NumericColumnSketch>& target =
        parts == 1 ? result.numeric : partials;

    // Auto block size: 256 rows keeps a 256-bit-hyperplane panel around
    // half a megabyte — resident in L2 while all columns sweep it.
    size_t block_rows =
        options.panel_block_rows > 0 ? options.panel_block_rows : 256;
    RandomPanelCache cache(builder.hyperplane_sketcher(),
                           builder.projection_sketcher(), n, block_rows);
    // Every tile of partition p acquires each panel block overlapping p's
    // rows exactly once; plan those uses so blocks free as tiles drain.
    std::vector<int64_t> uses(cache.num_blocks(), 0);
    for (size_t p = 0; p < parts; ++p) {
      auto [row_begin, row_end] = ranges[p];
      if (row_begin >= row_end) continue;
      for (size_t b = cache.block_of_row(row_begin);
           b <= cache.block_of_row(row_end - 1); ++b) {
        uses[b] += static_cast<int64_t>(num_cb);
      }
    }
    cache.PlanUses(std::move(uses));
    bool has_fully_valid = false;
    for (const NumericColumn* column : numeric_ptrs) {
      if (column->null_count() == 0) has_fully_valid = true;
    }
    std::vector<SharedOnes> shared_ones(parts);
    auto run_tiles = [&](size_t tile_begin, size_t tile_end) {
      IngestScratch scratch;
      std::vector<const NumericColumn*> group_columns;
      std::vector<NumericColumnSketch*> group_sketches;
      std::vector<size_t> null_cols;
      for (size_t t = tile_begin; t < tile_end; ++t) {
        size_t p = t / num_cb;
        size_t cb = t % num_cb;
        size_t col_begin = cb * col_grain;
        size_t col_end = std::min(n_num, col_begin + col_grain);
        auto [row_begin, row_end] = ranges[p];
        if (row_begin >= row_end) continue;
        size_t offset = parts == 1 ? 0 : p * n_num;
        bool ones_rider = cb == 0 && has_fully_valid;
        // Fully-valid columns sweep each panel slab as a group (slab hot
        // in L1 across four column streams); null-bearing columns keep the
        // per-column compaction path. Column order across the split is
        // irrelevant: every sketch's accumulation sequence is unchanged.
        group_columns.clear();
        group_sketches.clear();
        null_cols.clear();
        for (size_t i = col_begin; i < col_end; ++i) {
          if (numeric_ptrs[i]->null_count() == 0) {
            group_columns.push_back(numeric_ptrs[i]);
            group_sketches.push_back(&target[offset + i]);
          } else {
            null_cols.push_back(i);
          }
        }
        for (size_t b = cache.block_of_row(row_begin);
             b <= cache.block_of_row(row_end - 1); ++b) {
          std::shared_ptr<const RandomPanelBlock> panel = cache.Acquire(b);
          size_t rb = std::max(row_begin, cache.block_begin(b));
          size_t re = std::min(row_end, cache.block_end(b));
          builder.AccumulateNumericBlockedGroup(
              group_columns.data(), group_sketches.data(),
              group_columns.size(), *panel, rb, re);
          for (size_t i : null_cols) {
            builder.AccumulateNumericBlocked(*numeric_ptrs[i], *panel, rb,
                                             re, target[offset + i], scratch);
          }
          if (ones_rider) {
            builder.AccumulateSharedOnes(*panel, rb, re, shared_ones[p]);
          }
          cache.Release(b);
        }
      }
    };
    pool.ParallelFor(0, parts * num_cb, 1, run_tiles);
    // Install the shared ones totals into every fully-valid column's
    // (partial) sketch — bit-identical to self-accumulation, and done
    // before merging so partials carry complete accumulators.
    for (size_t p = 0; p < parts; ++p) {
      auto [row_begin, row_end] = ranges[p];
      if (row_begin >= row_end || !has_fully_valid) continue;
      size_t offset = parts == 1 ? 0 : p * n_num;
      for (size_t i = 0; i < n_num; ++i) {
        if (numeric_ptrs[i]->null_count() != 0) continue;
        builder.ApplySharedOnes(shared_ones[p], target[offset + i]);
      }
    }
    // The cache dies with this scope; snapshot its telemetry so the
    // engine can surface panel hit/regeneration counts later.
    result.panel_stats = cache.stats();
    if (parts > 1) {
      auto merge_columns = [&](size_t col_begin, size_t col_end) {
        for (size_t i = col_begin; i < col_end; ++i) {
          for (size_t p = 0; p < parts; ++p) {
            result.numeric[i].Merge(partials[p * n_num + i]);
          }
        }
      };
      pool.ParallelFor(0, n_num, BlockGrain(n_num, pool), merge_columns);
    }
  }

  // Categorical columns: per-column passes (dictionary codes batch cheaply),
  // one parallel work item per column.
  result.categorical.reserve(cat_cols.size());
  for (size_t i = 0; i < cat_cols.size(); ++i) {
    result.categorical.push_back(builder.MakeCategoricalSketch());
  }
  auto run_categorical = [&](size_t col_begin, size_t col_end) {
    for (size_t i = col_begin; i < col_end; ++i) {
      const auto& categorical = table.column(cat_cols[i]).AsCategorical();
      CategoricalColumnSketch& merged = result.categorical[i];
      for (size_t p = 0; p < parts; ++p) {
        auto [begin, end] = ranges[p];
        if (parts == 1) {
          builder.AccumulateCategorical(categorical, begin, end, merged);
        } else {
          CategoricalColumnSketch partial = builder.MakeCategoricalSketch();
          builder.AccumulateCategorical(categorical, begin, end, partial);
          merged.Merge(partial);
        }
      }
    }
  };
  pool.ParallelFor(0, cat_cols.size(), 1, run_categorical);
  return result;
}

}  // namespace

const NumericColumnSketch& TableProfile::numeric_sketch(size_t column) const {
  auto it = numeric_.find(column);
  FORESIGHT_CHECK_MSG(it != numeric_.end(), "no numeric sketch for column");
  return it->second;
}

const CategoricalColumnSketch& TableProfile::categorical_sketch(
    size_t column) const {
  auto it = categorical_.find(column);
  FORESIGHT_CHECK_MSG(it != categorical_.end(),
                      "no categorical sketch for column");
  return it->second;
}

const ColumnSample& TableProfile::sample(size_t column) const {
  FORESIGHT_CHECK_MSG(column < samples_.size(), "no sample for column");
  return samples_[column];
}

const std::vector<double>& TableProfile::sampled_numeric(size_t column) const {
  FORESIGHT_CHECK_MSG(has_numeric_sketch(column),
                      "no sampled values for column");
  return sample(column).values;
}

const std::vector<double>& TableProfile::sampled_ranks(size_t column) const {
  FORESIGHT_CHECK_MSG(has_numeric_sketch(column),
                      "no sampled ranks for column");
  return sample(column).ranks;
}

const std::vector<int32_t>& TableProfile::sampled_codes(size_t column) const {
  FORESIGHT_CHECK_MSG(has_categorical_sketch(column),
                      "no sampled codes for column");
  return sample(column).codes;
}

size_t TableProfile::EstimateMemoryBytes() const {
  size_t bytes = 0;
  // determinism-ok: integer sums are order-independent.
  for (const auto& [col, sketch] : numeric_) {
    bytes += sketch.signature.words().size() * sizeof(uint64_t);
    bytes += sketch.hyperplane_acc.dot.size() * 2 * sizeof(double);
    bytes += (sketch.projection.components().size() +
              sketch.projection_ones.components().size() +
              sketch.centered_projection.components().size()) *
             sizeof(double);
    bytes += sketch.quantiles.RetainedItems() * sizeof(double);
    bytes += sketch.quantile_view.MemoryBytes();
    bytes += sizeof(RunningMoments);
  }
  // determinism-ok: integer sums are order-independent.
  for (const auto& [col, sketch] : categorical_) {
    bytes += sketch.entropy.registers().size() * sizeof(double);
    bytes += sketch.heavy_hitters.num_monitored() * 64;  // rough per-counter
  }
  for (const ColumnSample& sample : samples_) {
    bytes += (sample.values.size() + sample.ranks.size()) * sizeof(double);
    bytes += sample.codes.size() * sizeof(int32_t);
    bytes += sample.bins.ids.size() * sizeof(uint8_t);
    bytes += sample.bins.counts.size() * sizeof(double);
  }
  bytes += sampled_rows_.size() * sizeof(size_t);
  return bytes;
}

JsonValue TableProfile::ToJson() const {
  JsonValue json = JsonValue::Object();
  json.Set("format", "foresight.profile");
  json.Set("version", kProfileVersion);
  json.Set("num_rows", table_->num_rows());
  json.Set("config", SketchConfigToJson(config_));
  json.Set("preprocess_seconds", preprocess_seconds_);
  json.Set("sampled_rows",
           JsonValue::PackedNumberArray(std::vector<double>(
               sampled_rows_.begin(), sampled_rows_.end())));
  // Emit sketch maps in ascending column order: serialized profiles must be
  // byte-identical across runs and platforms, so hash order must not leak
  // into the document.
  std::vector<size_t> numeric_cols;
  numeric_cols.reserve(numeric_.size());
  // determinism-ok: key collection, sorted before use.
  for (const auto& [column, sketch] : numeric_) numeric_cols.push_back(column);
  std::sort(numeric_cols.begin(), numeric_cols.end());
  // Persist the non-null sample midranks so LoadProfile can skip the
  // per-column sort; NaN slots are dropped (they are re-derived from the
  // table's null mask, and NaN is not representable in text JSON).
  JsonValue sample_ranks = JsonValue::Object();
  for (size_t column : numeric_cols) {
    const std::vector<double>& ranks = samples_[column].ranks;
    std::vector<double> present;
    present.reserve(ranks.size());
    for (double rank : ranks) {
      if (!std::isnan(rank)) present.push_back(rank);
    }
    sample_ranks.Set(table_->column_name(column),
                     JsonValue::PackedNumberArray(std::move(present)));
  }
  json.Set("sample_ranks", std::move(sample_ranks));
  JsonValue numeric = JsonValue::Object();
  for (size_t column : numeric_cols) {
    numeric.Set(table_->column_name(column),
                NumericSketchToJson(numeric_.at(column)));
  }
  json.Set("numeric", std::move(numeric));
  std::vector<size_t> categorical_cols;
  categorical_cols.reserve(categorical_.size());
  // determinism-ok: key collection, sorted before use.
  for (const auto& [column, sketch] : categorical_) {
    categorical_cols.push_back(column);
  }
  std::sort(categorical_cols.begin(), categorical_cols.end());
  JsonValue categorical = JsonValue::Object();
  for (size_t column : categorical_cols) {
    categorical.Set(table_->column_name(column),
                    CategoricalSketchToJson(categorical_.at(column)));
  }
  json.Set("categorical", std::move(categorical));
  return json;
}

StatusOr<TableProfile> Preprocessor::LoadProfile(const DataTable& table,
                                                 const JsonValue& json,
                                                 ThreadPool* pool) {
  // A one-thread pool spawns nothing and runs every ParallelFor inline.
  std::optional<ThreadPool> serial;
  ThreadPool& workers = pool != nullptr ? *pool : serial.emplace(1);
  const JsonValue* format = json.Get("format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != "foresight.profile") {
    return Status::ParseError("not a foresight profile document");
  }
  const JsonValue* version = json.Get("version");
  if (version == nullptr || !version->is_number() ||
      version->as_number() != kProfileVersion) {
    return Status::InvalidArgument("unsupported profile document version");
  }
  const JsonValue* num_rows = json.Get("num_rows");
  if (num_rows == nullptr || !num_rows->is_number() ||
      SizeFromJsonNumber(num_rows->as_number()) != table.num_rows()) {
    return Status::InvalidArgument(
        "profile row count does not match the table");
  }
  const JsonValue* config_json = json.Get("config");
  if (config_json == nullptr) return Status::ParseError("missing config");

  TableProfile profile;
  profile.table_ = &table;
  FORESIGHT_ASSIGN_OR_RETURN(profile.config_,
                             SketchConfigFromJson(*config_json));
  profile.builder_ =
      std::make_unique<BundleBuilder>(profile.config_, table.num_rows());
  const BundleBuilder& builder = *profile.builder_;
  if (const JsonValue* seconds = json.Get("preprocess_seconds");
      seconds != nullptr && seconds->is_number()) {
    profile.preprocess_seconds_ = seconds->as_number();
  }

  const JsonValue* rows = json.Get("sampled_rows");
  if (rows == nullptr || !rows->is_array()) {
    return Status::ParseError("missing sampled_rows");
  }
  auto append_row = [&](double value) -> Status {
    std::optional<size_t> row = SizeFromJsonNumber(value);
    if (!row.has_value()) {
      return Status::ParseError("sampled_rows entries must be whole numbers");
    }
    if (*row >= table.num_rows()) {
      return Status::OutOfRange("sampled row out of range");
    }
    profile.sampled_rows_.push_back(*row);
    return Status::OK();
  };
  if (const std::vector<double>* packed = rows->packed_numbers()) {
    for (double value : *packed) {
      FORESIGHT_RETURN_IF_ERROR(append_row(value));
    }
  } else {
    for (size_t i = 0; i < rows->size(); ++i) {
      if (!rows->at(i).is_number()) {
        return Status::ParseError("sampled_rows entries must be numbers");
      }
      FORESIGHT_RETURN_IF_ERROR(append_row(rows->at(i).as_number()));
    }
  }

  const JsonValue* numeric = json.Get("numeric");
  if (numeric == nullptr || !numeric->is_object()) {
    return Status::ParseError("missing numeric sketch map");
  }
  for (const auto& [name, sketch_json] : numeric->items()) {
    FORESIGHT_ASSIGN_OR_RETURN(size_t column, table.ColumnIndex(name));
    if (table.column(column).type() != ColumnType::kNumeric) {
      return Status::InvalidArgument("column '" + name +
                                     "' is not numeric in this table");
    }
    FORESIGHT_ASSIGN_OR_RETURN(NumericColumnSketch sketch,
                               NumericSketchFromJson(sketch_json));
    if (!builder.MatchesGeometry(sketch)) return GeometryError(name);
    builder.FinalizeNumeric(sketch);
    profile.numeric_.emplace(column, std::move(sketch));
  }
  const JsonValue* categorical = json.Get("categorical");
  if (categorical == nullptr || !categorical->is_object()) {
    return Status::ParseError("missing categorical sketch map");
  }
  for (const auto& [name, sketch_json] : categorical->items()) {
    FORESIGHT_ASSIGN_OR_RETURN(size_t column, table.ColumnIndex(name));
    if (table.column(column).type() != ColumnType::kCategorical) {
      return Status::InvalidArgument("column '" + name +
                                     "' is not categorical in this table");
    }
    FORESIGHT_ASSIGN_OR_RETURN(CategoricalColumnSketch sketch,
                               CategoricalSketchFromJson(sketch_json));
    if (!builder.MatchesGeometry(sketch)) return GeometryError(name);
    profile.categorical_.emplace(column, std::move(sketch));
  }
  // Every column must be covered.
  for (size_t c = 0; c < table.num_columns(); ++c) {
    bool covered = table.column(c).type() == ColumnType::kNumeric
                       ? profile.numeric_.count(c) > 0
                       : profile.categorical_.count(c) > 0;
    if (!covered) {
      return Status::InvalidArgument("profile missing sketch for column '" +
                                     table.column_name(c) + "'");
    }
  }

  // Persisted midranks let the load path skip the per-column sort that
  // dominates rematerialization; documents without them (older docs, text
  // round trips) just recompute.
  std::unordered_map<size_t, std::vector<double>> preset_ranks;
  if (const JsonValue* ranks_json = json.Get("sample_ranks");
      ranks_json != nullptr) {
    if (!ranks_json->is_object()) {
      return Status::ParseError("sample_ranks must be an object");
    }
    const double max_rank = static_cast<double>(profile.sampled_rows_.size());
    for (const auto& [name, column_ranks] : ranks_json->items()) {
      FORESIGHT_ASSIGN_OR_RETURN(size_t column, table.ColumnIndex(name));
      if (table.column(column).type() != ColumnType::kNumeric) {
        return Status::InvalidArgument("column '" + name +
                                       "' is not numeric in this table");
      }
      if (!column_ranks.is_array()) {
        return Status::ParseError("sample_ranks entries must be arrays");
      }
      std::vector<double> ranks;
      auto append_rank = [&](double value) -> Status {
        if (!(value >= 1.0) || value > max_rank) {
          return Status::OutOfRange("sample rank out of range");
        }
        ranks.push_back(value);
        return Status::OK();
      };
      if (const std::vector<double>* packed = column_ranks.packed_numbers()) {
        ranks.reserve(packed->size());
        for (double value : *packed) {
          FORESIGHT_RETURN_IF_ERROR(append_rank(value));
        }
      } else {
        ranks.reserve(column_ranks.size());
        for (size_t i = 0; i < column_ranks.size(); ++i) {
          if (!column_ranks.at(i).is_number()) {
            return Status::ParseError("sample_ranks entries must be numbers");
          }
          FORESIGHT_RETURN_IF_ERROR(append_rank(column_ranks.at(i).as_number()));
        }
      }
      preset_ranks.emplace(column, std::move(ranks));
    }
  }

  MaterializeSamples(table, profile, workers,
                     preset_ranks.empty() ? nullptr : &preset_ranks);
  return profile;
}

StatusOr<TableProfile> Preprocessor::Profile(const DataTable& table,
                                             const PreprocessOptions& options,
                                             ThreadPool* pool) {
  // A one-thread pool spawns nothing and runs every ParallelFor inline.
  std::optional<ThreadPool> serial;
  ThreadPool& workers = pool != nullptr ? *pool : serial.emplace(1);
  if (table.num_columns() == 0) {
    return Status::InvalidArgument("cannot profile a table with no columns");
  }
  FORESIGHT_ASSIGN_OR_RETURN(RowRanges ranges,
                             ResolveRanges(table.num_rows(), options));
  // determinism-ok: preprocess_seconds is reporting-only telemetry
  WallTimer timer;
  TableProfile profile;
  profile.table_ = &table;
  profile.config_ = options.sketch;
  profile.builder_ =
      std::make_unique<BundleBuilder>(options.sketch, table.num_rows());
  const BundleBuilder& builder = *profile.builder_;

  // Numeric columns: the paper's single-pass O(|B| * n * k) preprocessing
  // (§3); categorical columns ride the same pass. See BuildColumnSketches
  // for the tiling and bit-identity story.
  std::vector<size_t> numeric_cols = table.NumericColumnIndices();
  std::vector<size_t> cat_cols = table.CategoricalColumnIndices();
  ColumnSketchSet sketches = BuildColumnSketches(
      table, builder, numeric_cols, cat_cols, ranges, options, workers);
  profile.panel_stats_ = sketches.panel_stats;

  size_t n_num = numeric_cols.size();
  auto finalize_columns = [&](size_t col_begin, size_t col_end) {
    for (size_t i = col_begin; i < col_end; ++i) {
      builder.FinalizeNumeric(sketches.numeric[i]);
    }
  };
  workers.ParallelFor(0, n_num, BlockGrain(n_num, workers), finalize_columns);
  for (size_t i = 0; i < n_num; ++i) {
    profile.numeric_.emplace(numeric_cols[i], std::move(sketches.numeric[i]));
  }
  for (size_t i = 0; i < cat_cols.size(); ++i) {
    profile.categorical_.emplace(cat_cols[i],
                                 std::move(sketches.categorical[i]));
  }

  profile.sampled_rows_ = ComputeSampledRows(table.num_rows(), options);
  MaterializeSamples(table, profile, workers);

  profile.preprocess_seconds_ = timer.ElapsedSeconds();
  return profile;
}

Status Preprocessor::AppendToProfile(const DataTable& table, size_t old_rows,
                                     const PreprocessOptions& options,
                                     TableProfile* profile, ThreadPool* pool) {
  FORESIGHT_CHECK(profile != nullptr);
  // A one-thread pool spawns nothing and runs every ParallelFor inline.
  std::optional<ThreadPool> serial;
  ThreadPool& workers = pool != nullptr ? *pool : serial.emplace(1);
  if (profile->table_ != &table) {
    return Status::InvalidArgument(
        "AppendToProfile requires the table the profile was built from");
  }
  size_t n = table.num_rows();
  if (old_rows > n) {
    return Status::InvalidArgument(
        "old_rows exceeds the table's current row count");
  }
  if (old_rows == n) return Status::OK();
  // determinism-ok: preprocess_seconds is reporting-only telemetry
  WallTimer timer;
  // The delta must use the profile's own sketch geometry or the merge below
  // would be meaningless; only the ingestion knobs come from `options`.
  auto builder = std::make_unique<BundleBuilder>(profile->config_, n);
  if (profile->builder_ == nullptr ||
      builder->hyperplane_bits() != profile->builder_->hyperplane_bits()) {
    return Status::FailedPrecondition(
        "auto-resolved hyperplane width changed at the new row count; "
        "sketches of different widths cannot merge — rebuild the profile");
  }
  // Validate coverage before touching anything: every error path must leave
  // the profile exactly as it was.
  std::vector<size_t> numeric_cols = table.NumericColumnIndices();
  std::vector<size_t> cat_cols = table.CategoricalColumnIndices();
  for (size_t c : numeric_cols) {
    if (!profile->has_numeric_sketch(c)) {
      return Status::InvalidArgument("profile missing numeric sketch for '" +
                                     table.column_name(c) + "'");
    }
  }
  for (size_t c : cat_cols) {
    if (!profile->has_categorical_sketch(c)) {
      return Status::InvalidArgument(
          "profile missing categorical sketch for '" + table.column_name(c) +
          "'");
    }
  }

  // Sketch ONLY the appended rows through the shared machinery, then merge
  // each delta into the existing column sketch — the same
  // adopt-or-merge-in-partition-order sequence a from-scratch build with
  // partition_boundaries = {old_rows, n} performs, which is exactly why the
  // two are bit-identical (see the contract in profile.h).
  RowRanges delta_range{{old_rows, n}};
  ColumnSketchSet delta = BuildColumnSketches(
      table, *builder, numeric_cols, cat_cols, delta_range, options, workers);

  size_t n_num = numeric_cols.size();
  auto merge_numeric = [&](size_t col_begin, size_t col_end) {
    for (size_t i = col_begin; i < col_end; ++i) {
      NumericColumnSketch& sketch = profile->numeric_.at(numeric_cols[i]);
      sketch.Merge(delta.numeric[i]);
      builder->FinalizeNumeric(sketch);
    }
  };
  workers.ParallelFor(0, n_num, BlockGrain(n_num, workers), merge_numeric);
  for (size_t i = 0; i < cat_cols.size(); ++i) {
    profile->categorical_.at(cat_cols[i]).Merge(delta.categorical[i]);
  }

  // The shared row sample depends only on (seed, n, sample size), not on how
  // the rows arrived: recompute and rematerialize it outright.
  profile->sampled_rows_ = ComputeSampledRows(n, options);
  MaterializeSamples(table, *profile, workers);

  profile->builder_ = std::move(builder);
  profile->panel_stats_ = delta.panel_stats;
  profile->preprocess_seconds_ += timer.ElapsedSeconds();
  return Status::OK();
}

void Preprocessor::MaterializeSamples(
    const DataTable& table, TableProfile& profile, ThreadPool& pool,
    const std::unordered_map<size_t, std::vector<double>>*
        preset_present_ranks) {
  // Each column's sample is a pure function of that column and the sampled
  // rows, so building them in parallel gives the serial result. Rebuilding in
  // place frees an append's old sample before the new one grows.
  std::vector<ColumnSample>& samples = profile.samples_;
  samples.assign(table.num_columns(), ColumnSample());
  auto materialize_columns = [&](size_t col_begin, size_t col_end) {
    for (size_t c = col_begin; c < col_end; ++c) {
      const Column& column = table.column(c);
      ColumnSample& sample = samples[c];
      if (column.type() == ColumnType::kNumeric) {
        const auto& numeric = column.AsNumeric();
        std::vector<double>& values = sample.values;
        values.reserve(profile.sampled_rows_.size());
        size_t present_count = 0;
        for (size_t row : profile.sampled_rows_) {
          if (numeric.is_valid(row)) {
            values.push_back(numeric.value(row));
            ++present_count;
          } else {
            values.push_back(std::numeric_limits<double>::quiet_NaN());
          }
        }
        // Midranks of the non-null sample, NaN positions preserved. A preset
        // rank vector (from a snapshot) replaces the sort when its length
        // matches the non-null count; otherwise the canonical recompute runs,
        // so a stale preset can never change results.
        const std::vector<double>* preset = nullptr;
        if (preset_present_ranks != nullptr) {
          auto it = preset_present_ranks->find(c);
          if (it != preset_present_ranks->end() &&
              it->second.size() == present_count) {
            preset = &it->second;
          }
        }
        std::vector<double> present_ranks;
        if (preset == nullptr) {
          std::vector<double> present;
          present.reserve(present_count);
          for (double v : values) {
            if (!std::isnan(v)) present.push_back(v);
          }
          present_ranks = FractionalRanks(present);
          preset = &present_ranks;
        }
        std::vector<double>& ranks = sample.ranks;
        ranks.resize(values.size());
        size_t next = 0;
        for (size_t i = 0; i < values.size(); ++i) {
          ranks[i] = std::isnan(values[i])
                         ? std::numeric_limits<double>::quiet_NaN()
                         : (*preset)[next++];
        }
        sample.dense = present_count == values.size();
        if (sample.dense) {
          sample.bins = BinEquiWidth(values);
          if (!ranks.empty()) {
            sample.rank_moments = ComputeCenteredMoments(ranks);
          }
        }
      } else {
        const auto& categorical = column.AsCategorical();
        std::vector<int32_t>& codes = sample.codes;
        codes.reserve(profile.sampled_rows_.size());
        for (size_t row : profile.sampled_rows_) {
          codes.push_back(categorical.code(row));
        }
      }
    }
  };
  pool.ParallelFor(0, table.num_columns(), 1, materialize_columns);
}

}  // namespace foresight
