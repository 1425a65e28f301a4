#include "sketch/bundle.h"

#include <algorithm>
#include <cmath>

#include "sketch/ingest_kernels.h"
#include "util/logging.h"

namespace foresight {

size_t SketchConfig::ResolveHyperplaneBits(size_t n_rows) const {
  if (hyperplane_bits > 0) return hyperplane_bits;
  double log2n = std::log2(static_cast<double>(std::max<size_t>(2, n_rows)));
  size_t rounded = static_cast<size_t>(std::ceil(log2n * log2n / 64.0)) * 64;
  return std::max<size_t>(64, rounded);
}

void NumericColumnSketch::Merge(const NumericColumnSketch& other) {
  // Bundle-level short-circuits: a never-updated operand is an exact
  // identity, and merging INTO a never-updated sketch adopts the operand
  // byte-for-byte. These matter for the append path's bit-identity contract:
  // builder-made sketches carry full-size zero dot/projection vectors, so the
  // member-wise path below would flow the first partition through element-wise
  // FP adds against zeros — and `0.0 + -0.0 == +0.0` silently drops the sign
  // of negative zeros accumulated from zero-valued rows. Adoption also
  // carries the KLL state (including serialized RNG state) across unchanged.
  if (other.moments.count() == 0 && other.quantiles.count() == 0) return;
  if (moments.count() == 0 && quantiles.count() == 0) {
    *this = other;
  } else {
    moments.Merge(other.moments);
    quantiles.Merge(other.quantiles);
    hyperplane_acc.Merge(other.hyperplane_acc);
    projection.Merge(other.projection);
    projection_ones.Merge(other.projection_ones);
  }
  // Derived caches: cleared so a stale one is never read (FinalizeNumeric
  // rebuilds them).
  centered_projection = ProjectionSketch();
  quantile_view = KllSortedView();
}

ProjectionSketch NumericColumnSketch::CenteredProjection() const {
  ProjectionSketch centered = projection;
  double mean = moments.mean();
  std::vector<double>& c = centered.mutable_components();
  const std::vector<double>& ones = projection_ones.components();
  FORESIGHT_CHECK(c.size() == ones.size());
  for (size_t i = 0; i < c.size(); ++i) c[i] -= mean * ones[i];
  return centered;
}

void CategoricalColumnSketch::Merge(const CategoricalColumnSketch& other) {
  // Same short-circuits as NumericColumnSketch::Merge: identity on an empty
  // operand, byte-for-byte adoption into an empty receiver.
  if (other.heavy_hitters.total_count() == 0 &&
      other.entropy.total_count() == 0) {
    return;
  }
  if (heavy_hitters.total_count() == 0 && entropy.total_count() == 0) {
    *this = other;
    return;
  }
  heavy_hitters.Merge(other.heavy_hitters);
  entropy.Merge(other.entropy);
}

BundleBuilder::BundleBuilder(const SketchConfig& config, size_t n_rows)
    : config_(config),
      hyperplane_bits_(config.ResolveHyperplaneBits(n_rows)),
      hyperplane_sketcher_(hyperplane_bits_, config.seed),
      projection_sketcher_(config.projection_dims, config.seed ^ 0xA5A5A5A5ULL),
      projection_scale_(1.0 /
                        std::sqrt(static_cast<double>(config.projection_dims))) {}

NumericColumnSketch BundleBuilder::MakeNumericSketch() const {
  NumericColumnSketch sketch;
  sketch.quantiles = KllSketch(config_.kll_k, config_.seed ^ 0x1111);
  sketch.hyperplane_acc.dot.assign(hyperplane_bits_, 0.0);
  sketch.hyperplane_acc.ones_dot.assign(hyperplane_bits_, 0.0);
  sketch.projection = ProjectionSketch(config_.projection_dims);
  sketch.projection_ones = ProjectionSketch(config_.projection_dims);
  return sketch;
}

CategoricalColumnSketch BundleBuilder::MakeCategoricalSketch() const {
  CategoricalColumnSketch sketch;
  sketch.heavy_hitters = SpaceSavingSketch(config_.spacesaving_capacity);
  sketch.entropy = EntropySketch(config_.entropy_k, config_.seed ^ 0x4444);
  return sketch;
}

bool BundleBuilder::MatchesGeometry(const NumericColumnSketch& sketch) const {
  // Widths compare without building anything. Past these tests the empty
  // sketch allocates no more than the checked one holds, however large the
  // config.
  if (sketch.hyperplane_acc.dot.size() != hyperplane_bits_ ||
      sketch.hyperplane_acc.ones_dot.size() != hyperplane_bits_ ||
      sketch.projection.k() != config_.projection_dims ||
      sketch.projection_ones.k() != config_.projection_dims) {
    return false;
  }
  const NumericColumnSketch empty = MakeNumericSketch();
  return sketch.quantiles.k_param() == empty.quantiles.k_param();
}

bool BundleBuilder::MatchesGeometry(
    const CategoricalColumnSketch& sketch) const {
  // The factory never sizes an entropy sketch below the config's k; past
  // this test the empty sketch holds no more registers than the checked one.
  if (sketch.entropy.k() < config_.entropy_k) return false;
  const CategoricalColumnSketch empty = MakeCategoricalSketch();
  return sketch.heavy_hitters.capacity() == empty.heavy_hitters.capacity() &&
         sketch.entropy.k() == empty.entropy.k() &&
         sketch.entropy.seed() == empty.entropy.seed();
}

void BundleBuilder::AccumulateNumeric(const NumericColumn& column,
                                      size_t row_begin, size_t row_end,
                                      NumericColumnSketch& sketch,
                                      IngestScratch* scratch) const {
  FORESIGHT_CHECK(row_end <= column.size());
  // Null rows are skipped entirely: in sketch space this is mean-imputation
  // (a null contributes 0 to the centered dot products).
  std::vector<double> local_hyperplane;
  std::vector<double> local_projection;
  std::vector<double>& hyperplane_row =
      scratch ? scratch->hyperplane_row : local_hyperplane;
  std::vector<double>& projection_row =
      scratch ? scratch->projection_row : local_projection;
  for (size_t row = row_begin; row < row_end; ++row) {
    if (!column.is_valid(row)) continue;
    hyperplane_sketcher_.GenerateRowHyperplanes(row, hyperplane_row);
    projection_sketcher_.GenerateRowComponents(row, projection_row);
    AccumulateRowValue(column.value(row), hyperplane_row, projection_row,
                       sketch);
  }
}

void BundleBuilder::AccumulateNumericBlocked(const NumericColumn& column,
                                             const RandomPanelBlock& panel,
                                             size_t row_begin, size_t row_end,
                                             NumericColumnSketch& sketch,
                                             IngestScratch& scratch) const {
  FORESIGHT_CHECK(row_end <= column.size());
  FORESIGHT_CHECK(row_begin >= panel.row_begin &&
                  row_end <= panel.row_begin + panel.num_rows);
  FORESIGHT_CHECK(panel.hyperplane_k == hyperplane_bits_);
  FORESIGHT_CHECK(panel.projection_k == config_.projection_dims);
  FORESIGHT_DCHECK(sketch.hyperplane_acc.dot.size() == hyperplane_bits_);
  FORESIGHT_DCHECK(sketch.projection.k() == config_.projection_dims);
  // Compact the valid rows; value sketches are fed inline so they see values
  // in the same row order as the row-at-a-time path.
  scratch.values.clear();
  scratch.local_rows.clear();
  for (size_t row = row_begin; row < row_end; ++row) {
    if (!column.is_valid(row)) continue;
    const double v = column.value(row);
    sketch.moments.Add(v);
    sketch.quantiles.Update(v);
    scratch.values.push_back(v);
    scratch.local_rows.push_back(static_cast<uint32_t>(row - panel.row_begin));
  }
  if (scratch.values.empty()) return;
  const double* values = scratch.values.data();
  const uint32_t* local_rows = scratch.local_rows.data();
  const size_t count = scratch.values.size();
  // Raw values enter the hyperplane accumulators unscaled (scale 1.0 is
  // exact); the projection's scaled value is rounded once per row, exactly
  // as AccumulateRowValue does.
  ingest_kernels::GatherValuesAxpy(panel.hyperplane.data(), local_rows, values,
                                   count, hyperplane_bits_, 1.0,
                                   sketch.hyperplane_acc.dot.data());
  ingest_kernels::GatherValuesAxpy(
      panel.projection.data(), local_rows, values, count,
      config_.projection_dims, projection_scale_,
      sketch.projection.mutable_components().data());
  ingest_kernels::GatherOnesAxpy(panel.hyperplane.data(), local_rows, count,
                                 hyperplane_bits_, 1.0,
                                 sketch.hyperplane_acc.ones_dot.data());
  ingest_kernels::GatherOnesAxpy(
      panel.projection.data(), local_rows, count, config_.projection_dims,
      projection_scale_, sketch.projection_ones.mutable_components().data());
}

void BundleBuilder::AccumulateNumericBlockedGroup(
    const NumericColumn* const* columns, NumericColumnSketch* const* sketches,
    size_t num_columns, const RandomPanelBlock& panel, size_t row_begin,
    size_t row_end) const {
  FORESIGHT_CHECK(panel.hyperplane_k == hyperplane_bits_);
  FORESIGHT_CHECK(panel.projection_k == config_.projection_dims);
  FORESIGHT_CHECK(row_begin >= panel.row_begin &&
                  row_end <= panel.row_begin + panel.num_rows);
  if (row_begin >= row_end || num_columns == 0) return;
  const size_t local_begin = row_begin - panel.row_begin;
  const size_t count = row_end - row_begin;
  // Four columns per kernel call: the group's hyperplane accumulators
  // (4 x k doubles) and each four-row panel slab stay L1-resident together.
  constexpr size_t kGroup = 4;
  const double* values[kGroup];
  double* hyperplane_accs[kGroup];
  double* projection_accs[kGroup];
  for (size_t g = 0; g < num_columns; g += kGroup) {
    const size_t gn = std::min(kGroup, num_columns - g);
    for (size_t c = 0; c < gn; ++c) {
      const NumericColumn& column = *columns[g + c];
      FORESIGHT_CHECK(column.null_count() == 0);
      FORESIGHT_CHECK(row_end <= column.size());
      NumericColumnSketch& sketch = *sketches[g + c];
      FORESIGHT_DCHECK(sketch.hyperplane_acc.dot.size() == hyperplane_bits_);
      FORESIGHT_DCHECK(sketch.projection.k() == config_.projection_dims);
      const double* v = column.values().data() + row_begin;
      for (size_t j = 0; j < count; ++j) {
        const double value = v[j];
        sketch.moments.Add(value);
        sketch.quantiles.Update(value);
      }
      values[c] = v;
      hyperplane_accs[c] = sketch.hyperplane_acc.dot.data();
      projection_accs[c] = sketch.projection.mutable_components().data();
    }
    ingest_kernels::DenseValuesAxpyGroup(panel.hyperplane_row(local_begin),
                                         values, gn, count, hyperplane_bits_,
                                         1.0, hyperplane_accs);
    ingest_kernels::DenseValuesAxpyGroup(
        panel.projection_row(local_begin), values, gn, count,
        config_.projection_dims, projection_scale_, projection_accs);
  }
}

void BundleBuilder::AccumulateSharedOnes(const RandomPanelBlock& panel,
                                         size_t row_begin, size_t row_end,
                                         SharedOnes& ones) const {
  FORESIGHT_CHECK(row_begin >= panel.row_begin &&
                  row_end <= panel.row_begin + panel.num_rows);
  if (ones.hyperplane_ones.empty()) {
    ones.hyperplane_ones.assign(hyperplane_bits_, 0.0);
    ones.projection_ones.assign(config_.projection_dims, 0.0);
  }
  if (row_begin >= row_end) return;
  const size_t local_begin = row_begin - panel.row_begin;
  const size_t count = row_end - row_begin;
  ingest_kernels::DenseOnesAxpy(panel.hyperplane_row(local_begin), count,
                                hyperplane_bits_, 1.0,
                                ones.hyperplane_ones.data());
  ingest_kernels::DenseOnesAxpy(panel.projection_row(local_begin), count,
                                config_.projection_dims, projection_scale_,
                                ones.projection_ones.data());
}

void BundleBuilder::ApplySharedOnes(const SharedOnes& ones,
                                    NumericColumnSketch& sketch) const {
  // Overwrites: the target's ones accumulators must still be all-zero (the
  // grouped kernel leaves them untouched). The copy equals replaying the same
  // additions from zero, so the result is bit-identical to self-accumulation.
  FORESIGHT_CHECK(ones.hyperplane_ones.size() == hyperplane_bits_);
  FORESIGHT_CHECK(ones.projection_ones.size() == config_.projection_dims);
  sketch.hyperplane_acc.ones_dot = ones.hyperplane_ones;
  sketch.projection_ones.mutable_components() = ones.projection_ones;
}

void BundleBuilder::AccumulateRowValue(
    double value, const std::vector<double>& hyperplane_row,
    const std::vector<double>& projection_row,
    NumericColumnSketch& sketch) const {
  FORESIGHT_DCHECK(hyperplane_row.size() == hyperplane_bits_);
  FORESIGHT_DCHECK(projection_row.size() == config_.projection_dims);
  sketch.moments.Add(value);
  sketch.quantiles.Update(value);
  double* dot = sketch.hyperplane_acc.dot.data();
  double* ones_dot = sketch.hyperplane_acc.ones_dot.data();
  const double* hp = hyperplane_row.data();
  for (size_t i = 0; i < hyperplane_bits_; ++i) {
    dot[i] += value * hp[i];
    ones_dot[i] += hp[i];
  }
  double scaled = value * projection_scale_;
  std::vector<double>& proj = sketch.projection.mutable_components();
  std::vector<double>& ones = sketch.projection_ones.mutable_components();
  for (size_t i = 0; i < proj.size(); ++i) {
    proj[i] += scaled * projection_row[i];
    ones[i] += projection_scale_ * projection_row[i];
  }
}

void BundleBuilder::FinalizeNumeric(NumericColumnSketch& sketch) const {
  sketch.signature = hyperplane_sketcher_.Finalize(sketch.hyperplane_acc,
                                                   sketch.moments.mean());
  sketch.centered_projection = sketch.CenteredProjection();
  sketch.quantile_view = sketch.quantiles.SortedView();
}

void BundleBuilder::AccumulateCategorical(const CategoricalColumn& column,
                                          size_t row_begin, size_t row_end,
                                          CategoricalColumnSketch& sketch) const {
  FORESIGHT_CHECK(row_end <= column.size());
  // Dictionary encoding lets us batch: count codes in the range first, then
  // push each distinct value once with its weight. This keeps the O(k)-per-
  // distinct-item entropy sketch cheap while remaining a single data pass.
  std::vector<uint64_t> counts(column.cardinality(), 0);
  for (size_t row = row_begin; row < row_end; ++row) {
    if (!column.is_valid(row)) continue;
    ++counts[static_cast<size_t>(column.code(row))];
  }
  for (size_t code = 0; code < counts.size(); ++code) {
    if (counts[code] == 0) continue;
    const std::string& value =
        column.dictionary_value(static_cast<int32_t>(code));
    sketch.heavy_hitters.Update(value, counts[code]);
    sketch.entropy.Update(value, counts[code]);
  }
}

NumericColumnSketch BundleBuilder::SketchNumeric(
    const NumericColumn& column) const {
  NumericColumnSketch sketch = MakeNumericSketch();
  AccumulateNumeric(column, 0, column.size(), sketch);
  FinalizeNumeric(sketch);
  return sketch;
}

CategoricalColumnSketch BundleBuilder::SketchCategorical(
    const CategoricalColumn& column) const {
  CategoricalColumnSketch sketch = MakeCategoricalSketch();
  AccumulateCategorical(column, 0, column.size(), sketch);
  return sketch;
}

}  // namespace foresight
