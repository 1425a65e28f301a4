// Sketch-merge correctness sweep (the append path's foundation): for every
// sketch type the bundle carries, splitting a stream at {0, 1, n/2, n-1, n}
// and merging the two partial sketches must agree with the one-pass sketch —
// bitwise where that is provable (integer counter unions, concatenation
// below compaction/capacity, empty-operand adoption), semantically (counts
// exact, estimates within tolerance) where floating-point merge reassociates
// sums.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/column.h"
#include "sketch/bundle.h"
#include "sketch/kll.h"
#include "sketch/serialize.h"
#include "util/json.h"

namespace foresight {
namespace {

constexpr size_t kRows = 96;

/// Bundle geometry for the sweep. Hyperplane width is pinned (auto-resolution
/// depends on n, and the two partitions see different n than the union);
/// KLL capacity exceeds kRows so the "concatenation below capacity" bitwise
/// guarantee is exercised; SpaceSaving capacity exceeds
/// the distinct-item count so counter unions stay exact.
SketchConfig TestConfig() {
  SketchConfig config;
  config.hyperplane_bits = 64;
  config.projection_dims = 8;
  config.kll_k = 200;
  config.spacesaving_capacity = 16;
  config.entropy_k = 32;
  return config;
}

/// Numeric stream with nulls (every 7th row), signed zeros (the -0.0 at row 3
/// is the regression trigger for the +0.0-absorbing merge identity), and a
/// sign-mixed value pattern.
NumericColumn MakeNumericColumn() {
  NumericColumn column;
  for (size_t i = 0; i < kRows; ++i) {
    if (i % 7 == 0) {
      column.AppendNull();
    } else if (i == 3) {
      column.Append(-0.0);
    } else if (i == 4) {
      column.Append(0.0);
    } else {
      double x = static_cast<double>(i);
      column.Append(std::sin(x * 0.37) * 25.0 - 0.03 * x * x);
    }
  }
  return column;
}

/// Categorical stream: 9 distinct items with a skewed distribution and nulls.
CategoricalColumn MakeCategoricalColumn() {
  CategoricalColumn column;
  for (size_t i = 0; i < kRows; ++i) {
    if (i % 5 == 0) {
      column.AppendNull();
    } else {
      column.Append("item_" + std::to_string((i * i) % 9));
    }
  }
  return column;
}

std::vector<size_t> SplitPoints() {
  return {0, 1, kRows / 2, kRows - 1, kRows};
}

NumericColumnSketch SketchNumericRange(const BundleBuilder& builder,
                                       const NumericColumn& column,
                                       size_t begin, size_t end) {
  NumericColumnSketch sketch = builder.MakeNumericSketch();
  builder.AccumulateNumeric(column, begin, end, sketch);
  return sketch;
}

CategoricalColumnSketch SketchCategoricalRange(const BundleBuilder& builder,
                                               const CategoricalColumn& column,
                                               size_t begin, size_t end) {
  CategoricalColumnSketch sketch = builder.MakeCategoricalSketch();
  builder.AccumulateCategorical(column, begin, end, sketch);
  return sketch;
}

TEST(MergeEquivalence, NumericSplitMergeMatchesOnePass) {
  BundleBuilder builder(TestConfig(), kRows);
  NumericColumn column = MakeNumericColumn();
  NumericColumnSketch one_pass = SketchNumericRange(builder, column, 0, kRows);

  for (size_t split : SplitPoints()) {
    SCOPED_TRACE("split=" + std::to_string(split));
    NumericColumnSketch merged = SketchNumericRange(builder, column, 0, split);
    merged.Merge(SketchNumericRange(builder, column, split, kRows));

    // Exact invariants: counts, extrema, stream lengths.
    EXPECT_EQ(merged.moments.count(), one_pass.moments.count());
    EXPECT_EQ(merged.moments.min(), one_pass.moments.min());
    EXPECT_EQ(merged.moments.max(), one_pass.moments.max());
    EXPECT_EQ(merged.quantiles.count(), one_pass.quantiles.count());

    // Moment sums reassociate under merge; values must agree to fp noise.
    EXPECT_NEAR(merged.moments.mean(), one_pass.moments.mean(), 1e-12);
    EXPECT_NEAR(merged.moments.m2(), one_pass.moments.m2(), 1e-8);
    EXPECT_NEAR(merged.moments.skewness(), one_pass.moments.skewness(), 1e-9);

    // Below the first KLL compaction the merge is pure concatenation in
    // stream order: the serialized sketches are byte-identical.
    EXPECT_EQ(KllToJson(merged.quantiles).Dump(),
              KllToJson(one_pass.quantiles).Dump());

    // Dot-product accumulators merge by vector addition; elementwise values
    // must agree to fp noise (bit-identity only holds for empty operands).
    ASSERT_EQ(merged.projection.k(), one_pass.projection.k());
    for (size_t j = 0; j < merged.projection.k(); ++j) {
      EXPECT_NEAR(merged.projection.components()[j],
                  one_pass.projection.components()[j], 1e-9);
    }
  }
}

TEST(MergeEquivalence, CategoricalSplitMergeMatchesOnePass) {
  BundleBuilder builder(TestConfig(), kRows);
  CategoricalColumn column = MakeCategoricalColumn();
  CategoricalColumnSketch one_pass =
      SketchCategoricalRange(builder, column, 0, kRows);

  for (size_t split : SplitPoints()) {
    SCOPED_TRACE("split=" + std::to_string(split));
    CategoricalColumnSketch merged =
        SketchCategoricalRange(builder, column, 0, split);
    merged.Merge(SketchCategoricalRange(builder, column, split, kRows));

    // SpaceSaving counters are bitwise one-pass under any split: all 9
    // distinct items fit in capacity, so the union is an exact frequency
    // table and the counts add exactly.
    EXPECT_EQ(SpaceSavingToJson(merged.heavy_hitters).Dump(),
              SpaceSavingToJson(one_pass.heavy_hitters).Dump());

    // Entropy registers are fp sums (register-wise addition reassociates).
    EXPECT_EQ(merged.entropy.total_count(), one_pass.entropy.total_count());
    ASSERT_EQ(merged.entropy.k(), one_pass.entropy.k());
    for (size_t j = 0; j < merged.entropy.k(); ++j) {
      EXPECT_NEAR(merged.entropy.registers()[j],
                  one_pass.entropy.registers()[j], 1e-9);
    }
    EXPECT_NEAR(merged.entropy.EstimateEntropy(),
                one_pass.entropy.EstimateEntropy(), 1e-9);
  }
}

TEST(MergeEquivalence, EmptyOperandIsBitwiseIdentityForEveryBundleSketch) {
  // The append path's bit-identity contract depends on empty partitions (and
  // all-null columns within a partition) merging as exact no-ops in either
  // direction. Elementwise `x + 0.0` is not an identity for IEEE doubles
  // (-0.0 + 0.0 == +0.0), so the bundles carry explicit short-circuits; this
  // is their regression gate. MakeNumericColumn plants -0.0 at row 3.
  BundleBuilder builder(TestConfig(), kRows);
  NumericColumn numeric = MakeNumericColumn();
  CategoricalColumn categorical = MakeCategoricalColumn();

  NumericColumnSketch full_n = SketchNumericRange(builder, numeric, 0, kRows);
  const std::string expected_n = NumericSketchToJson(full_n).Dump();
  // merge(full, empty) == full.
  NumericColumnSketch lhs_n = SketchNumericRange(builder, numeric, 0, kRows);
  lhs_n.Merge(builder.MakeNumericSketch());
  EXPECT_EQ(NumericSketchToJson(lhs_n).Dump(), expected_n);
  // merge(empty, full) adopts full byte-for-byte.
  NumericColumnSketch rhs_n = builder.MakeNumericSketch();
  rhs_n.Merge(full_n);
  EXPECT_EQ(NumericSketchToJson(rhs_n).Dump(), expected_n);

  CategoricalColumnSketch full_c =
      SketchCategoricalRange(builder, categorical, 0, kRows);
  const std::string expected_c = CategoricalSketchToJson(full_c).Dump();
  CategoricalColumnSketch lhs_c =
      SketchCategoricalRange(builder, categorical, 0, kRows);
  lhs_c.Merge(builder.MakeCategoricalSketch());
  EXPECT_EQ(CategoricalSketchToJson(lhs_c).Dump(), expected_c);
  CategoricalColumnSketch rhs_c = builder.MakeCategoricalSketch();
  rhs_c.Merge(full_c);
  EXPECT_EQ(CategoricalSketchToJson(rhs_c).Dump(), expected_c);
}

TEST(MergeEquivalence, AllNullPartitionMergesAsBitwiseIdentity) {
  // A partition whose rows are all null contributes nothing to any value
  // sketch; merging its (empty) sketch must leave the other side untouched
  // byte-for-byte — this is what keeps appends of sparse batches exact.
  BundleBuilder builder(TestConfig(), kRows);
  NumericColumn all_null;
  for (size_t i = 0; i < kRows; ++i) all_null.AppendNull();
  NumericColumn numeric = MakeNumericColumn();

  NumericColumnSketch null_sketch =
      SketchNumericRange(builder, all_null, 0, kRows);
  NumericColumnSketch data = SketchNumericRange(builder, numeric, 0, kRows);
  const std::string expected = NumericSketchToJson(data).Dump();
  data.Merge(null_sketch);
  EXPECT_EQ(NumericSketchToJson(data).Dump(), expected);

  NumericColumnSketch adopted = SketchNumericRange(builder, all_null, 0, kRows);
  adopted.Merge(SketchNumericRange(builder, numeric, 0, kRows));
  EXPECT_EQ(NumericSketchToJson(adopted).Dump(), expected);
}

TEST(MergeEquivalence, KllMergeAboveCompactionKeepsCountAndRankError) {
  // Past the compaction threshold bitwise equality is off the table (the
  // compactor's coin flips depend on arrival grouping); the merge must still
  // preserve counts and answer quantiles within the sketch's own rank-error
  // bound of the one-pass answer.
  constexpr size_t kBig = 20000;
  KllSketch one_pass(/*k_param=*/64, /*seed=*/7);
  KllSketch left(/*k_param=*/64, /*seed=*/7);
  KllSketch right(/*k_param=*/64, /*seed=*/7);
  for (size_t i = 0; i < kBig; ++i) {
    double v = std::fmod(static_cast<double>(i) * 0.7548776662, 1.0);
    one_pass.Update(v);
    (i < kBig / 3 ? left : right).Update(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), one_pass.count());
  EXPECT_EQ(left.min(), one_pass.min());
  EXPECT_EQ(left.max(), one_pass.max());
  const double eps = 2.0 * one_pass.NormalizedRankError();
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    // Values are ~Uniform(0,1), so rank error translates to value error.
    EXPECT_NEAR(left.Quantile(q), one_pass.Quantile(q), eps + 0.02) << q;
  }
}

TEST(MergeEquivalence, SpaceSavingMergeBeyondCapacityKeepsGuarantees) {
  // Once the union exceeds capacity bitwise equality is out of scope, but
  // the counter-union must keep SpaceSaving's structural guarantees: totals
  // add exactly and every genuinely heavy item stays monitored with a
  // count no smaller than its true frequency.
  SpaceSavingSketch left(/*capacity=*/4);
  SpaceSavingSketch right(/*capacity=*/4);
  for (int i = 0; i < 60; ++i) left.Update("heavy");
  for (int i = 0; i < 8; ++i) left.Update("l" + std::to_string(i % 4));
  for (int i = 0; i < 40; ++i) right.Update("heavy");
  for (int i = 0; i < 8; ++i) right.Update("r" + std::to_string(i % 4));

  left.Merge(right);
  EXPECT_EQ(left.total_count(), 116u);
  EXPECT_LE(left.num_monitored(), 4u);
  EXPECT_GE(left.EstimateCount("heavy"), 100u);
  ASSERT_FALSE(left.TopK(1).empty());
  EXPECT_EQ(left.TopK(1)[0].item, "heavy");
}

}  // namespace
}  // namespace foresight
