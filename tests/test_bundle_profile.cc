// Tests for the per-column sketch bundles and the table preprocessor.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/profile.h"
#include "data/generators.h"
#include "sketch/bundle.h"
#include "stats/correlation.h"
#include "stats/frequency.h"
#include "stats/moments.h"

namespace foresight {
namespace {

SketchConfig SmallConfig() {
  SketchConfig config;
  config.hyperplane_bits = 256;
  config.projection_dims = 64;
  config.entropy_k = 128;
  return config;
}

TEST(SketchConfigTest, AutoHyperplaneBitsFollowLogSquared) {
  SketchConfig config;
  size_t bits_small = config.ResolveHyperplaneBits(1000);
  size_t bits_large = config.ResolveHyperplaneBits(1000000);
  EXPECT_GT(bits_large, bits_small);
  EXPECT_EQ(bits_small % 64, 0u);
  // log2(1e6)^2 ~ 397 -> rounded up to 448.
  EXPECT_NEAR(static_cast<double>(bits_large),
              std::pow(std::log2(1e6), 2.0), 64.0);
  SketchConfig fixed;
  fixed.hyperplane_bits = 128;
  EXPECT_EQ(fixed.ResolveHyperplaneBits(123456), 128u);
}

TEST(BundleBuilderTest, NumericSketchMatchesExactStats) {
  DataTable table = MakeOecdLike(5000, 3);
  BundleBuilder builder(SmallConfig(), table.num_rows());
  const auto& column = table.column(0).AsNumeric();
  NumericColumnSketch sketch = builder.SketchNumeric(column);

  RunningMoments exact = MomentsOf(column.ValidValues());
  EXPECT_EQ(sketch.moments.count(), exact.count());
  EXPECT_NEAR(sketch.moments.mean(), exact.mean(), 1e-9);
  EXPECT_NEAR(sketch.moments.variance(), exact.variance(), 1e-6);
  EXPECT_EQ(sketch.quantiles.count(), exact.count());
  EXPECT_EQ(sketch.signature.num_bits(), 256u);
}

TEST(BundleBuilderTest, PartitionedMergeEqualsSinglePassNumeric) {
  DataTable table = MakeOecdLike(3000, 4);
  BundleBuilder builder(SmallConfig(), table.num_rows());
  const auto& column = table.column(2).AsNumeric();

  NumericColumnSketch full = builder.SketchNumeric(column);

  NumericColumnSketch merged = builder.MakeNumericSketch();
  NumericColumnSketch part1 = builder.MakeNumericSketch();
  NumericColumnSketch part2 = builder.MakeNumericSketch();
  builder.AccumulateNumeric(column, 0, 1100, part1);
  builder.AccumulateNumeric(column, 1100, column.size(), part2);
  merged.Merge(part1);
  merged.Merge(part2);
  builder.FinalizeNumeric(merged);

  // Moments identical; hyperplane signature identical (dot products add).
  EXPECT_NEAR(merged.moments.mean(), full.moments.mean(), 1e-9);
  EXPECT_NEAR(merged.moments.kurtosis(), full.moments.kurtosis(), 1e-6);
  EXPECT_EQ(
      BitSignature::HammingDistance(merged.signature, full.signature), 0u);
  for (size_t i = 0; i < full.projection.k(); ++i) {
    EXPECT_NEAR(merged.projection.components()[i],
                full.projection.components()[i], 1e-9);
  }
  EXPECT_EQ(merged.quantiles.count(), full.quantiles.count());
}

TEST(BundleBuilderTest, CategoricalSketchTracksExactFrequencies) {
  DataTable table = MakeImdbLike(4000, 5);
  size_t rating_index = *table.ColumnIndex("content_rating");
  const auto& column = table.column(rating_index).AsCategorical();
  BundleBuilder builder(SmallConfig(), table.num_rows());
  CategoricalColumnSketch sketch = builder.SketchCategorical(column);

  FrequencyTable exact(column);
  EXPECT_EQ(sketch.heavy_hitters.total_count(), exact.total_count());
  EXPECT_NEAR(sketch.heavy_hitters.RelFreqEstimate(2), exact.RelFreq(2), 0.02);
  EXPECT_NEAR(sketch.entropy.EstimateEntropy(), exact.Entropy(), 0.3);
}

TEST(BundleBuilderTest, CategoricalMergeEqualsSinglePass) {
  DataTable table = MakeImdbLike(3000, 6);
  size_t genre_index = *table.ColumnIndex("genre");
  const auto& column = table.column(genre_index).AsCategorical();
  BundleBuilder builder(SmallConfig(), table.num_rows());

  CategoricalColumnSketch full = builder.SketchCategorical(column);
  CategoricalColumnSketch part1 = builder.MakeCategoricalSketch();
  CategoricalColumnSketch part2 = builder.MakeCategoricalSketch();
  builder.AccumulateCategorical(column, 0, 1500, part1);
  builder.AccumulateCategorical(column, 1500, column.size(), part2);
  part1.Merge(part2);

  EXPECT_EQ(part1.heavy_hitters.total_count(),
            full.heavy_hitters.total_count());
  EXPECT_DOUBLE_EQ(part1.entropy.EstimateEntropy(),
                   full.entropy.EstimateEntropy());
  EXPECT_NEAR(part1.heavy_hitters.RelFreqEstimate(5),
              full.heavy_hitters.RelFreqEstimate(5), 0.02);
}

TEST(BundleBuilderTest, NullsAreSkippedNotCounted) {
  NumericColumn column;
  column.Append(1.0);
  column.AppendNull();
  column.Append(3.0);
  column.AppendNull();
  column.Append(5.0);
  BundleBuilder builder(SmallConfig(), column.size());
  NumericColumnSketch sketch = builder.SketchNumeric(column);
  EXPECT_EQ(sketch.moments.count(), 3u);
  EXPECT_DOUBLE_EQ(sketch.moments.mean(), 3.0);
  EXPECT_EQ(sketch.quantiles.count(), 3u);
}

TEST(PreprocessorTest, ProfilesEveryColumn) {
  DataTable table = MakeOecdLike(2000, 7);
  PreprocessOptions options;
  options.sketch = SmallConfig();
  auto profile = Preprocessor::Profile(table, options);
  ASSERT_TRUE(profile.ok());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.column(c).type() == ColumnType::kNumeric) {
      EXPECT_TRUE(profile->has_numeric_sketch(c));
    } else {
      EXPECT_TRUE(profile->has_categorical_sketch(c));
    }
  }
  EXPECT_GT(profile->preprocess_seconds(), 0.0);
  EXPECT_GT(profile->EstimateMemoryBytes(), 0u);
}

TEST(PreprocessorTest, MemoryEstimateCountsEveryProjection) {
  // Each numeric column keeps three projection_dims vectors: the projection,
  // its ones projection and the centered view FinalizeNumeric builds. The
  // registry's byte budget reads this estimate, so widening the projection
  // by `delta` dims must grow it by 3 * delta doubles per numeric column.
  DataTable table = MakeOecdLike(2000, 7);
  PreprocessOptions options;
  options.sketch = SmallConfig();
  auto base = Preprocessor::Profile(table, options);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  constexpr size_t kDelta = 16;
  options.sketch.projection_dims += kDelta;
  auto wider = Preprocessor::Profile(table, options);
  ASSERT_TRUE(wider.ok()) << wider.status().ToString();
  size_t numeric = 0;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.column(c).type() == ColumnType::kNumeric) ++numeric;
  }
  ASSERT_GT(numeric, 0u);
  EXPECT_EQ(wider->EstimateMemoryBytes() - base->EstimateMemoryBytes(),
            numeric * 3 * kDelta * sizeof(double));
}

TEST(PreprocessorTest, RowSampleIsSortedUniqueAndComplete) {
  DataTable table = MakeOecdLike(5000, 8);
  PreprocessOptions options;
  options.sketch = SmallConfig();
  options.row_sample_size = 512;
  auto profile = Preprocessor::Profile(table, options);
  ASSERT_TRUE(profile.ok());
  const auto& rows = profile->sampled_rows();
  ASSERT_EQ(rows.size(), 512u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1], rows[i]);
    EXPECT_LT(rows[i], table.num_rows());
  }
  // Sampled values align with the sampled rows.
  const auto& sampled = profile->sampled_numeric(0);
  ASSERT_EQ(sampled.size(), rows.size());
  const auto& column = table.column(0).AsNumeric();
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(sampled[i], column.value(rows[i]));
  }
}

TEST(PreprocessorTest, SampleLargerThanTableTakesAllRows) {
  DataTable table = MakeOecdLike(50, 9);
  PreprocessOptions options;
  options.sketch = SmallConfig();
  options.row_sample_size = 1000;
  auto profile = Preprocessor::Profile(table, options);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->sampled_rows().size(), 50u);
}

TEST(PreprocessorTest, PartitionedPreprocessingMatchesSinglePass) {
  DataTable table = MakeOecdLike(2000, 10);
  PreprocessOptions single, partitioned;
  single.sketch = SmallConfig();
  partitioned.sketch = SmallConfig();
  for (size_t p = 0; p < 7; ++p) {
    partitioned.partition_boundaries.push_back(table.num_rows() * (p + 1) / 7);
  }
  auto profile_single = Preprocessor::Profile(table, single);
  auto profile_partitioned = Preprocessor::Profile(table, partitioned);
  ASSERT_TRUE(profile_single.ok());
  ASSERT_TRUE(profile_partitioned.ok());
  for (size_t c : table.NumericColumnIndices()) {
    const auto& a = profile_single->numeric_sketch(c);
    const auto& b = profile_partitioned->numeric_sketch(c);
    // Merging per-partition moments reassociates the sums, so match to
    // relative precision: columns like gdp_per_capita have variances ~1e9
    // where a fixed absolute slack is tighter than double rounding.
    EXPECT_NEAR(a.moments.mean(), b.moments.mean(),
                1e-12 * std::max(1.0, std::abs(b.moments.mean())));
    EXPECT_NEAR(a.moments.variance(), b.moments.variance(),
                1e-12 * std::max(1.0, b.moments.variance()));
    EXPECT_EQ(BitSignature::HammingDistance(a.signature, b.signature), 0u);
  }
}

TEST(PreprocessorTest, SketchCorrelationsTrackExact) {
  DataTable table = MakeOecdLike(20000, 11);
  PreprocessOptions options;
  options.sketch = SmallConfig();
  options.sketch.hyperplane_bits = 1024;
  auto profile = Preprocessor::Profile(table, options);
  ASSERT_TRUE(profile.ok());

  size_t work = *table.ColumnIndex("WorkingLongHours");
  size_t leisure = *table.ColumnIndex("TimeDevotedToLeisure");
  PairedValues pairs =
      ExtractPairedValid(table.column(work).AsNumeric(),
                         table.column(leisure).AsNumeric());
  double exact = PearsonCorrelation(pairs.x, pairs.y);
  double estimate = HyperplaneSketcher::EstimateCorrelation(
      profile->numeric_sketch(work).signature,
      profile->numeric_sketch(leisure).signature);
  EXPECT_NEAR(estimate, exact, 0.1);
  EXPECT_LT(estimate, -0.6);  // The planted strong negative survives.
}

TEST(PreprocessorTest, InvalidOptionsRejected) {
  DataTable empty;
  EXPECT_FALSE(Preprocessor::Profile(empty).ok());
  DataTable table = MakeOecdLike(100, 12);
  PreprocessOptions bad;
  bad.partition_boundaries = {60, 40, 100};
  EXPECT_FALSE(Preprocessor::Profile(table, bad).ok());
  bad.partition_boundaries = {50};
  EXPECT_FALSE(Preprocessor::Profile(table, bad).ok());
}

}  // namespace
}  // namespace foresight
