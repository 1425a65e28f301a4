// Tests for SpaceSaving, entropy sketch, and random projection sketch.

#include <cmath>
#include <unordered_map>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "sketch/entropy.h"
#include "sketch/random_projection.h"
#include "sketch/spacesaving.h"
#include "stats/correlation.h"
#include "stats/frequency.h"
#include "stats/moments.h"
#include "util/random.h"

namespace foresight {
namespace {

std::vector<std::string> ZipfStream(size_t n, size_t universe, double s,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> stream(n);
  for (std::string& item : stream) {
    item = "item_" + std::to_string(rng.Zipf(universe, s));
  }
  return stream;
}

TEST(SpaceSavingTest, ExactWhenUnderCapacity) {
  SpaceSavingSketch sketch(100);
  std::vector<std::string> stream{"a", "b", "a", "c", "a", "b"};
  for (const auto& item : stream) sketch.Update(item);
  EXPECT_EQ(sketch.EstimateCount("a"), 3u);
  EXPECT_EQ(sketch.EstimateCount("b"), 2u);
  EXPECT_EQ(sketch.EstimateCount("c"), 1u);
  EXPECT_EQ(sketch.EstimateCount("zzz"), 0u);
  EXPECT_EQ(sketch.MaxError(), 0u);
  EXPECT_EQ(sketch.total_count(), 6u);
}

TEST(SpaceSavingTest, GuaranteesOnZipfStream) {
  auto stream = ZipfStream(100000, 10000, 1.2, 7);
  FrequencyTable exact(stream);
  SpaceSavingSketch sketch(64);
  for (const auto& item : stream) sketch.Update(item);

  // SpaceSaving invariant: estimate >= true count for monitored items, and
  // every item with count > n/capacity is monitored.
  std::unordered_map<std::string, uint64_t> truth;
  for (const auto& e : exact.entries()) truth[e.value] = e.count;
  uint64_t guarantee = sketch.total_count() / sketch.capacity();
  for (const auto& e : exact.entries()) {
    if (e.count > guarantee) {
      uint64_t estimate = sketch.EstimateCount(e.value);
      EXPECT_GE(estimate, e.count) << e.value;
      EXPECT_LE(estimate, e.count + sketch.MaxError()) << e.value;
    }
  }
  // Top-5 heavy hitters are identified correctly on a strongly skewed stream.
  auto top = sketch.TopK(5);
  ASSERT_EQ(top.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(top[i].item, exact.entries()[i].value) << i;
  }
}

TEST(SpaceSavingTest, RelFreqEstimateTracksExact) {
  auto stream = ZipfStream(50000, 2000, 1.3, 8);
  FrequencyTable exact(stream);
  SpaceSavingSketch sketch(64);
  for (const auto& item : stream) sketch.Update(item);
  for (size_t k : {1u, 3u, 5u, 10u}) {
    EXPECT_NEAR(sketch.RelFreqEstimate(k), exact.RelFreq(k), 0.05) << k;
  }
}

TEST(SpaceSavingTest, MergePreservesHeavyHitters) {
  auto stream1 = ZipfStream(30000, 500, 1.2, 9);
  auto stream2 = ZipfStream(30000, 500, 1.2, 10);
  SpaceSavingSketch a(64), b(64);
  for (const auto& item : stream1) a.Update(item);
  for (const auto& item : stream2) b.Update(item);
  std::vector<std::string> combined = stream1;
  combined.insert(combined.end(), stream2.begin(), stream2.end());
  FrequencyTable exact(combined);

  a.Merge(b);
  EXPECT_EQ(a.total_count(), 60000u);
  auto top = a.TopK(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].item, exact.entries()[0].value);
  EXPECT_NEAR(static_cast<double>(top[0].estimated_count),
              static_cast<double>(exact.entries()[0].count),
              static_cast<double>(exact.entries()[0].count) * 0.1);
}

TEST(SpaceSavingTest, WeightedUpdates) {
  SpaceSavingSketch sketch(8);
  sketch.Update("x", 100);
  sketch.Update("y", 5);
  EXPECT_EQ(sketch.EstimateCount("x"), 100u);
  EXPECT_EQ(sketch.total_count(), 105u);
}

TEST(EntropySketchTest, UniformDistribution) {
  // 64 equally frequent items: H = ln 64.
  EntropySketch sketch(512, 5);
  for (int item = 0; item < 64; ++item) {
    sketch.Update("v" + std::to_string(item), 1000);
  }
  EXPECT_NEAR(sketch.EstimateEntropy(), std::log(64.0), 0.25);
}

TEST(EntropySketchTest, DegenerateSingleItem) {
  // True H = 0; the estimator's sampling noise is O(1/sqrt(k)) in the
  // log-mean-exp, so with k = 4096 the estimate must be near zero and in any
  // case tiny relative to ln(n) ~ 11.5.
  EntropySketch sketch(4096, 6);
  sketch.Update("only", 100000);
  EXPECT_NEAR(sketch.EstimateEntropy(), 0.0, 0.1);
}

TEST(EntropySketchTest, SkewedDistributionMatchesExact) {
  auto stream = ZipfStream(40000, 1000, 1.3, 13);
  FrequencyTable exact(stream);
  EntropySketch sketch(1024, 7);
  for (const auto& item : stream) sketch.Update(item);
  EXPECT_NEAR(sketch.EstimateEntropy(), exact.Entropy(),
              0.15 * std::max(1.0, exact.Entropy()));
}

TEST(EntropySketchTest, MergeEqualsSingleStream) {
  // Register-wise addition over a partitioned stream must give the exact
  // same registers as one pass (deterministic per-item projections).
  auto stream = ZipfStream(20000, 300, 1.2, 14);
  EntropySketch full(256, 8), part1(256, 8), part2(256, 8);
  for (size_t i = 0; i < stream.size(); ++i) {
    full.Update(stream[i]);
    (i < stream.size() / 2 ? part1 : part2).Update(stream[i]);
  }
  part1.Merge(part2);
  ASSERT_EQ(part1.registers().size(), full.registers().size());
  for (size_t j = 0; j < full.registers().size(); ++j) {
    EXPECT_NEAR(part1.registers()[j], full.registers()[j],
                1e-9 * std::abs(full.registers()[j]) + 1e-9);
  }
  EXPECT_DOUBLE_EQ(part1.EstimateEntropy(), full.EstimateEntropy());
}

TEST(EntropySketchTest, EmptySketch) {
  EntropySketch sketch(64, 9);
  EXPECT_DOUBLE_EQ(sketch.EstimateEntropy(), 0.0);
}

TEST(ProjectionSketchTest, PreservesNormsAndDots) {
  CorrelatedPair pair = MakeGaussianPair(5000, 0.6, 15);
  ProjectionSketcher sketcher(512, 16);
  ProjectionSketch a = sketcher.Sketch(pair.x);
  ProjectionSketch b = sketcher.Sketch(pair.y);

  double true_norm = 0.0, true_dot = 0.0;
  for (size_t i = 0; i < pair.x.size(); ++i) {
    true_norm += pair.x[i] * pair.x[i];
    true_dot += pair.x[i] * pair.y[i];
  }
  EXPECT_NEAR(a.EstimateSquaredNorm(), true_norm, 0.15 * true_norm);
  EXPECT_NEAR(ProjectionSketch::EstimateDot(a, b), true_dot,
              0.2 * std::abs(true_dot) + 0.05 * true_norm);
}

TEST(ProjectionSketchTest, CorrelationFromCenteredProjections) {
  CorrelatedPair pair = MakeGaussianPair(8000, -0.75, 17);
  double exact = PearsonCorrelation(pair.x, pair.y);
  ProjectionSketcher sketcher(1024, 18);
  ProjectionSketch a = sketcher.Sketch(pair.x, MomentsOf(pair.x).mean());
  ProjectionSketch b = sketcher.Sketch(pair.y, MomentsOf(pair.y).mean());
  EXPECT_NEAR(ProjectionSketch::EstimateCorrelation(a, b), exact, 0.08);
}

TEST(ProjectionSketchTest, MergeEqualsSinglePass) {
  std::vector<double> values(2000);
  Rng rng(19);
  for (double& v : values) v = rng.Normal();
  ProjectionSketcher sketcher(128, 20);
  ProjectionSketch full = sketcher.Sketch(values);

  ProjectionSketch part1, part2;
  std::vector<double> first(values.begin(), values.begin() + 700);
  std::vector<double> second(values.begin() + 700, values.end());
  sketcher.AccumulateRange(first, 0, 0.0, part1);
  sketcher.AccumulateRange(second, 700, 0.0, part2);
  part1.Merge(part2);
  for (size_t i = 0; i < full.k(); ++i) {
    EXPECT_NEAR(part1.components()[i], full.components()[i], 1e-9);
  }
}

}  // namespace
}  // namespace foresight
