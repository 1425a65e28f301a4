#include "stats/quantiles.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace foresight {
namespace {

TEST(ExactQuantileTest, OrderStatisticsWithInterpolation) {
  std::vector<double> v{4.0, 1.0, 3.0, 2.0};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(ExactQuantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ExactQuantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(ExactQuantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(ExactQuantile(v, 1.0 / 3.0), 2.0);
  EXPECT_NEAR(ExactQuantile(v, 0.25), 1.75, 1e-12);
}

TEST(ExactQuantileTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(ExactQuantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({7.0}, 0.25), 7.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({5.0, 5.0, 5.0}, 0.9), 5.0);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(BoxPlotStatsTest, FiveNumberSummaryAndWhiskers) {
  // 1..100 plus two extreme outliers.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  v.push_back(500.0);
  v.push_back(-400.0);
  BoxPlotStats stats = ComputeBoxPlotStats(v);
  EXPECT_DOUBLE_EQ(stats.min, -400.0);
  EXPECT_DOUBLE_EQ(stats.max, 500.0);
  EXPECT_GT(stats.q3, stats.q1);
  EXPECT_GE(stats.median, stats.q1);
  EXPECT_LE(stats.median, stats.q3);
  // Whiskers stop at data inside the fences; the planted points are outside.
  EXPECT_GE(stats.lower_whisker, 1.0);
  EXPECT_LE(stats.upper_whisker, 100.0);
  ASSERT_EQ(stats.outlier_indices.size(), 2u);
  EXPECT_DOUBLE_EQ(v[stats.outlier_indices[0]], 500.0);
  EXPECT_DOUBLE_EQ(v[stats.outlier_indices[1]], -400.0);
}

TEST(BoxPlotStatsTest, NoOutliersOnUniformData) {
  Rng rng(5);
  std::vector<double> v(1000);
  for (double& x : v) x = rng.Uniform(0.0, 1.0);
  BoxPlotStats stats = ComputeBoxPlotStats(v);
  EXPECT_TRUE(stats.outlier_indices.empty());
  EXPECT_DOUBLE_EQ(stats.lower_whisker, stats.min);
  EXPECT_DOUBLE_EQ(stats.upper_whisker, stats.max);
}

TEST(BoxPlotStatsTest, EmptyInput) {
  BoxPlotStats stats = ComputeBoxPlotStats({});
  EXPECT_DOUBLE_EQ(stats.median, 0.0);
  EXPECT_TRUE(stats.outlier_indices.empty());
}

TEST(SortedQuantileTest, AgreesWithExactQuantile) {
  Rng rng(6);
  std::vector<double> v(777);
  for (double& x : v) x = rng.Normal();
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(SortedQuantile(sorted, q), ExactQuantile(v, q));
  }
}

}  // namespace
}  // namespace foresight
