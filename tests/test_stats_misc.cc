// Tests for regression, multimodality, dependence, and segmentation scores.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "stats/clustering.h"
#include "stats/dependence.h"
#include "stats/multimodality.h"
#include "stats/regression.h"
#include "util/random.h"

namespace foresight {
namespace {

TEST(FitLineTest, ExactLine) {
  std::vector<double> x{0, 1, 2, 3};
  std::vector<double> y{1, 3, 5, 7};  // y = 2x + 1
  LinearFit fit = FitLine(x, y);
  ASSERT_TRUE(fit.valid);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLineTest, RSquaredEqualsRhoSquared) {
  Rng rng(1);
  std::vector<double> x(2000), y(2000);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Normal();
    y[i] = 0.6 * x[i] + 0.8 * rng.Normal();
  }
  LinearFit fit = FitLine(x, y);
  // rho ~ 0.6, r^2 ~ 0.36.
  EXPECT_NEAR(fit.r_squared, 0.36, 0.05);
}

TEST(FitLineTest, DegenerateInputs) {
  EXPECT_FALSE(FitLine({}, {}).valid);
  EXPECT_FALSE(FitLine({1.0}, {2.0}).valid);
  EXPECT_FALSE(FitLine({3.0, 3.0, 3.0}, {1.0, 2.0, 3.0}).valid);
}

TEST(KdeTest, DensityIntegratesToOne) {
  Rng rng(2);
  std::vector<double> v(2000);
  for (double& x : v) x = rng.Normal();
  KdeResult kde = ComputeKde(v, 256);
  ASSERT_EQ(kde.grid.size(), 256u);
  double integral = 0.0;
  for (size_t i = 1; i < kde.grid.size(); ++i) {
    integral += 0.5 * (kde.density[i] + kde.density[i - 1]) *
                (kde.grid[i] - kde.grid[i - 1]);
  }
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(KdeTest, MatchesDirectGaussianSumWithinTheCutoff) {
  // The grid recurrence against one exp per (grid point, point) pair, over
  // the same 4-bandwidth window: wide windows (8 points), two clusters, and
  // a long right tail whose windows are narrower than the grid step.
  Rng rng(6);
  std::vector<std::vector<double>> inputs(3);
  for (int i = 0; i < 8; ++i) inputs[0].push_back(rng.Normal());
  for (int i = 0; i < 2048; ++i) {
    inputs[1].push_back(rng.Normal(i % 2 == 0 ? -4.0 : 4.0, 1.0));
    inputs[2].push_back(std::exp(3.0 * rng.Normal()));
  }
  for (const std::vector<double>& values : inputs) {
    SCOPED_TRACE(values.size());
    KdeResult kde = ComputeKde(values);
    const double h = kde.bandwidth;
    const double n = static_cast<double>(values.size());
    std::vector<double> direct;
    for (double x : kde.grid) {
      double sum = 0.0;
      for (double s : values) {
        if (s < x - 4.0 * h || s > x + 4.0 * h) continue;
        double u = (x - s) / h;
        sum += std::exp(-0.5 * u * u);
      }
      direct.push_back(sum * 0.3989422804014327 / (n * h));
    }
    const double peak = *std::max_element(direct.begin(), direct.end());
    for (size_t g = 0; g < direct.size(); ++g) {
      EXPECT_NEAR(kde.density[g], direct[g], 1e-12 * peak) << "grid " << g;
    }
  }
}

TEST(ModesTest, UnimodalNormalHasOneMode) {
  Rng rng(3);
  std::vector<double> v(5000);
  for (double& x : v) x = rng.Normal();
  std::vector<Mode> modes = FindModes(ComputeKde(v));
  ASSERT_GE(modes.size(), 1u);
  EXPECT_EQ(modes.size(), 1u);
  EXPECT_NEAR(modes[0].location, 0.0, 0.3);
}

TEST(ModesTest, BimodalMixtureHasTwoModes) {
  Rng rng(4);
  std::vector<double> v(5000);
  for (double& x : v) {
    x = rng.UniformDouble() < 0.5 ? rng.Normal(-4.0, 1.0) : rng.Normal(4.0, 1.0);
  }
  std::vector<Mode> modes = FindModes(ComputeKde(v));
  ASSERT_EQ(modes.size(), 2u);
  double lo = std::min(modes[0].location, modes[1].location);
  double hi = std::max(modes[0].location, modes[1].location);
  EXPECT_NEAR(lo, -4.0, 0.5);
  EXPECT_NEAR(hi, 4.0, 0.5);
}

TEST(MultimodalityScoreTest, SeparatesUnimodalFromBimodal) {
  Rng rng(5);
  std::vector<double> unimodal(4000), bimodal(4000);
  for (double& x : unimodal) x = rng.Normal();
  for (double& x : bimodal) {
    x = rng.UniformDouble() < 0.5 ? rng.Normal(-3.0, 1.0) : rng.Normal(3.0, 1.0);
  }
  double unimodal_score = MultimodalityScore(unimodal);
  double bimodal_score = MultimodalityScore(bimodal);
  EXPECT_LT(unimodal_score, 0.1);
  EXPECT_GT(bimodal_score, 0.3);
}

TEST(MultimodalityScoreTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(MultimodalityScore({}), 0.0);
  EXPECT_DOUBLE_EQ(MultimodalityScore({1.0, 2.0}), 0.0);
  EXPECT_DOUBLE_EQ(MultimodalityScore(std::vector<double>(100, 3.0)), 0.0);
}

TEST(BimodalityCoefficientTest, HigherForBimodal) {
  Rng rng(6);
  std::vector<double> unimodal(4000), bimodal(4000);
  for (double& x : unimodal) x = rng.Normal();
  for (double& x : bimodal) {
    x = rng.UniformDouble() < 0.5 ? rng.Normal(-3.0, 1.0) : rng.Normal(3.0, 1.0);
  }
  // Sarle threshold: uniform = 5/9; bimodal above, normal below.
  EXPECT_LT(BimodalityCoefficient(unimodal), 5.0 / 9.0);
  EXPECT_GT(BimodalityCoefficient(bimodal), 5.0 / 9.0);
}

TEST(MutualInformationTest, IndependentNearZeroDependentHigh) {
  Rng rng(7);
  std::vector<double> x(20000), y_indep(20000), y_dep(20000);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Normal();
    y_indep[i] = rng.Normal();
    y_dep[i] = x[i] * x[i] + 0.1 * rng.Normal();  // Non-monotone dependence.
  }
  EXPECT_LT(NormalizedMutualInformation(x, y_indep), 0.05);
  EXPECT_GT(NormalizedMutualInformation(x, y_dep), 0.3);
  // Pearson misses the quadratic dependence; NMI is the point of this metric.
  const EquiWidthBinning bx = BinEquiWidth(x);
  double mi_indep = MutualInformationFromBins(bx, BinEquiWidth(y_indep));
  double mi_dep = MutualInformationFromBins(bx, BinEquiWidth(y_dep));
  EXPECT_GT(mi_dep, mi_indep * 5);
}

TEST(MutualInformationTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(NormalizedMutualInformation({}, {}), 0.0);
  std::vector<double> constant(100, 2.0), varying(100);
  for (size_t i = 0; i < varying.size(); ++i) {
    varying[i] = static_cast<double>(i);
  }
  EXPECT_DOUBLE_EQ(NormalizedMutualInformation(constant, varying), 0.0);
}

TEST(SegmentationScoreTest, SeparatedVersusShuffled) {
  Rng rng(12);
  std::vector<Point2> points;
  std::vector<int32_t> labels;
  for (int i = 0; i < 1000; ++i) {
    int32_t group = static_cast<int32_t>(rng.UniformInt(2));
    double center = group == 0 ? -5.0 : 5.0;
    points.push_back({center + rng.Normal(), center + rng.Normal()});
    labels.push_back(group);
  }
  EXPECT_GT(SegmentationScore(points, labels), 0.85);
  std::vector<int32_t> shuffled = labels;
  rng.Shuffle(shuffled);
  EXPECT_LT(SegmentationScore(points, shuffled), 0.05);
}

TEST(SegmentationScoreTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(SegmentationScore({}, {}), 0.0);
  std::vector<Point2> points{{0, 0}, {1, 1}};
  EXPECT_DOUBLE_EQ(SegmentationScore(points, {0, 0}), 0.0);  // One group.
  EXPECT_DOUBLE_EQ(SegmentationScore(points, {-1, -1}), 0.0);  // All null.
}

TEST(CalinskiHarabaszTest, HigherForBetterSeparation) {
  Rng rng(13);
  std::vector<Point2> points;
  std::vector<int32_t> labels;
  for (int i = 0; i < 600; ++i) {
    int32_t group = static_cast<int32_t>(rng.UniformInt(3));
    double center = static_cast<double>(group) * 8.0;
    points.push_back({center + rng.Normal(), rng.Normal()});
    labels.push_back(group);
  }
  double separated = CalinskiHarabasz(points, labels);
  std::vector<int32_t> shuffled = labels;
  rng.Shuffle(shuffled);
  double random = CalinskiHarabasz(points, shuffled);
  EXPECT_GT(separated, 20.0 * std::max(1.0, random));
}

}  // namespace
}  // namespace foresight
