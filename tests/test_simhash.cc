#include "sketch/simhash.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "stats/correlation.h"
#include "stats/moments.h"

namespace foresight {
namespace {

TEST(BitSignatureTest, SetAndGetBits) {
  BitSignature sig(130);
  EXPECT_EQ(sig.num_bits(), 130u);
  for (size_t i = 0; i < 130; i += 3) sig.set_bit(i, true);
  for (size_t i = 0; i < 130; ++i) {
    EXPECT_EQ(sig.bit(i), i % 3 == 0) << i;
  }
  sig.set_bit(0, false);
  EXPECT_FALSE(sig.bit(0));
}

TEST(BitSignatureTest, HammingDistance) {
  BitSignature a(64), b(64);
  EXPECT_EQ(BitSignature::HammingDistance(a, b), 0u);
  a.set_bit(0, true);
  a.set_bit(63, true);
  b.set_bit(63, true);
  EXPECT_EQ(BitSignature::HammingDistance(a, b), 1u);
}

TEST(HyperplaneSketcherTest, DeterministicGivenSeed) {
  std::vector<double> values{1.0, -2.0, 3.0, 0.5, -0.25};
  HyperplaneSketcher s1(128, 77), s2(128, 77);
  BitSignature a = s1.Sketch(values, 0.0);
  BitSignature b = s2.Sketch(values, 0.0);
  EXPECT_EQ(BitSignature::HammingDistance(a, b), 0u);
}

TEST(HyperplaneSketcherTest, IdenticalColumnsHaveZeroDistance) {
  CorrelatedPair pair = MakeGaussianPair(1000, 0.5, 1);
  HyperplaneSketcher sketcher(256, 5);
  BitSignature a = sketcher.Sketch(pair.x, MomentsOf(pair.x).mean());
  BitSignature b = sketcher.Sketch(pair.x, MomentsOf(pair.x).mean());
  EXPECT_EQ(BitSignature::HammingDistance(a, b), 0u);
  EXPECT_DOUBLE_EQ(HyperplaneSketcher::EstimateCorrelation(a, b), 1.0);
}

TEST(HyperplaneSketcherTest, NegatedColumnEstimatesMinusOne) {
  CorrelatedPair pair = MakeGaussianPair(1000, 0.0, 2);
  std::vector<double> negated = pair.x;
  for (double& v : negated) v = -v;
  HyperplaneSketcher sketcher(512, 6);
  BitSignature a = sketcher.Sketch(pair.x, MomentsOf(pair.x).mean());
  BitSignature b = sketcher.Sketch(negated, MomentsOf(negated).mean());
  EXPECT_NEAR(HyperplaneSketcher::EstimateCorrelation(a, b), -1.0, 1e-9);
}

TEST(HyperplaneSketcherTest, ScaleInvariance) {
  // phi depends only on the sign of the centered dot product, so positive
  // scaling must not change the signature.
  CorrelatedPair pair = MakeGaussianPair(500, 0.0, 3);
  std::vector<double> scaled = pair.x;
  for (double& v : scaled) v = 42.0 * v + 7.0;  // Affine: centering removes +7.
  HyperplaneSketcher sketcher(256, 8);
  BitSignature a = sketcher.Sketch(pair.x, MomentsOf(pair.x).mean());
  BitSignature b = sketcher.Sketch(scaled, MomentsOf(scaled).mean());
  EXPECT_EQ(BitSignature::HammingDistance(a, b), 0u);
}

struct RhoCase {
  double rho;
  size_t k;
  double tolerance;
};

class HyperplaneAccuracyTest : public ::testing::TestWithParam<RhoCase> {};

// The §3 estimator: cos(pi H / k) is an unbiased estimator of rho; with k
// bits its standard error is ~ pi sqrt(p(1-p)/k). Sweep planted rho.
TEST_P(HyperplaneAccuracyTest, EstimatesPlantedCorrelation) {
  const RhoCase& param = GetParam();
  CorrelatedPair pair = MakeGaussianPair(20000, param.rho, 31);
  double exact = PearsonCorrelation(pair.x, pair.y);
  HyperplaneSketcher sketcher(param.k, 17);
  BitSignature a = sketcher.Sketch(pair.x, MomentsOf(pair.x).mean());
  BitSignature b = sketcher.Sketch(pair.y, MomentsOf(pair.y).mean());
  double estimate = HyperplaneSketcher::EstimateCorrelation(a, b);
  EXPECT_NEAR(estimate, exact, param.tolerance)
      << "rho=" << param.rho << " k=" << param.k;
}

INSTANTIATE_TEST_SUITE_P(
    RhoSweep, HyperplaneAccuracyTest,
    ::testing::Values(RhoCase{-0.95, 1024, 0.08}, RhoCase{-0.5, 1024, 0.12},
                      RhoCase{0.0, 1024, 0.15}, RhoCase{0.3, 1024, 0.15},
                      RhoCase{0.7, 1024, 0.10}, RhoCase{0.95, 1024, 0.06},
                      RhoCase{0.8, 4096, 0.05}));

TEST(HyperplaneAccuracyTest, ErrorShrinksWithK) {
  // Average absolute error over several planted pairs must decrease from
  // k=64 to k=2048.
  double error_small = 0.0, error_large = 0.0;
  int trials = 6;
  for (int t = 0; t < trials; ++t) {
    double rho = -0.9 + 0.3 * t;
    CorrelatedPair pair = MakeGaussianPair(5000, rho, 100 + t);
    double exact = PearsonCorrelation(pair.x, pair.y);
    double mean_x = MomentsOf(pair.x).mean();
    double mean_y = MomentsOf(pair.y).mean();
    HyperplaneSketcher small(64, 7), large(2048, 7);
    error_small += std::abs(HyperplaneSketcher::EstimateCorrelation(
                                small.Sketch(pair.x, mean_x),
                                small.Sketch(pair.y, mean_y)) -
                            exact);
    error_large += std::abs(HyperplaneSketcher::EstimateCorrelation(
                                large.Sketch(pair.x, mean_x),
                                large.Sketch(pair.y, mean_y)) -
                            exact);
  }
  EXPECT_LT(error_large, error_small);
}

TEST(HyperplaneAccumulatorTest, PartitionedMergeEqualsSinglePass) {
  // Composability (§3): accumulating disjoint row ranges and merging must
  // give the identical signature to one pass, because the dot products add.
  CorrelatedPair pair = MakeGaussianPair(3000, 0.4, 55);
  HyperplaneSketcher sketcher(256, 21);
  double mean = MomentsOf(pair.x).mean();

  BitSignature single = sketcher.Sketch(pair.x, mean);

  HyperplaneAccumulator part1, part2, part3;
  std::vector<double> r1(pair.x.begin(), pair.x.begin() + 1000);
  std::vector<double> r2(pair.x.begin() + 1000, pair.x.begin() + 2222);
  std::vector<double> r3(pair.x.begin() + 2222, pair.x.end());
  sketcher.AccumulateRange(r1, 0, part1);
  sketcher.AccumulateRange(r2, 1000, part2);
  sketcher.AccumulateRange(r3, 2222, part3);
  part1.Merge(part2);
  part1.Merge(part3);
  BitSignature merged = sketcher.Finalize(part1, mean);
  EXPECT_EQ(BitSignature::HammingDistance(single, merged), 0u);
}

TEST(HyperplaneAccumulatorTest, MergeIntoEmpty) {
  HyperplaneSketcher sketcher(64, 3);
  HyperplaneAccumulator acc, empty;
  sketcher.AccumulateRange({1.0, 2.0, 3.0}, 0, acc);
  empty.Merge(acc);
  EXPECT_EQ(empty.dot.size(), 64u);
  BitSignature from_empty = sketcher.Finalize(empty, 2.0);
  BitSignature direct = sketcher.Finalize(acc, 2.0);
  EXPECT_EQ(BitSignature::HammingDistance(from_empty, direct), 0u);
}

TEST(PrefixEstimateTest, PrefixAgreesWithFreshSmallerSketcher) {
  // The first k bits of a K-bit signature must BE the k-bit signature: the
  // per-row hyperplane components are drawn sequentially from the same
  // (seed, row) stream, so a fresh sketcher with smaller k reproduces the
  // prefix exactly. This is what lets E1 sweep precision without
  // re-sketching. Widths 1, 63, 65 and 100 end inside a word, so the
  // prefix distance must mask off the bits past `bits` in its last word.
  CorrelatedPair pair = MakeGaussianPair(2000, 0.4, 9);
  double mean_x = MomentsOf(pair.x).mean();
  double mean_y = MomentsOf(pair.y).mean();
  HyperplaneSketcher big(1024, 77);
  BitSignature ax = big.Sketch(pair.x, mean_x);
  BitSignature ay = big.Sketch(pair.y, mean_y);
  for (size_t bits : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                      size_t{100}, size_t{192}}) {
    HyperplaneSketcher small(bits, 77);
    BitSignature bx = small.Sketch(pair.x, mean_x);
    BitSignature by = small.Sketch(pair.y, mean_y);
    for (size_t i = 0; i < bits; ++i) {
      ASSERT_EQ(ax.bit(i), bx.bit(i)) << "bits=" << bits << " i=" << i;
      ASSERT_EQ(ay.bit(i), by.bit(i)) << "bits=" << bits << " i=" << i;
    }
    EXPECT_EQ(BitSignature::HammingDistancePrefix(ax, ay, bits),
              BitSignature::HammingDistance(bx, by))
        << "bits=" << bits;
    EXPECT_DOUBLE_EQ(
        HyperplaneSketcher::EstimateCorrelationPrefix(ax, ay, bits),
        HyperplaneSketcher::EstimateCorrelation(bx, by))
        << "bits=" << bits;
  }
  // Full-width prefix degenerates to the plain estimator.
  EXPECT_EQ(BitSignature::HammingDistancePrefix(ax, ay, 1024),
            BitSignature::HammingDistance(ax, ay));
  EXPECT_DOUBLE_EQ(HyperplaneSketcher::EstimateCorrelationPrefix(ax, ay, 1024),
                   HyperplaneSketcher::EstimateCorrelation(ax, ay));
}

TEST(PrefixEstimateTest, ErrorShrinksWithPrefixWidth) {
  // On the SAME signatures, mean |estimate - exact| must fall as the prefix
  // widens 64 -> 256 -> 2048 (each prefix is a valid smaller sketch whose
  // standard error scales as 1/sqrt(bits)).
  double err_64 = 0.0, err_256 = 0.0, err_2048 = 0.0;
  const int trials = 10;
  HyperplaneSketcher sketcher(2048, 7);
  for (int t = 0; t < trials; ++t) {
    double rho = -0.9 + 1.8 * t / (trials - 1);
    CorrelatedPair pair = MakeGaussianPair(3000, rho, 200 + t);
    double exact = PearsonCorrelation(pair.x, pair.y);
    BitSignature a = sketcher.Sketch(pair.x, MomentsOf(pair.x).mean());
    BitSignature b = sketcher.Sketch(pair.y, MomentsOf(pair.y).mean());
    err_64 += std::abs(
        HyperplaneSketcher::EstimateCorrelationPrefix(a, b, 64) - exact);
    err_256 += std::abs(
        HyperplaneSketcher::EstimateCorrelationPrefix(a, b, 256) - exact);
    err_2048 += std::abs(
        HyperplaneSketcher::EstimateCorrelationPrefix(a, b, 2048) - exact);
  }
  EXPECT_LT(err_256, err_64);
  EXPECT_LT(err_2048, err_256);
}

TEST(PrefixEstimateTest, HammingFractionBoundFormula) {
  // eps(k, delta) = sqrt(ln(2/delta) / (2k)): spot-check the closed form and
  // its monotonicity in both arguments.
  EXPECT_NEAR(HyperplaneSketcher::HammingFractionBound(512, 0.05),
              std::sqrt(std::log(2.0 / 0.05) / 1024.0), 1e-15);
  EXPECT_LT(HyperplaneSketcher::HammingFractionBound(2048, 0.05),
            HyperplaneSketcher::HammingFractionBound(512, 0.05));
  EXPECT_GT(HyperplaneSketcher::HammingFractionBound(512, 1e-9),
            HyperplaneSketcher::HammingFractionBound(512, 1e-3));
}

TEST(PrefixEstimateTest, IntervalBracketsEstimateAndClamps) {
  const size_t bits = 512;
  for (uint64_t hamming : {uint64_t{0}, uint64_t{100}, uint64_t{256},
                           uint64_t{400}, uint64_t{512}}) {
    double lo = 0.0, hi = 0.0;
    HyperplaneSketcher::EstimateCorrelationInterval(hamming, bits, 1e-6, &lo,
                                                    &hi);
    double estimate =
        HyperplaneSketcher::EstimateCorrelationFromHamming(hamming, bits);
    EXPECT_GE(lo, -1.0);
    EXPECT_LE(hi, 1.0);
    EXPECT_LE(lo, estimate);
    EXPECT_GE(hi, estimate);
  }
  double lo = 0.0, hi = 0.0;
  HyperplaneSketcher::EstimateCorrelationInterval(0, bits, 1e-6, &lo, &hi);
  EXPECT_DOUBLE_EQ(hi, 1.0);  // Zero disagreement: upper end clamps at +1.
  HyperplaneSketcher::EstimateCorrelationInterval(bits, bits, 1e-6, &lo, &hi);
  EXPECT_DOUBLE_EQ(lo, -1.0);  // Total disagreement: lower end clamps at -1.
}

TEST(PrefixEstimateTest, HoeffdingIntervalCoversExactEmpirically) {
  // Over many independently seeded (data, sketcher) trials, the delta = 0.05
  // interval must cover the exact Pearson value in at least a 1 - delta
  // fraction — Hoeffding is conservative, so observed violations should be
  // well under trials * delta.
  const int trials = 200;
  const double delta = 0.05;
  int violations = 0;
  for (int t = 0; t < trials; ++t) {
    double rho = -0.9 + 1.8 * t / (trials - 1);
    CorrelatedPair pair = MakeGaussianPair(400, rho, 1000 + t);
    double exact = PearsonCorrelation(pair.x, pair.y);
    HyperplaneSketcher sketcher(512, 3000 + t);
    BitSignature a = sketcher.Sketch(pair.x, MomentsOf(pair.x).mean());
    BitSignature b = sketcher.Sketch(pair.y, MomentsOf(pair.y).mean());
    uint64_t hamming = BitSignature::HammingDistance(a, b);
    double lo = 0.0, hi = 0.0;
    HyperplaneSketcher::EstimateCorrelationInterval(hamming, 512, delta, &lo,
                                                    &hi);
    if (exact < lo || exact > hi) ++violations;
  }
  EXPECT_LE(violations, static_cast<int>(trials * delta));
}

TEST(HyperplaneSketcherTest, RowHyperplanesSharedAcrossCalls) {
  HyperplaneSketcher sketcher(32, 9);
  std::vector<double> row1, row2;
  sketcher.GenerateRowHyperplanes(5, row1);
  sketcher.GenerateRowHyperplanes(5, row2);
  EXPECT_EQ(row1, row2);
  sketcher.GenerateRowHyperplanes(6, row2);
  EXPECT_NE(row1, row2);
}

}  // namespace
}  // namespace foresight
