#include "util/random.h"

#include <cmath>
#include <gtest/gtest.h>

#include "stats/moments.h"

namespace foresight {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a.NextUint64() != b.NextUint64()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(RngTest, UniformIntStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversAllResidues) {
  Rng rng(8);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 5000; ++i) ++seen[rng.UniformInt(5)];
  for (int count : seen) EXPECT_GT(count, 800);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NormalHasCorrectMoments) {
  Rng rng(11);
  RunningMoments m;
  for (int i = 0; i < 200000; ++i) m.Add(rng.Normal());
  EXPECT_NEAR(m.mean(), 0.0, 0.02);
  EXPECT_NEAR(m.variance(), 1.0, 0.03);
  EXPECT_NEAR(m.skewness(), 0.0, 0.05);
  EXPECT_NEAR(m.kurtosis(), 3.0, 0.1);
}

// Panel generation uses the batched path; bit-identity with the scalar path
// is what keeps row-at-a-time and blocked ingestion byte-equal, so the
// sequences must match exactly — including across the rare slow-path draws.
TEST(RngTest, FillNormalsMatchesScalarNormalExactly) {
  for (uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    Rng scalar(seed), batched(seed);
    std::vector<double> batch(4096);
    batched.FillNormals(batch.data(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(scalar.Normal(), batch[i]) << "seed " << seed << " i " << i;
    }
    // Both generators must also land in the same state afterwards.
    EXPECT_EQ(scalar.NextUint64(), batched.NextUint64());
  }
}

TEST(RngTest, ExponentialHasCorrectMeanAndSkew) {
  Rng rng(12);
  RunningMoments m;
  for (int i = 0; i < 200000; ++i) m.Add(rng.Exponential(2.0));
  EXPECT_NEAR(m.mean(), 0.5, 0.01);
  EXPECT_NEAR(m.skewness(), 2.0, 0.1);
}

TEST(RngTest, LogNormalMedianMatches) {
  Rng rng(13);
  std::vector<double> values(100001);
  for (double& v : values) v = rng.LogNormal(1.0, 0.5);
  std::nth_element(values.begin(), values.begin() + 50000, values.end());
  EXPECT_NEAR(values[50000], std::exp(1.0), 0.05);
}

TEST(RngTest, ZipfFrequenciesDecreaseWithRank) {
  Rng rng(14);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.Zipf(10, 1.2)];
  // Rank-0 must dominate, and frequencies approximately follow 1/k^1.2.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[4]);
  double ratio = static_cast<double>(counts[0]) / counts[1];
  EXPECT_NEAR(ratio, std::pow(2.0, 1.2), 0.3);
}

// The entropy sketch relies on the Laplace functional of the maximally
// skewed 1-stable sampler: E[exp(-t X)] = exp((2/pi) t ln t), hence
// kappa = E[exp(-(pi/2) X)] = pi/2. Verify by Monte Carlo.
TEST(RngTest, StableSkewedLaplaceFunctionalMatchesKappa) {
  Rng rng(16);
  double sum = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    sum += std::exp(-(3.14159265358979323846 / 2.0) * rng.StableSkewed(1.0));
  }
  double kappa = sum / n;
  EXPECT_NEAR(kappa, 3.14159265358979323846 / 2.0, 0.02);
}

// 1-stable scaling property used by the entropy sketch: for weights p_i
// summing to 1, sum_i p_i X_i  =d  X + (2/pi) H where H = -sum p_i ln p_i,
// so E[exp(-(pi/2) T)] = kappa * exp(-H). Check via the Laplace functional.
TEST(RngTest, StableSkewedScalingProperty) {
  Rng rng(17);
  const double p[3] = {0.5, 0.3, 0.2};
  double entropy = 0.0;
  for (double pi_ : p) entropy -= pi_ * std::log(pi_);
  double sum = 0.0;
  const int n = 300000;
  const double half_pi = 3.14159265358979323846 / 2.0;
  for (int i = 0; i < n; ++i) {
    double t = p[0] * rng.StableSkewed(1.0) + p[1] * rng.StableSkewed(1.0) +
               p[2] * rng.StableSkewed(1.0);
    sum += std::exp(-half_pi * t);
  }
  double expected = half_pi * std::exp(-entropy);
  EXPECT_NEAR(sum / n, expected, expected * 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(18);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

}  // namespace
}  // namespace foresight
