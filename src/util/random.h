#ifndef FORESIGHT_UTIL_RANDOM_H_
#define FORESIGHT_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace foresight {

/// Deterministic pseudo-random number generator (PCG-XSH-RR 64/32).
///
/// Foresight seeds every stochastic component (sketches, samplers, data
/// generators) explicitly so that preprocessing, experiments, and tests are
/// reproducible. The generator is small, fast, and statistically strong enough
/// for sketching; it is NOT cryptographically secure.
class Rng {
 public:
  /// Creates a generator from a 64-bit seed. Two generators built from the
  /// same seed produce identical streams.
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL);

  /// Uniform 32-bit value.
  uint32_t NextUint32();

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform integer in [0, bound), bound > 0. Uses rejection sampling to
  /// avoid modulo bias.
  uint64_t UniformInt(uint64_t bound);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Standard normal deviate (Marsaglia–Tsang ziggurat, 128 layers). The
  /// common case costs one 32-bit draw, one table compare, and one multiply;
  /// layer-edge and tail cases fall back to exact rejection sampling.
  double Normal();

  /// Fills out[0, n) with standard normal deviates — the identical sequence
  /// n calls to Normal() would produce, but generated in a batch loop that
  /// lets the generator's state recurrence overlap the ziggurat table work.
  /// This is the hot path for random panel generation.
  void FillNormals(double* out, size_t n);

  /// Normal deviate with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Exponential deviate with the given rate (mean 1/rate).
  double Exponential(double rate);

  /// Log-normal deviate: exp(Normal(mu_log, sigma_log)).
  double LogNormal(double mu_log, double sigma_log);

  /// Zipf-distributed integer in [0, n) with exponent s > 0 (inverse-CDF over
  /// precomputed weights is the caller's job for hot loops; this method is
  /// O(log n) via binary search over a lazily built CDF per (n, s) pair).
  uint64_t Zipf(uint64_t n, double s);

  /// Skewed maximally-right alpha-stable deviate with alpha in (0, 2], beta=1,
  /// via the Chambers–Mallows–Stuck method. Used by the entropy sketch.
  double StableSkewed(double alpha);

  /// Fisher–Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(i));
      std::swap(values[i - 1], values[j]);
    }
  }

 private:
  // Wedge-rejection / tail-inversion path of the ziggurat, entered when the
  // one-compare fast path fails for draw `hz` in layer `i`.
  double NormalSlow(int32_t hz, size_t i);

  uint64_t state_;
  uint64_t inc_;
  // Lazily built Zipf CDF, reused while (n, s) stay fixed.
  uint64_t zipf_n_ = 0;
  double zipf_s_ = -1.0;
  std::vector<double> zipf_cdf_;
};

}  // namespace foresight

#endif  // FORESIGHT_UTIL_RANDOM_H_
