#ifndef FORESIGHT_SKETCH_SIMHASH_H_
#define FORESIGHT_SKETCH_SIMHASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace foresight {

/// Bit signature produced by the random hyperplane sketch: bit i is
/// phi_i(b) = [ b~ . r_i >= 0 ] for the i-th random Gaussian hyperplane r_i
/// (§3; Charikar's SimHash). Stores k bits packed into 64-bit words —
/// |B| * k bits for a whole dataset, exactly the paper's memory bound.
class BitSignature {
 public:
  BitSignature() = default;
  explicit BitSignature(size_t num_bits);

  size_t num_bits() const { return num_bits_; }
  bool bit(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set_bit(size_t i, bool value) {
    if (value) {
      words_[i >> 6] |= (uint64_t{1} << (i & 63));
    } else {
      words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
    }
  }

  const std::vector<uint64_t>& words() const { return words_; }

  /// Hamming distance via per-word popcount: O(k / 64).
  static uint64_t HammingDistance(const BitSignature& a, const BitSignature& b);

  /// Hamming distance over only the first `bits` positions. Because the
  /// hyperplanes are independent, the first `bits` bits of a signature form a
  /// valid smaller sketch — used to sweep k without re-sketching.
  static uint64_t HammingDistancePrefix(const BitSignature& a,
                                        const BitSignature& b, size_t bits);

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

/// Mergeable partial state of a hyperplane sketch over a row range: the k raw
/// dot products b . r_i plus the k "ones" dot products 1 . r_i. Summing
/// accumulators from disjoint row ranges composes exactly (the paper's sketch
/// composability), and centering is applied at finalize time:
/// b~ . r_i = b . r_i - mu_b * (1 . r_i).
struct HyperplaneAccumulator {
  std::vector<double> dot;       ///< b . r_i for i in [0, k)
  std::vector<double> ones_dot;  ///< 1 . r_i for i in [0, k)

  /// Adds another partial accumulator (disjoint row range, same sketcher).
  void Merge(const HyperplaneAccumulator& other);
};

/// Factory for random hyperplane sketches sharing one set of hyperplanes.
///
/// The Gaussian hyperplane components r_i[row] are generated deterministically
/// from (seed, row), so every column sketched by the same HyperplaneSketcher
/// sees the same hyperplanes — required for cos(pi*H/k) to estimate rho — and
/// row ranges can be processed independently and merged.
class HyperplaneSketcher {
 public:
  /// `k` is the number of hyperplanes (sketch bits). The paper recommends
  /// k = O(log^2 n) for high accuracy.
  HyperplaneSketcher(size_t k, uint64_t seed);

  size_t k() const { return k_; }
  uint64_t seed() const { return seed_; }

  /// Accumulates rows [row_offset, row_offset + values.size()) into `acc`
  /// (allocating it on first use). O(values.size() * k).
  void AccumulateRange(const std::vector<double>& values, size_t row_offset,
                       HyperplaneAccumulator& acc) const;

  /// Writes the k Gaussian hyperplane components for `row` into `out`
  /// (resized to k). Components are a pure function of (seed, row), so every
  /// column sketched by this sketcher sees the same hyperplanes.
  void GenerateRowHyperplanes(size_t row, std::vector<double>& out) const;

  /// Same, writing into a raw buffer of k doubles. The panel cache fills each
  /// row block through it once, so preprocessing generates each row's
  /// components once for all columns — the paper's one-pass O(|B| * n * k)
  /// bound. BundleBuilder folds those panels into the accumulators through
  /// sketch/ingest_kernels.h, bit-identically to the per-row reference
  /// (BundleBuilder::AccumulateNumeric).
  void GenerateRowHyperplanes(size_t row, double* out) const;

  /// Converts a (possibly merged) accumulator into a bit signature, centering
  /// by the column mean.
  BitSignature Finalize(const HyperplaneAccumulator& acc, double mean) const;

  /// One-shot convenience: sketch a whole column.
  BitSignature Sketch(const std::vector<double>& values, double mean) const;

  /// Unbiased estimator of the Pearson correlation coefficient:
  /// cos(pi * H(sig_a, sig_b) / k) (§3; Charikar 2002).
  static double EstimateCorrelation(const BitSignature& a,
                                    const BitSignature& b);

  /// Same estimator restricted to the first `bits` hyperplanes (a valid
  /// smaller-k sketch; see BitSignature::HammingDistancePrefix).
  static double EstimateCorrelationPrefix(const BitSignature& a,
                                          const BitSignature& b, size_t bits);

  /// The same estimator from a precomputed Hamming distance over `bits`
  /// hyperplanes — the prune planner uses this so each pair's bits are
  /// counted exactly once for both the estimate and its interval.
  static double EstimateCorrelationFromHamming(uint64_t hamming, size_t bits);

  /// Hoeffding deviation bound on the Hamming FRACTION p = H/k: with
  /// probability >= 1 - delta, |p_hat - p| <= sqrt(ln(2/delta) / (2k)).
  /// Each signature bit agreement is an independent Bernoulli trial (the
  /// hyperplanes are drawn independently), so the bound needs no
  /// distributional assumption about the data.
  static double HammingFractionBound(size_t bits, double delta);

  /// Error-bounded correlation estimate: given a Hamming distance `hamming`
  /// over `bits` prefix hyperplanes, writes an interval [lo, hi] (clamped to
  /// [-1, 1]) containing the population value cos(pi * p) with probability
  /// >= 1 - delta. cos is monotone decreasing on [0, pi], so the interval is
  /// the image of the clamped Hoeffding interval on p.
  static void EstimateCorrelationInterval(uint64_t hamming, size_t bits,
                                          double delta, double* lo,
                                          double* hi);

 private:
  size_t k_;
  uint64_t seed_;
};

}  // namespace foresight

#endif  // FORESIGHT_SKETCH_SIMHASH_H_
