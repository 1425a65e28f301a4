#include "sketch/simhash.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.h"
#include "util/random.h"

namespace foresight {

namespace {
constexpr double kPi = 3.14159265358979323846;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

BitSignature::BitSignature(size_t num_bits)
    : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

uint64_t BitSignature::HammingDistance(const BitSignature& a,
                                       const BitSignature& b) {
  FORESIGHT_CHECK(a.num_bits_ == b.num_bits_);
  uint64_t distance = 0;
  for (size_t w = 0; w < a.words_.size(); ++w) {
    distance += static_cast<uint64_t>(std::popcount(a.words_[w] ^ b.words_[w]));
  }
  return distance;
}

uint64_t BitSignature::HammingDistancePrefix(const BitSignature& a,
                                             const BitSignature& b,
                                             size_t bits) {
  FORESIGHT_CHECK(a.num_bits_ == b.num_bits_);
  FORESIGHT_CHECK(bits <= a.num_bits_);
  uint64_t distance = 0;
  size_t full_words = bits / 64;
  for (size_t w = 0; w < full_words; ++w) {
    distance += static_cast<uint64_t>(std::popcount(a.words_[w] ^ b.words_[w]));
  }
  size_t tail = bits % 64;
  if (tail > 0) {
    uint64_t mask = (uint64_t{1} << tail) - 1;
    distance += static_cast<uint64_t>(
        std::popcount((a.words_[full_words] ^ b.words_[full_words]) & mask));
  }
  return distance;
}

void HyperplaneAccumulator::Merge(const HyperplaneAccumulator& other) {
  if (other.dot.empty()) return;
  if (dot.empty()) {
    *this = other;
    return;
  }
  FORESIGHT_CHECK(dot.size() == other.dot.size());
  for (size_t i = 0; i < dot.size(); ++i) {
    dot[i] += other.dot[i];
    ones_dot[i] += other.ones_dot[i];
  }
}

HyperplaneSketcher::HyperplaneSketcher(size_t k, uint64_t seed)
    : k_(k), seed_(seed) {
  FORESIGHT_CHECK(k >= 1);
}

void HyperplaneSketcher::AccumulateRange(const std::vector<double>& values,
                                         size_t row_offset,
                                         HyperplaneAccumulator& acc) const {
  if (acc.dot.empty()) {
    acc.dot.assign(k_, 0.0);
    acc.ones_dot.assign(k_, 0.0);
  }
  FORESIGHT_CHECK(acc.dot.size() == k_);
  std::vector<double> hyperplane_row(k_);
  for (size_t r = 0; r < values.size(); ++r) {
    GenerateRowHyperplanes(row_offset + r, hyperplane_row);
    double v = values[r];
    for (size_t i = 0; i < k_; ++i) {
      acc.dot[i] += v * hyperplane_row[i];
      acc.ones_dot[i] += hyperplane_row[i];
    }
  }
}

void HyperplaneSketcher::GenerateRowHyperplanes(size_t row,
                                                std::vector<double>& out) const {
  out.resize(k_);
  GenerateRowHyperplanes(row, out.data());
}

void HyperplaneSketcher::GenerateRowHyperplanes(size_t row, double* out) const {
  // Deterministic Gaussian hyperplane components for this absolute row:
  // shared across columns sketched with the same (k, seed).
  Rng rng(SplitMix64(seed_ ^ row));
  rng.FillNormals(out, k_);
}

BitSignature HyperplaneSketcher::Finalize(const HyperplaneAccumulator& acc,
                                          double mean) const {
  FORESIGHT_CHECK(acc.dot.size() == k_);
  BitSignature signature(k_);
  for (size_t i = 0; i < k_; ++i) {
    double centered = acc.dot[i] - mean * acc.ones_dot[i];
    signature.set_bit(i, centered >= 0.0);
  }
  return signature;
}

BitSignature HyperplaneSketcher::Sketch(const std::vector<double>& values,
                                        double mean) const {
  HyperplaneAccumulator acc;
  AccumulateRange(values, 0, acc);
  return Finalize(acc, mean);
}

double HyperplaneSketcher::EstimateCorrelation(const BitSignature& a,
                                               const BitSignature& b) {
  FORESIGHT_CHECK(a.num_bits() == b.num_bits());
  FORESIGHT_CHECK(a.num_bits() > 0);
  return EstimateCorrelationFromHamming(BitSignature::HammingDistance(a, b),
                                        a.num_bits());
}

double HyperplaneSketcher::EstimateCorrelationPrefix(const BitSignature& a,
                                                     const BitSignature& b,
                                                     size_t bits) {
  return EstimateCorrelationFromHamming(
      BitSignature::HammingDistancePrefix(a, b, bits), bits);
}

double HyperplaneSketcher::EstimateCorrelationFromHamming(uint64_t hamming,
                                                          size_t bits) {
  FORESIGHT_CHECK(bits > 0);
  return std::cos(kPi * static_cast<double>(hamming) /
                  static_cast<double>(bits));
}

double HyperplaneSketcher::HammingFractionBound(size_t bits, double delta) {
  FORESIGHT_CHECK(bits > 0);
  FORESIGHT_CHECK(delta > 0.0 && delta < 1.0);
  return std::sqrt(std::log(2.0 / delta) / (2.0 * static_cast<double>(bits)));
}

void HyperplaneSketcher::EstimateCorrelationInterval(uint64_t hamming,
                                                     size_t bits, double delta,
                                                     double* lo, double* hi) {
  const double p_hat =
      static_cast<double>(hamming) / static_cast<double>(bits);
  const double eps = HammingFractionBound(bits, delta);
  // cos is decreasing on [0, pi]: the largest plausible p gives the lower
  // correlation bound and vice versa.
  const double p_max = std::min(1.0, p_hat + eps);
  const double p_min = std::max(0.0, p_hat - eps);
  *lo = std::clamp(std::cos(kPi * p_max), -1.0, 1.0);
  *hi = std::clamp(std::cos(kPi * p_min), -1.0, 1.0);
}

}  // namespace foresight
