#include "stats/correlation.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "util/logging.h"
#include "util/simd_clones.h"

namespace foresight {

CenteredMoments ComputeCenteredMoments(const std::vector<double>& x) {
  FORESIGHT_CHECK(!x.empty());
  CenteredMoments moments;
  moments.mean =
      std::accumulate(x.begin(), x.end(), 0.0) / static_cast<double>(x.size());
  for (double v : x) {
    const double d = v - moments.mean;
    moments.sum_squares += d * d;
  }
  return moments;
}

double CenteredCrossProduct(const std::vector<double>& x, double mean_x,
                            const std::vector<double>& y, double mean_y) {
  FORESIGHT_CHECK(x.size() == y.size());
  double sxy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mean_x) * (y[i] - mean_y);
  }
  return sxy;
}

double PearsonFromSums(double sxy, double sxx, double syy) {
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  double rho = sxy / std::sqrt(sxx * syy);
  return std::clamp(rho, -1.0, 1.0);
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  FORESIGHT_CHECK(x.size() == y.size());
  if (x.size() < 2) return 0.0;
  const CenteredMoments mx = ComputeCenteredMoments(x);
  const CenteredMoments my = ComputeCenteredMoments(y);
  return PearsonFromSums(CenteredCrossProduct(x, mx.mean, y, my.mean),
                         mx.sum_squares, my.sum_squares);
}

namespace {

/// Maps a non-NaN double to a key whose unsigned order is the value order.
/// -0.0 and +0.0 map to adjacent keys.
uint64_t OrderedKey(double value) {
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  constexpr uint64_t kSign = uint64_t{1} << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

double FromOrderedKey(uint64_t key) {
  constexpr uint64_t kSign = uint64_t{1} << 63;
  return std::bit_cast<double>((key & kSign) != 0 ? key & ~kSign : ~key);
}

}  // namespace

std::vector<double> FractionalRanks(const std::vector<double>& values) {
  const size_t n = values.size();
  if (n == 0) return {};
  FORESIGHT_CHECK(n <= std::numeric_limits<uint32_t>::max());
  // Stable LSD radix sort of (key, position) pairs, 11 bits a pass. One
  // sweep builds every pass's histogram, and a pass whose digit is the same
  // for every key moves nothing, so it is skipped. Ranks depend only on the
  // tie groups, and those are the same as under any comparison sort.
  constexpr unsigned kDigitBits = 11;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  constexpr unsigned kPasses = (64 + kDigitBits - 1) / kDigitBits;
  std::vector<uint64_t> keys(n);
  std::vector<uint64_t> keys_next(n);
  std::vector<uint32_t> order(n);
  std::vector<uint32_t> order_next(n);
  std::vector<uint32_t> counts(kPasses * kBuckets, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = OrderedKey(values[i]);
    keys[i] = key;
    order[i] = static_cast<uint32_t>(i);
    for (unsigned p = 0; p < kPasses; ++p) {
      ++counts[p * kBuckets + ((key >> (p * kDigitBits)) & (kBuckets - 1))];
    }
  }
  for (unsigned p = 0; p < kPasses; ++p) {
    const unsigned shift = p * kDigitBits;
    uint32_t* offsets = counts.data() + p * kBuckets;
    if (offsets[(keys[0] >> shift) & (kBuckets - 1)] == n) continue;
    uint32_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint32_t count = offsets[b];
      offsets[b] = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t slot = offsets[(keys[i] >> shift) & (kBuckets - 1)]++;
      keys_next[slot] = keys[i];
      order_next[slot] = order[i];
    }
    keys.swap(keys_next);
    order.swap(order_next);
  }
  std::vector<double> ranks(n);
  size_t i = 0;
  while (i < n) {
    const double value = FromOrderedKey(keys[i]);
    size_t j = i;
    while (j + 1 < n && FromOrderedKey(keys[j + 1]) == value) ++j;
    // Average rank for the tie group [i, j] (1-based ranks).
    double avg_rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg_rank;
    i = j + 1;
  }
  return ranks;
}

double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y) {
  FORESIGHT_CHECK(x.size() == y.size());
  if (x.size() < 2) return 0.0;
  return PearsonCorrelation(FractionalRanks(x), FractionalRanks(y));
}

namespace {

/// Counts inversions in `values` (by stable merge sort), i.e. discordant
/// swaps needed to sort; used by Kendall's tau.
uint64_t CountInversions(std::vector<double>& values, std::vector<double>& tmp,
                         size_t lo, size_t hi) {
  if (hi - lo < 2) return 0;
  size_t mid = lo + (hi - lo) / 2;
  uint64_t count = CountInversions(values, tmp, lo, mid) +
                   CountInversions(values, tmp, mid, hi);
  size_t a = lo, b = mid, out = lo;
  while (a < mid && b < hi) {
    if (values[b] < values[a]) {
      count += mid - a;
      tmp[out++] = values[b++];
    } else {
      tmp[out++] = values[a++];
    }
  }
  while (a < mid) tmp[out++] = values[a++];
  while (b < hi) tmp[out++] = values[b++];
  std::copy(tmp.begin() + static_cast<ptrdiff_t>(lo),
            tmp.begin() + static_cast<ptrdiff_t>(hi),
            values.begin() + static_cast<ptrdiff_t>(lo));
  return count;
}

/// Sum over tie groups of t*(t-1)/2 in a sorted vector.
uint64_t TiePairs(std::vector<double> sorted) {
  std::sort(sorted.begin(), sorted.end());
  uint64_t pairs = 0;
  size_t i = 0;
  while (i < sorted.size()) {
    size_t j = i;
    while (j + 1 < sorted.size() && sorted[j + 1] == sorted[i]) ++j;
    uint64_t t = j - i + 1;
    pairs += t * (t - 1) / 2;
    i = j + 1;
  }
  return pairs;
}

}  // namespace

double KendallTau(const std::vector<double>& x, const std::vector<double>& y) {
  FORESIGHT_CHECK(x.size() == y.size());
  size_t n = x.size();
  if (n < 2) return 0.0;

  // Sort indices by x, then y (so x-ties are ordered by y, making y-inversions
  // within an x-tie group count as neither concordant nor discordant).
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (x[a] != x[b]) return x[a] < x[b];
    return y[a] < y[b];
  });

  // Count joint ties (same x AND same y).
  uint64_t joint_tie_pairs = 0;
  {
    size_t i = 0;
    while (i < n) {
      size_t j = i;
      while (j + 1 < n && x[order[j + 1]] == x[order[i]] &&
             y[order[j + 1]] == y[order[i]]) {
        ++j;
      }
      uint64_t t = j - i + 1;
      joint_tie_pairs += t * (t - 1) / 2;
      i = j + 1;
    }
  }

  std::vector<double> y_sorted_by_x(n);
  for (size_t i = 0; i < n; ++i) y_sorted_by_x[i] = y[order[i]];
  std::vector<double> tmp(n);
  std::vector<double> work = y_sorted_by_x;
  uint64_t discordant = CountInversions(work, tmp, 0, n);

  uint64_t total_pairs = static_cast<uint64_t>(n) * (n - 1) / 2;
  uint64_t tie_x = TiePairs(x);
  uint64_t tie_y = TiePairs(y);
  // Pairs tied in x only were sorted by y, so they contributed no inversions.
  // Concordant + discordant pairs exclude all ties:
  double n0 = static_cast<double>(total_pairs);
  double n1 = static_cast<double>(tie_x);
  double n2 = static_cast<double>(tie_y);
  double n3 = static_cast<double>(joint_tie_pairs);
  double usable = n0 - n1 - n2 + n3;  // pairs untied in both
  if (usable <= 0.0) return 0.0;
  double concordant = usable - static_cast<double>(discordant);
  double numerator = concordant - static_cast<double>(discordant);
  double denominator = std::sqrt((n0 - n1) * (n0 - n2));
  if (denominator <= 0.0) return 0.0;
  return std::clamp(numerator / denominator, -1.0, 1.0);
}

namespace {

// Blocked kernels for PairedMomentsBlocked. Each accumulator is split into
// four lanes; row j lands in lane j mod 4, and lanes combine in the fixed
// order ((l0 + l1) + (l2 + l3)) at the end. That lane partition is the
// rounding specification: the AVX2 clone vectorizes across lanes only, and
// AVX2 has no FMA, so both clones produce identical bits.

FORESIGHT_KERNEL_CLONES
void PairSumsKernel(const double* x, const double* y, size_t n,
                    double* sum_x, double* sum_y) {
  double sx0 = 0.0, sx1 = 0.0, sx2 = 0.0, sx3 = 0.0;
  double sy0 = 0.0, sy1 = 0.0, sy2 = 0.0, sy3 = 0.0;
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    sx0 += x[j];
    sx1 += x[j + 1];
    sx2 += x[j + 2];
    sx3 += x[j + 3];
    sy0 += y[j];
    sy1 += y[j + 1];
    sy2 += y[j + 2];
    sy3 += y[j + 3];
  }
  for (; j < n; ++j) {
    switch (j & 3) {
      case 0: sx0 += x[j]; sy0 += y[j]; break;
      case 1: sx1 += x[j]; sy1 += y[j]; break;
      case 2: sx2 += x[j]; sy2 += y[j]; break;
      default: sx3 += x[j]; sy3 += y[j]; break;
    }
  }
  *sum_x = (sx0 + sx1) + (sx2 + sx3);
  *sum_y = (sy0 + sy1) + (sy2 + sy3);
}

FORESIGHT_KERNEL_CLONES
void CenteredProductsKernel(const double* x, const double* y, size_t n,
                            double mean_x, double mean_y, double* sxy,
                            double* sxx, double* syy) {
  double xy0 = 0.0, xy1 = 0.0, xy2 = 0.0, xy3 = 0.0;
  double xx0 = 0.0, xx1 = 0.0, xx2 = 0.0, xx3 = 0.0;
  double yy0 = 0.0, yy1 = 0.0, yy2 = 0.0, yy3 = 0.0;
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const double dx0 = x[j] - mean_x, dy0 = y[j] - mean_y;
    const double dx1 = x[j + 1] - mean_x, dy1 = y[j + 1] - mean_y;
    const double dx2 = x[j + 2] - mean_x, dy2 = y[j + 2] - mean_y;
    const double dx3 = x[j + 3] - mean_x, dy3 = y[j + 3] - mean_y;
    xy0 += dx0 * dy0;
    xy1 += dx1 * dy1;
    xy2 += dx2 * dy2;
    xy3 += dx3 * dy3;
    xx0 += dx0 * dx0;
    xx1 += dx1 * dx1;
    xx2 += dx2 * dx2;
    xx3 += dx3 * dx3;
    yy0 += dy0 * dy0;
    yy1 += dy1 * dy1;
    yy2 += dy2 * dy2;
    yy3 += dy3 * dy3;
  }
  for (; j < n; ++j) {
    const double dx = x[j] - mean_x;
    const double dy = y[j] - mean_y;
    switch (j & 3) {
      case 0: xy0 += dx * dy; xx0 += dx * dx; yy0 += dy * dy; break;
      case 1: xy1 += dx * dy; xx1 += dx * dx; yy1 += dy * dy; break;
      case 2: xy2 += dx * dy; xx2 += dx * dx; yy2 += dy * dy; break;
      default: xy3 += dx * dy; xx3 += dx * dx; yy3 += dy * dy; break;
    }
  }
  *sxy = (xy0 + xy1) + (xy2 + xy3);
  *sxx = (xx0 + xx1) + (xx2 + xx3);
  *syy = (yy0 + yy1) + (yy2 + yy3);
}

}  // namespace

PairedMoments PairedMomentsBlocked(const NumericColumn& a,
                                   const NumericColumn& b) {
  FORESIGHT_CHECK(a.size() == b.size());
  // Per-worker scratch: the engine pool refines many pairs per thread, and
  // reusing the compaction buffers keeps the hot path allocation-free.
  static thread_local std::vector<double> xs_scratch;
  static thread_local std::vector<double> ys_scratch;

  const double* x = nullptr;
  const double* y = nullptr;
  size_t count = 0;
  if (a.null_count() == 0 && b.null_count() == 0) {
    // Dense fast path: kernels read the raw buffers directly.
    x = a.values().data();
    y = b.values().data();
    count = a.size();
  } else {
    xs_scratch.clear();
    ys_scratch.clear();
    xs_scratch.reserve(a.size());
    ys_scratch.reserve(a.size());
    for (size_t i = 0; i < a.size(); ++i) {
      if (a.is_valid(i) && b.is_valid(i)) {
        xs_scratch.push_back(a.value(i));
        ys_scratch.push_back(b.value(i));
      }
    }
    x = xs_scratch.data();
    y = ys_scratch.data();
    count = xs_scratch.size();
  }

  PairedMoments moments;
  moments.count = count;
  if (count == 0) return moments;
  double sum_x = 0.0, sum_y = 0.0;
  PairSumsKernel(x, y, count, &sum_x, &sum_y);
  moments.mean_x = sum_x / static_cast<double>(count);
  moments.mean_y = sum_y / static_cast<double>(count);
  CenteredProductsKernel(x, y, count, moments.mean_x, moments.mean_y,
                         &moments.sxy, &moments.sxx, &moments.syy);
  return moments;
}

double PearsonPairedBlocked(const NumericColumn& a, const NumericColumn& b) {
  PairedMoments m = PairedMomentsBlocked(a, b);
  if (m.count < 2) return 0.0;
  if (m.sxx <= 0.0 || m.syy <= 0.0) return 0.0;
  return std::clamp(m.sxy / std::sqrt(m.sxx * m.syy), -1.0, 1.0);
}

PairedValues ExtractPairedValid(const NumericColumn& a,
                                const NumericColumn& b) {
  FORESIGHT_CHECK(a.size() == b.size());
  PairedValues out;
  out.x.reserve(a.valid_count());
  out.y.reserve(a.valid_count());
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.is_valid(i) && b.is_valid(i)) {
      out.x.push_back(a.value(i));
      out.y.push_back(b.value(i));
    }
  }
  return out;
}

}  // namespace foresight
