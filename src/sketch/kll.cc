#include "sketch/kll.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace foresight {

namespace {
constexpr double kCapacityDecay = 2.0 / 3.0;
// Floor on per-level capacity. The textbook decay shrinks the bottom level
// to a handful of slots once the sketch is ~8 levels tall, which makes
// level-0 compactions (sort + promote) fire every few updates and dominates
// ingestion cost. A wider floor amortizes the same asymptotic work over 8x
// more updates at a small, bounded memory cost; rank error only improves
// because every level retains at least as many items as before.
constexpr size_t kMinLevelCapacity = 64;

// Branchless merge of two ascending runs src[lo, mid) and src[mid, hi) into
// dst. Ties keep the left run's element first (stable). The hot loop compiles
// to a cmov select + two flag-driven index bumps — no data-dependent branch,
// which is what makes this worth having: introsort on random doubles spends
// most of its cycles on branch misses, and level compaction is the dominant
// cost of KllSketch::Update.
void MergeRuns(const double* src, double* dst, size_t lo, size_t mid,
               size_t hi) {
  size_t a = lo;
  size_t b = mid;
  size_t o = lo;
  while (a < mid && b < hi) {
    const double va = src[a];
    const double vb = src[b];
    const bool take_b = vb < va;
    dst[o++] = take_b ? vb : va;
    a += static_cast<size_t>(!take_b);
    b += static_cast<size_t>(take_b);
  }
  while (a < mid) dst[o++] = src[a++];
  while (b < hi) dst[o++] = src[b++];
}

// Branchless compare-exchange: compiles to minsd/maxsd, no branch. Equal
// doubles are bitwise interchangeable, so instability is unobservable.
inline void CompareExchange(double& a, double& b) {
  const double lo = std::min(a, b);
  const double hi = std::max(a, b);
  a = lo;
  b = hi;
}

// Optimal 19-comparator, depth-6 sorting network for 8 elements (verified
// exhaustively via the 0-1 principle). Entirely branch-free, so it beats
// comparison sorts on random data where branch misses dominate.
inline void SortNetwork8(double* v) {
  CompareExchange(v[0], v[2]); CompareExchange(v[1], v[3]);
  CompareExchange(v[4], v[6]); CompareExchange(v[5], v[7]);
  CompareExchange(v[0], v[4]); CompareExchange(v[1], v[5]);
  CompareExchange(v[2], v[6]); CompareExchange(v[3], v[7]);
  CompareExchange(v[0], v[1]); CompareExchange(v[2], v[3]);
  CompareExchange(v[4], v[5]); CompareExchange(v[6], v[7]);
  CompareExchange(v[2], v[4]); CompareExchange(v[3], v[5]);
  CompareExchange(v[1], v[4]); CompareExchange(v[3], v[6]);
  CompareExchange(v[1], v[2]); CompareExchange(v[3], v[4]);
  CompareExchange(v[5], v[6]);
}

// Adaptive natural merge sort: detect ascending runs, then merge adjacent
// run pairs (ping-ponging with a scratch buffer) until one run remains.
// Higher-level buffers are concatenations of already-sorted promotion
// batches, so they sort in one or two cheap merge passes; random level-0
// buffers take ~log2(n) branchless passes. The result is the same ascending
// array std::sort produces (equal doubles are bitwise interchangeable), so
// compaction output is unchanged.
void SortLevelBuffer(std::vector<double>& buffer) {
  const size_t n = buffer.size();
  if (n < 2) return;
  static thread_local std::vector<double> temp;
  static thread_local std::vector<size_t> runs;
  static thread_local std::vector<size_t> next_runs;
  runs.clear();
  runs.push_back(0);
  for (size_t i = 1; i < n; ++i) {
    if (buffer[i] < buffer[i - 1]) runs.push_back(i);
  }
  runs.push_back(n);
  if (runs.size() == 2) return;  // Already ascending.
  if ((runs.size() - 1) * 4 > n) {
    // Mostly tiny runs — random data, the level-0 case. Natural runs average
    // length ~2 there, so swap the detected boundaries for branch-free
    // 8-element network sorts: runs start at length 8 and the merge phase
    // does ~3 fewer passes over the buffer.
    runs.clear();
    double* data = buffer.data();
    const size_t full = n - n % 8;
    for (size_t base = 0; base < full; base += 8) {
      SortNetwork8(data + base);
      runs.push_back(base);
    }
    if (full < n) {
      // Insertion-sort the short tail so it forms one final run.
      for (size_t i = full + 1; i < n; ++i) {
        const double v = data[i];
        size_t j = i;
        for (; j > full && v < data[j - 1]; --j) data[j] = data[j - 1];
        data[j] = v;
      }
      runs.push_back(full);
    }
    runs.push_back(n);
  }
  temp.resize(n);
  double* from = buffer.data();
  double* to = temp.data();
  while (runs.size() > 2) {
    next_runs.clear();
    next_runs.push_back(0);
    size_t r = 0;
    for (; r + 2 < runs.size(); r += 2) {
      MergeRuns(from, to, runs[r], runs[r + 1], runs[r + 2]);
      next_runs.push_back(runs[r + 2]);
    }
    if (r + 1 < runs.size()) {
      // Odd run count: the trailing run rides along unmerged.
      std::copy(from + runs[r], from + runs[r + 1], to + runs[r]);
      next_runs.push_back(runs[r + 1]);
    }
    std::swap(from, to);
    runs.swap(next_runs);
  }
  if (from != buffer.data()) std::copy(from, from + n, buffer.data());
}
}

KllSketch::KllSketch(size_t k_param, uint64_t seed)
    : k_param_(std::max<size_t>(8, k_param)),
      rng_state_(seed | 1),
      levels_(1) {
  RefreshCapacities();
}

void KllSketch::Update(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  ++count_;
  levels_[0].push_back(value);
  ++retained_;
  if (retained_ <= total_capacity_) return;
  Compress();
}

size_t KllSketch::RetainedItems() const {
  FORESIGHT_DCHECK(([&] {
    size_t total = 0;
    for (const auto& level : levels_) total += level.size();
    return total;
  }()) == retained_);
  return retained_;
}

double KllSketch::NormalizedRankError() const {
  return 2.296 / std::pow(static_cast<double>(k_param_), 0.9);
}

void KllSketch::RefreshCapacities() {
  // Capacity of level l with top level H: k * decay^(H - l), floored at
  // min(k, kMinLevelCapacity).
  size_t num_levels = levels_.size();
  size_t floor_cap = std::min(k_param_, kMinLevelCapacity);
  capacity_.resize(num_levels);
  total_capacity_ = 0;
  for (size_t l = 0; l < num_levels; ++l) {
    double cap = static_cast<double>(k_param_) *
                 std::pow(kCapacityDecay,
                          static_cast<double>(num_levels - 1 - l));
    capacity_[l] =
        std::max<size_t>(floor_cap, static_cast<size_t>(std::ceil(cap)));
    total_capacity_ += capacity_[l];
  }
  // The bottom level sees every update; keeping its storage pre-reserved
  // avoids reallocation churn between compactions.
  if (!levels_.empty()) levels_[0].reserve(capacity_[0] + 1);
}

void KllSketch::Compress() {
  if (retained_ <= total_capacity_) return;
  for (size_t l = 0; l < levels_.size(); ++l) {
    if (levels_[l].size() > capacity_[l]) {
      CompactLevel(l);
      return;  // One compaction per Update keeps the amortized cost low.
    }
  }
}

void KllSketch::CompactLevel(size_t level) {
  // Grow first: taking references into levels_ before emplace_back would
  // leave them dangling after reallocation.
  if (level + 1 >= levels_.size()) {
    levels_.emplace_back();
    RefreshCapacities();
  }
  std::vector<double>& buffer = levels_[level];
  if (buffer.size() < 2) return;
  SortLevelBuffer(buffer);
  // If odd, keep one item behind at this level.
  bool keep_last = (buffer.size() % 2) != 0;
  size_t pair_count = buffer.size() / 2;
  // Random offset coin flip (xorshift64*).
  rng_state_ ^= rng_state_ >> 12;
  rng_state_ ^= rng_state_ << 25;
  rng_state_ ^= rng_state_ >> 27;
  size_t offset = static_cast<size_t>((rng_state_ * 2685821657736338717ULL) >> 63);

  std::vector<double>& next = levels_[level + 1];
  for (size_t p = 0; p < pair_count; ++p) {
    next.push_back(buffer[2 * p + offset]);
  }
  if (keep_last) {
    double last = buffer.back();
    buffer.clear();
    buffer.push_back(last);
  } else {
    buffer.clear();
  }
  // Each compacted pair shrinks to one promoted item.
  retained_ -= pair_count;
  // Higher levels are queried via the global sorted merge, so we do not need
  // to keep them sorted here.
}

void KllSketch::Merge(const KllSketch& other) {
  if (other.count_ == 0) return;
  if (count_ == 0 && k_param_ == other.k_param_) {
    // Merging into an empty sketch of the same accuracy adopts the operand
    // wholesale — including its compaction RNG state, which is serialized, so
    // the adopted sketch stays bit-identical to the original through future
    // updates and round-trips.
    *this = other;
    return;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  if (other.levels_.size() > levels_.size()) {
    levels_.resize(other.levels_.size());
    RefreshCapacities();
  }
  for (size_t l = 0; l < other.levels_.size(); ++l) {
    levels_[l].insert(levels_[l].end(), other.levels_[l].begin(),
                      other.levels_[l].end());
    retained_ += other.levels_[l].size();
  }
  // Re-establish capacity invariants.
  for (size_t guard = 0; guard < 64; ++guard) {
    size_t before = RetainedItems();
    Compress();
    if (RetainedItems() == before) break;
  }
}

KllSortedView KllSketch::SortedView() const {
  std::vector<std::pair<double, uint64_t>> items;
  items.reserve(RetainedItems());
  for (size_t l = 0; l < levels_.size(); ++l) {
    uint64_t weight = uint64_t{1} << l;
    for (double v : levels_[l]) items.emplace_back(v, weight);
  }
  std::sort(items.begin(), items.end());
  KllSortedView view;
  view.count_ = count_;
  view.min_ = min_;
  view.max_ = max_;
  view.values_.reserve(items.size());
  view.cumulative_.reserve(items.size());
  uint64_t total_weight = 0;
  double cumulative = 0.0;
  for (const auto& [value, weight] : items) {
    total_weight += weight;
    cumulative += static_cast<double>(weight);
    view.values_.push_back(value);
    view.cumulative_.push_back(cumulative);
  }
  view.total_weight_ = static_cast<double>(total_weight);
  return view;
}

double KllSortedView::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  // The first item whose running weight reaches the target. No running
  // weight reaches a NaN target, so NaN q answers max like an exhausted scan.
  const double target = q * total_weight_;
  if (std::isnan(target)) return max_;
  auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), target);
  if (it == cumulative_.end()) return max_;
  return values_[static_cast<size_t>(it - cumulative_.begin())];
}

double KllSortedView::Rank(double value) const {
  if (count_ == 0 || values_.empty() || std::isnan(value)) return 0.0;
  // Weight of the items <= value. Running weights are sums of powers of two,
  // exact in a double while the stream holds fewer than 2^53 values.
  const size_t below = static_cast<size_t>(
      std::upper_bound(values_.begin(), values_.end(), value) -
      values_.begin());
  if (below == 0) return 0.0;
  return cumulative_[below - 1] / total_weight_;
}

KllSketch KllSketch::FromRaw(size_t k_param, uint64_t rng_state,
                             uint64_t count, double min, double max,
                             std::vector<std::vector<double>> levels) {
  KllSketch sketch(k_param, 1);
  // Preserve the state verbatim so serialize/deserialize is a fixed point:
  // compaction's xorshift64* walk can legitimately reach even states, and
  // only the all-zero state is degenerate.
  sketch.rng_state_ = rng_state != 0 ? rng_state : 1;
  sketch.count_ = count;
  sketch.min_ = min;
  sketch.max_ = max;
  if (!levels.empty()) sketch.levels_ = std::move(levels);
  sketch.retained_ = 0;
  for (const auto& level : sketch.levels_) sketch.retained_ += level.size();
  sketch.RefreshCapacities();
  return sketch;
}

}  // namespace foresight
