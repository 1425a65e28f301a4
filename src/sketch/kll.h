#ifndef FORESIGHT_SKETCH_KLL_H_
#define FORESIGHT_SKETCH_KLL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace foresight {

/// A KLL sketch's retained items in ascending order with their cumulative
/// weights: the form quantile and rank queries read. KllSketch::SortedView
/// builds it; a finalized NumericColumnSketch keeps one so its queries never
/// sort. Not serialized: it is a pure function of the sketch.
class KllSortedView {
 public:
  /// Same contracts as KllSketch::Quantile / KllSketch::Rank.
  double Quantile(double q) const;
  double Rank(double value) const;

  /// Retained items by value (ties by weight), and the running weight
  /// through each, summed as doubles in that order.
  const std::vector<double>& values() const { return values_; }
  const std::vector<double>& cumulative_weights() const { return cumulative_; }

  size_t MemoryBytes() const {
    return (values_.capacity() + cumulative_.capacity()) * sizeof(double);
  }

 private:
  friend class KllSketch;

  uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  /// The integer total weight, converted once.
  double total_weight_ = 0.0;
  std::vector<double> values_;
  std::vector<double> cumulative_;
};

/// KLL streaming quantile sketch (Karnin, Lang, Liberty 2016) — the paper's
/// "quantile sketch" (§3). Answers rank/quantile/CDF queries over a numeric
/// stream with additive rank error eps ~ O(1/k_param), using O(k_param)
/// memory independent of stream length. Fully mergeable.
class KllSketch {
 public:
  /// `k_param` controls accuracy/space (typical 100-400; rank error ~1-2%
  /// at 200). `seed` drives the randomized compaction coin flips.
  explicit KllSketch(size_t k_param = 200, uint64_t seed = 7);

  /// Inserts one value. Amortized O(log(n/k)).
  void Update(double value);

  /// Merges another sketch (any k_param) into this one.
  void Merge(const KllSketch& other);

  /// Total values inserted.
  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Estimated value at normalized rank q in [0, 1]. Returns 0 on empty.
  /// Sorts the retained items on every call; repeated queries should build
  /// SortedView() once.
  double Quantile(double q) const { return SortedView().Quantile(q); }

  /// Estimated normalized rank of `value`: fraction of stream <= value.
  double Rank(double value) const { return SortedView().Rank(value); }

  /// The retained items sorted for queries: the one place they are sorted.
  KllSortedView SortedView() const;

  /// Exact minimum / maximum of the stream (tracked separately).
  double min() const { return min_; }
  double max() const { return max_; }

  /// Number of (value, weight) pairs currently retained.
  size_t RetainedItems() const;

  /// A-priori additive rank-error bound (two-sided, ~99% confidence),
  /// per the KLL analysis: eps ~ 2.296 / k ^ 0.9.
  double NormalizedRankError() const;

  /// Raw state, exposed for serialization.
  size_t k_param() const { return k_param_; }
  uint64_t rng_state() const { return rng_state_; }
  const std::vector<std::vector<double>>& levels() const { return levels_; }

  /// Reconstructs a sketch from its raw state (deserialization).
  static KllSketch FromRaw(size_t k_param, uint64_t rng_state, uint64_t count,
                           double min, double max,
                           std::vector<std::vector<double>> levels);

 private:
  void Compress();
  void CompactLevel(size_t level);
  /// Recomputes the cached per-level capacities for the current level count.
  /// Update() is the ingestion hot path, so capacities (which involve a pow()
  /// per level) are cached and refreshed only when the level structure
  /// changes; compaction decisions are identical to recomputing them fresh.
  void RefreshCapacities();

  size_t k_param_;
  uint64_t rng_state_;
  uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  /// levels_[h] holds items with weight 2^h. Level 0 is the unsorted buffer;
  /// higher levels are kept sorted.
  std::vector<std::vector<double>> levels_;
  /// Total retained items across levels, maintained incrementally (equals
  /// RetainedItems(); cached so Update() stays O(1) off the compaction path).
  size_t retained_ = 0;
  /// Cached capacity schedule for the current levels_.size() (see
  /// RefreshCapacities).
  std::vector<size_t> capacity_;
  size_t total_capacity_ = 0;
};

}  // namespace foresight

#endif  // FORESIGHT_SKETCH_KLL_H_
