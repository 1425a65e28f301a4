#ifndef FORESIGHT_UTIL_FIRST_ERROR_H_
#define FORESIGHT_UTIL_FIRST_ERROR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/status.h"
#include "util/sync.h"

namespace foresight {

/// Collects the error of the LOWEST work-item index across concurrent
/// workers, so a parallel run reports exactly the error a serial
/// left-to-right scan would have hit first — regardless of thread timing.
/// Used by the engine's candidate and overview evaluation (any
/// position-indexed parallel loop with serial-identical error semantics).
///
/// Leaf lock: Record/status hold mutex_ only across the index compare and
/// Status copy; nothing else is acquired under it.
class FirstError {
 public:
  bool has_error() const {
    return min_index_.load(std::memory_order_acquire) != SIZE_MAX;
  }

  /// True when an error at an index <= `index` is already recorded, meaning
  /// work item `index` cannot change the outcome and may be skipped.
  bool ShadowedAt(size_t index) const {
    return min_index_.load(std::memory_order_relaxed) <= index;
  }

  void Record(size_t index, Status status) {
    MutexLock lock(mutex_);
    if (index < min_index_.load(std::memory_order_relaxed)) {
      min_index_.store(index, std::memory_order_release);
      status_ = std::move(status);
    }
  }

  /// The recorded error (or OK when none). Takes the lock — a concurrent
  /// Record must never be observed half-applied — so call it after the
  /// parallel region, not per work item.
  Status status() const {
    MutexLock lock(mutex_);
    return status_;
  }

 private:
  std::atomic<size_t> min_index_{SIZE_MAX};
  mutable Mutex mutex_;
  Status status_ FORESIGHT_GUARDED_BY(mutex_);
};

}  // namespace foresight

#endif  // FORESIGHT_UTIL_FIRST_ERROR_H_
