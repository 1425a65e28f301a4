#ifndef FORESIGHT_UTIL_THREAD_POOL_H_
#define FORESIGHT_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace foresight {

class Counter;
class Gauge;
class LatencyHistogram;
class MetricsRegistry;

/// A persistent pool of worker threads with one blocking primitive,
/// `ParallelFor`. Replaces the previous per-query `std::thread` spawn/join
/// (the threads outlive any single call, so a query pays zero thread-creation
/// cost) and gives every hot path — preprocessing, candidate evaluation,
/// pairwise overviews — one shared, bounded set of threads instead of each
/// layer spawning its own.
///
/// Scheduling model: work-sharing, not work-stealing. `ParallelFor` splits
/// [begin, end) into fixed chunks of `grain` indices; idle workers (and the
/// calling thread itself) repeatedly claim the next unclaimed chunk via an
/// atomic counter. Chunk *boundaries* are therefore deterministic; only the
/// chunk-to-thread assignment varies between runs, so callers that write
/// results into position-indexed slots get run-to-run identical output.
///
/// Reentrancy: `ParallelFor` may be called from inside a task running on this
/// pool (e.g. a query served by a Submit-ted HTTP job fans out its candidate
/// evaluation). The calling thread always participates in executing its own
/// chunks, so nested calls make progress even when every worker is busy —
/// there is no deadlock by construction.
class ThreadPool {
 public:
  /// `num_threads` is the total parallelism (including the calling thread of
  /// a ParallelFor). 0 resolves to std::thread::hardware_concurrency().
  /// With a resolved value of 1 no threads are spawned and every ParallelFor
  /// runs inline on the caller, in chunk order — the serial loop.
  ///
  /// `metrics`, when non-null, receives the pool's observability: tasks
  /// executed, queue depth, ParallelFor count and wall time, and a static
  /// thread-count gauge ("thread_pool.*"). The hooks are resolved here,
  /// before any worker starts, and never change; the pool shares ownership
  /// of the registry, so workers draining the queue during shutdown can
  /// still touch their metrics after every other owner is gone. Without a
  /// registry ParallelFor reads no clock, keeping metrics-free runs
  /// clock-free.
  explicit ThreadPool(size_t num_threads = 0,
                      std::shared_ptr<MetricsRegistry> metrics = nullptr);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Total parallelism (resolved, >= 1). Spawned threads are num_threads()-1.
  size_t num_threads() const { return num_threads_; }

  /// Invokes `fn(chunk_begin, chunk_end)` over consecutive chunks of at most
  /// `grain` indices covering [begin, end), potentially concurrently, and
  /// blocks until every chunk has finished. The calling thread participates.
  /// If any invocation throws, the first exception (from the lowest-numbered
  /// chunk that threw) is rethrown here after all chunks complete; `fn` must
  /// therefore be safe to run for chunks after a failing one.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  /// Enqueues a standalone fire-and-forget task for a spawned worker (used by
  /// the serve front-end to drain its admission queue on engine workers).
  /// Returns false without enqueuing when the pool spawned no workers
  /// (num_threads() == 1) — the task would never run; callers must provide
  /// their own thread in that configuration. Tasks still queued at
  /// destruction are drained, not dropped, so a submitted task always runs
  /// as long as the pool outlives the Submit call; `task` must not throw.
  bool Submit(std::function<void()> task);

 private:
  struct ForJob;

  void WorkerLoop();
  static void RunJob(ForJob& job);

  size_t num_threads_;
  std::vector<std::thread> threads_;

  Mutex queue_mutex_;
  CondVar queue_cv_;
  std::deque<std::function<void()>> queue_ FORESIGHT_GUARDED_BY(queue_mutex_);
  bool stopping_ FORESIGHT_GUARDED_BY(queue_mutex_) = false;

  // Observability hooks into metrics_registry_; null without a registry. Set
  // in the constructor before any worker exists and never changed, so
  // workers read them without synchronization.
  std::shared_ptr<MetricsRegistry> metrics_registry_;
  Counter* tasks_executed_ = nullptr;
  Counter* parallel_fors_ = nullptr;
  LatencyHistogram* parallel_for_ms_ = nullptr;
  Gauge* queue_depth_ = nullptr;
};

}  // namespace foresight

#endif  // FORESIGHT_UTIL_THREAD_POOL_H_
