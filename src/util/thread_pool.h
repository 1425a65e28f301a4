#ifndef FORESIGHT_UTIL_THREAD_POOL_H_
#define FORESIGHT_UTIL_THREAD_POOL_H_

#include <atomic>
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
  /// runs inline on the caller.
  explicit ThreadPool(size_t num_threads = 0);

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

  /// Points the pool at a registry for observability: tasks executed, queue
  /// depth, ParallelFor count and wall time, and a static thread-count gauge
  /// ("thread_pool.*"). Pass nullptr to detach. The pool shares ownership of
  /// the registry, so workers draining the queue during shutdown can still
  /// touch their metrics even if every other owner is gone. When detached —
  /// the default — ParallelFor reads no clock, keeping metrics-free runs
  /// clock-free.
  void AttachMetrics(std::shared_ptr<MetricsRegistry> registry);

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

  // Observability hooks; null when no registry is attached. Release stores /
  // acquire loads: each pointer publishes a freshly constructed metric, so
  // readers need the happens-before edge to its construction (a worker
  // observing a half-attached *set* of hooks is fine — a few early events go
  // uncounted — but observing an unconstructed metric is not). AttachMetrics
  // is a setup-time call (not safe against concurrent AttachMetrics), but
  // workers may hold raw hook pointers at any moment, so every registry ever
  // attached is retained until the pool is destroyed — see retired_registries_.
  std::shared_ptr<MetricsRegistry> metrics_registry_;
  /// Previously attached registries, kept alive because a worker may still be
  /// about to touch a Counter/Gauge it resolved from one of them. Bounded by
  /// the number of AttachMetrics calls (in practice: one).
  std::vector<std::shared_ptr<MetricsRegistry>> retired_registries_;
  std::atomic<Counter*> tasks_executed_{nullptr};
  std::atomic<Counter*> parallel_fors_{nullptr};
  std::atomic<LatencyHistogram*> parallel_for_ms_{nullptr};
  std::atomic<Gauge*> queue_depth_{nullptr};
};

}  // namespace foresight

#endif  // FORESIGHT_UTIL_THREAD_POOL_H_
