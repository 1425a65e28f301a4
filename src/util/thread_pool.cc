#include "util/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "util/metrics.h"
#include "util/timer.h"

namespace foresight {

/// Shared state of one ParallelFor call. Kept alive by shared_ptr until the
/// last helper task drops it, so helpers dequeued after the call already
/// returned find `next_chunk >= num_chunks` and exit immediately.
struct ThreadPool::ForJob {
  size_t begin = 0;
  size_t grain = 1;
  size_t num_chunks = 0;
  size_t end = 0;
  const std::function<void(size_t, size_t)>* fn = nullptr;

  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> chunks_done{0};

  Mutex mutex;
  CondVar done_cv;
  // First exception by chunk order (not completion order), so a rethrown
  // error is deterministic across runs.
  std::exception_ptr error FORESIGHT_GUARDED_BY(mutex);
  size_t error_chunk FORESIGHT_GUARDED_BY(mutex) = SIZE_MAX;
};

ThreadPool::ThreadPool(size_t num_threads,
                       std::shared_ptr<MetricsRegistry> metrics)
    : metrics_registry_(std::move(metrics)) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
  }
  num_threads_ = num_threads == 0 ? 1 : num_threads;
  // Resolve every hook before the first worker starts: thread creation
  // publishes them, so workers read plain pointers that never change.
  if (MetricsRegistry* registry = metrics_registry_.get()) {
    registry->gauge("thread_pool.threads")
        .Set(static_cast<double>(num_threads_));
    tasks_executed_ = &registry->counter("thread_pool.tasks_executed_total");
    parallel_fors_ = &registry->counter("thread_pool.parallel_fors_total");
    parallel_for_ms_ = &registry->histogram("thread_pool.parallel_for_ms");
    queue_depth_ = &registry->gauge("thread_pool.queue_depth");
  }
  threads_.reserve(num_threads_ - 1);
  for (size_t i = 0; i + 1 < num_threads_; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& thread : threads_) thread.join();
}

bool ThreadPool::Submit(std::function<void()> task) {
  if (num_threads_ <= 1) return false;
  {
    MutexLock lock(queue_mutex_);
    queue_.emplace_back(std::move(task));
    if (queue_depth_ != nullptr) {
      queue_depth_->Set(static_cast<double>(queue_.size()));
    }
  }
  queue_cv_.NotifyOne();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(queue_mutex_);
      while (!stopping_ && queue_.empty()) queue_cv_.Wait(queue_mutex_);
      if (queue_.empty()) return;  // stopping_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
      if (queue_depth_ != nullptr) {
        queue_depth_->Set(static_cast<double>(queue_.size()));
      }
    }
    if (tasks_executed_ != nullptr) tasks_executed_->Increment();
    task();
  }
}

void ThreadPool::RunJob(ForJob& job) {
  for (;;) {
    size_t chunk = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.num_chunks) return;
    size_t chunk_begin = job.begin + chunk * job.grain;
    size_t chunk_end = std::min(job.end, chunk_begin + job.grain);
    try {
      (*job.fn)(chunk_begin, chunk_end);
    } catch (...) {
      MutexLock lock(job.mutex);
      if (chunk < job.error_chunk) {
        job.error_chunk = chunk;
        job.error = std::current_exception();
      }
    }
    if (job.chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.num_chunks) {
      MutexLock lock(job.mutex);
      job.done_cv.NotifyAll();
    }
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;

  if (parallel_fors_ != nullptr) parallel_fors_->Increment();
  // ParallelFor wall time is observability-only; the clock read is gated on
  // a registry, so metrics-free runs stay clock-free.
  // determinism-ok: observability timing, never feeds ranking
  WallTimer timer{kDeferredStart};
  if (parallel_for_ms_ != nullptr) timer.Restart();

  size_t span = end - begin;
  size_t num_chunks = (span + grain - 1) / grain;
  if (num_threads_ <= 1 || num_chunks <= 1) {
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      size_t chunk_begin = begin + chunk * grain;
      fn(chunk_begin, std::min(end, chunk_begin + grain));
    }
    if (parallel_for_ms_ != nullptr) {
      parallel_for_ms_->Record(timer.ElapsedMillis());
    }
    return;
  }

  auto job = std::make_shared<ForJob>();
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->num_chunks = num_chunks;
  job->fn = &fn;

  size_t helpers = std::min(num_threads_ - 1, num_chunks - 1);
  {
    MutexLock lock(queue_mutex_);
    for (size_t i = 0; i < helpers; ++i) {
      queue_.emplace_back([job] { RunJob(*job); });
    }
    if (queue_depth_ != nullptr) {
      queue_depth_->Set(static_cast<double>(queue_.size()));
    }
  }
  if (helpers == 1) {
    queue_cv_.NotifyOne();
  } else {
    queue_cv_.NotifyAll();
  }

  // The caller claims chunks too, which also makes nested ParallelFor calls
  // deadlock-free: progress never depends on a free worker existing.
  RunJob(*job);

  std::exception_ptr error;
  {
    MutexLock lock(job->mutex);
    while (job->chunks_done.load(std::memory_order_acquire) !=
           job->num_chunks) {
      job->done_cv.Wait(job->mutex);
    }
    // Steal the error so this thread owns the exception object's lifetime: a
    // straggler helper dropping the last ForJob reference must not be the one
    // to destroy an exception the caller is still examining.
    error = std::move(job->error);
  }
  if (parallel_for_ms_ != nullptr) {
    parallel_for_ms_->Record(timer.ElapsedMillis());
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace foresight
