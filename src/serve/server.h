#ifndef FORESIGHT_SERVE_SERVER_H_
#define FORESIGHT_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "core/dataset_registry.h"
#include "core/session.h"
#include "serve/http.h"
#include "serve/request_queue.h"
#include "util/fd.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/sync.h"

namespace foresight {

/// Knobs for an HttpServer.
struct HttpServerOptions {
  /// TCP port on 127.0.0.1; 0 picks a kernel-assigned ephemeral port (read it
  /// back via HttpServer::port()).
  uint16_t port = 0;
  /// Admission-queue capacity: requests already parsed but not yet picked up
  /// by a worker. A full queue answers 503 + Retry-After immediately — the
  /// server's memory for queued work is bounded by
  /// queue_capacity * max_body_bytes no matter how fast clients push.
  size_t queue_capacity = 64;
  /// Connections idle longer than this are reaped by the event loop: a
  /// half-sent request (slowloris) gets 408 and a close; an idle keep-alive
  /// connection is closed silently. 0 disables the sweep.
  uint32_t idle_timeout_ms = 10'000;
  /// HTTP parse limits (header/body byte ceilings).
  HttpLimits limits;
  /// Multi-dataset serving (optional; must outlive the server). When set,
  /// GET /v1/datasets lists the registry, and /v1/query, /v1/query_batch and
  /// /v1/overview/{class} accept an optional `dataset` selector (body field
  /// for POSTs, query parameter for overviews) routed through
  /// DatasetRegistry::Acquire — the first query to a cold dataset loads its
  /// snapshot inline on the worker thread, so that latency lands in the
  /// request (and the registry.load_ms histogram), never on the event loop.
  /// Requests without a `dataset` keep hitting the default session, so the
  /// v1 wire contract is unchanged for existing clients.
  DatasetRegistry* registry = nullptr;
  /// The default dataset's mutable half, enabling POST /v1/append without a
  /// `dataset` selector. All three pointers (or none) must be set, must
  /// refer to the same table/engine the default session serves, and must
  /// outlive the server. `mutex` orders appends (exclusive) against query
  /// execution (shared) on the default dataset; when unset the default
  /// dataset is read-only and queries skip the lock entirely.
  struct AppendableDataset {
    DataTable* table = nullptr;
    InsightEngine* engine = nullptr;
    SharedMutex* mutex = nullptr;
  };
  AppendableDataset appendable;
  /// Upper bound on rows inside one /v1/append body.
  size_t max_append_rows = 100'000;
};

/// The v1 HTTP/JSON front-end over a QuerySession (DESIGN.md "Serve
/// front-end"). One edge-triggered epoll event loop owns every socket and all
/// reads/writes; parsed API requests are admitted to a bounded RequestQueue
/// and executed on the engine's ThreadPool (or, for a single-worker engine,
/// one dedicated drain thread), so slow query execution never blocks accepts,
/// health checks, or metric scrapes:
///
///   POST /v1/query        InsightQuery::FromJson -> QuerySession::Execute
///   POST /v1/query_batch  ParseQueryBatchV1 -> QuerySession::ExecuteBatch
///   GET  /v1/overview/C   ComputePairwiseOverview(C) (+ metric/mode/
///                         refine_min_score query parameters)
///   POST /v1/append       ParseAppendRowsV1 -> incremental ingestion
///                         (registry datasets, or the default dataset when
///                         options.appendable is set)
///   GET  /v1/datasets     registry listing (inline; multi-dataset mode)
///   GET  /healthz         liveness (answered inline on the loop thread,
///                         even while the queue is rejecting with 503)
///   GET  /metrics         Prometheus text exposition (inline)
///
/// With options.registry set, the three API routes additionally accept an
/// optional `dataset` selector (see HttpServerOptions::registry).
///
/// Responses use the versioned envelope from serve/wire.h. The session (and
/// its engine) must outlive the server. Start() spawns the loop; Stop()
/// drains admitted requests, answers them, then closes every connection —
/// also run by the destructor if still running.
class HttpServer {
 public:
  HttpServer(const QuerySession& session, HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the event loop. Fails on bind errors.
  Status Start();

  /// Stops accepting, drains admitted requests (they get real answers, not
  /// resets), then shuts the loop down. Idempotent.
  void Stop();

  /// The bound port (valid after Start(); 0 before).
  uint16_t port() const { return port_; }

 private:
  struct Connection {
    UniqueFd fd;
    std::string in_buffer;    ///< Unparsed request bytes.
    std::string out_buffer;   ///< Serialized response bytes not yet written.
    bool want_write = false;  ///< EPOLLOUT is armed.
    bool close_after_write = false;
    /// A request from this connection is queued or executing; further
    /// pipelined requests wait in in_buffer until the response is written
    /// (one in-flight request per connection keeps responses ordered).
    bool busy = false;
    std::chrono::steady_clock::time_point last_activity;
  };

  /// A parsed API request traveling loop -> worker -> loop.
  struct Job {
    uint64_t conn_id = 0;
    HttpRequest request;
    bool keep_alive = true;
  };

  /// A finished response traveling worker -> loop (via completions_).
  struct Completion {
    uint64_t conn_id = 0;
    HttpResponse response;
    bool keep_alive = true;
  };

  void LoopThread();
  void AcceptNew();
  void HandleReadable(uint64_t conn_id);
  void HandleWritable(uint64_t conn_id);
  /// Parses as many pipelined requests from in_buffer as allowed (stops when
  /// busy) and dispatches them.
  void ParseAndDispatch(uint64_t conn_id);
  void Dispatch(uint64_t conn_id, HttpRequest request);
  /// Runs one admitted job on a worker thread and posts its Completion.
  void RunJob(Job job);
  HttpResponse HandleApi(const HttpRequest& request) const;
  /// The session a request addresses: the default session when `dataset` is
  /// empty, otherwise the registry-acquired dataset's (loaded on demand;
  /// *pin keeps it alive across concurrent eviction for this request).
  StatusOr<const QuerySession*> ResolveSession(
      const std::string& dataset,
      std::shared_ptr<const ResidentDataset>* pin) const;
  /// The append/query exclusion lock guarding the dataset a request
  /// resolved to: the pinned registry dataset's data_mutex(), the
  /// appendable default dataset's mutex, or null (read-only default
  /// dataset — no lock needed, nothing can mutate it).
  SharedMutex* DataGuard(
      const std::string& dataset,
      const std::shared_ptr<const ResidentDataset>& pin) const;
  /// POST /v1/append (runs on a worker thread like queries).
  HttpResponse HandleAppend(const JsonValue& body,
                            const std::string& dataset) const;
  /// Queues `response` on the connection and flushes what the socket takes.
  void SendResponse(uint64_t conn_id, const HttpResponse& response,
                    bool keep_alive);
  void DrainCompletions();
  void SweepIdle();
  void CloseConnection(uint64_t conn_id);
  void UpdateEpoll(uint64_t conn_id);
  void WakeLoop();
  void CountResponse(int status) const;

  const QuerySession* session_;
  HttpServerOptions options_;
  std::shared_ptr<MetricsRegistry> metrics_;  ///< Engine registry (may be null).

  UniqueFd listen_fd_;
  UniqueFd epoll_fd_;
  UniqueFd wake_fd_;  ///< eventfd: workers wake the loop for completions.
  uint16_t port_ = 0;

  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  /// Connections keyed by a monotonic id (never a raw fd: the kernel reuses
  /// fd numbers immediately, and a stale Completion must not land on a new
  /// connection that happens to share the fd). std::map, not unordered_map —
  /// the idle sweep iterates it, and tools/lint_determinism.py bans
  /// iteration over unordered containers. Loop-thread-only.
  std::map<uint64_t, Connection> connections_;
  /// Starts above the listen/wake epoll tags (0 and 1) so a connection id
  /// can never alias them.
  uint64_t next_conn_id_ = 2;

  RequestQueue<Job> queue_;
  /// Jobs admitted but whose Completion the loop has not consumed yet; the
  /// shutdown drain waits for this to hit zero.
  std::atomic<size_t> jobs_active_{0};
  /// True when the engine pool has spawned workers to Submit to; otherwise
  /// drain_thread_ does the popping.
  bool use_engine_pool_ = false;
  /// Engine-pool drain ticks submitted but not yet finished; Stop() waits
  /// for zero so no pool task outlives the server it captures.
  std::atomic<size_t> pool_ticks_active_{0};
  std::thread drain_thread_;

  /// Worker -> loop handoff. Leaf lock (lowest tier of the hierarchy in
  /// util/sync.h): held only across deque pushes/pops, never while calling
  /// into the engine or the metrics registry.
  mutable Mutex completions_mutex_;
  std::deque<Completion> completions_ FORESIGHT_GUARDED_BY(completions_mutex_);

  // Metric handles, resolved once at Start (null when metrics are disabled).
  Counter* accepted_total_ = nullptr;
  Counter* rejected_total_ = nullptr;
  Counter* idle_timeouts_total_ = nullptr;
  Counter* responses_2xx_ = nullptr;
  Counter* responses_4xx_ = nullptr;
  Counter* responses_5xx_ = nullptr;
  Gauge* connections_open_ = nullptr;
  Gauge* queue_depth_ = nullptr;
  LatencyHistogram* query_latency_ms_ = nullptr;
  LatencyHistogram* batch_latency_ms_ = nullptr;
  LatencyHistogram* overview_latency_ms_ = nullptr;
  LatencyHistogram* append_latency_ms_ = nullptr;
};

}  // namespace foresight

#endif  // FORESIGHT_SERVE_SERVER_H_
