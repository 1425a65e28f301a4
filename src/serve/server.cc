#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "serve/wire.h"
#include "util/logging.h"
#include "util/timer.h"

namespace foresight {

namespace {

/// epoll user-data slots for the two non-connection descriptors; connection
/// ids start above them.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kFirstConnId = 2;

/// listen(2) backlog.
constexpr int kListenBacklog = 128;
/// Upper bound on queries inside one /v1/query_batch body.
constexpr size_t kMaxBatchQueries = 1024;

constexpr std::string_view kJsonContentType = "application/json";
constexpr std::string_view kOverviewPrefix = "/v1/overview/";

HttpResponse JsonResponse(int status, const JsonValue& body) {
  HttpResponse response;
  response.status = status;
  response.headers.emplace_back("Content-Type", std::string(kJsonContentType));
  response.body = body.Dump();
  response.body += '\n';
  return response;
}

HttpResponse ErrorResponse(const Status& status) {
  return JsonResponse(HttpStatusForStatus(status), WireErrorV1(status));
}

/// 503 body; "Unavailable" is not a StatusCode (no engine path produces it),
/// so the overload response is built directly.
HttpResponse OverloadedResponse() {
  JsonValue body = JsonValue::Object();
  body.Set("api_version", kWireApiVersion);
  JsonValue error = JsonValue::Object();
  error.Set("code", "Unavailable");
  error.Set("message", "admission queue full; retry with backoff");
  body.Set("error", std::move(error));
  HttpResponse response = JsonResponse(503, body);
  response.headers.emplace_back("Retry-After", "1");
  return response;
}

HttpResponse MethodNotAllowed(const std::string& allow) {
  JsonValue body = JsonValue::Object();
  body.Set("api_version", kWireApiVersion);
  JsonValue error = JsonValue::Object();
  error.Set("code", "InvalidArgument");
  error.Set("message", "method not allowed; use " + allow);
  body.Set("error", std::move(error));
  HttpResponse response = JsonResponse(405, body);
  response.headers.emplace_back("Allow", allow);
  return response;
}

/// Splits the "?key=value&..." suffix of a request target. Values are used
/// verbatim (no percent-decoding): v1 parameter values are metric names,
/// mode names, dataset ids, and numbers, none of which need escaping.
/// `dataset` receives the dataset selector ("" when absent).
Status ParseOverviewParams(std::string_view target,
                           PairwiseOverviewOptions* options,
                           std::string* dataset) {
  const size_t question = target.find('?');
  if (question == std::string_view::npos) return Status::OK();
  std::string_view params = target.substr(question + 1);
  while (!params.empty()) {
    const size_t amp = params.find('&');
    std::string_view pair = params.substr(0, amp);
    params = amp == std::string_view::npos ? std::string_view{}
                                           : params.substr(amp + 1);
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("malformed query parameter '" +
                                     std::string(pair) + "'");
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string value(pair.substr(eq + 1));
    if (key == "metric") {
      options->metric = value;
    } else if (key == "mode") {
      FORESIGHT_ASSIGN_OR_RETURN(options->mode, ParseExecutionMode(value));
    } else if (key == "refine_min_score") {
      char* end = nullptr;
      const double parsed = std::strtod(value.c_str(), &end);
      if (value.empty() || end != value.c_str() + value.size()) {
        return Status::InvalidArgument("refine_min_score must be a number");
      }
      options->refine_min_score = parsed;
    } else if (key == "dataset") {
      *dataset = value;
    } else {
      return Status::InvalidArgument("unknown query parameter '" +
                                     std::string(key) + "'");
    }
  }
  return Status::OK();
}

/// Pulls the optional "dataset" selector out of a parsed POST body, so the
/// remaining document can go through the strict unknown-field-rejecting
/// query codecs untouched. Returns "" when absent.
StatusOr<std::string> ExtractDatasetField(JsonValue* body) {
  const JsonValue* dataset = body->Get("dataset");
  if (dataset == nullptr) return std::string();
  if (!dataset->is_string()) {
    return Status::InvalidArgument("'dataset' must be a string");
  }
  std::string id = dataset->as_string();
  body->Remove("dataset");
  return id;
}

}  // namespace

HttpServer::HttpServer(const QuerySession& session, HttpServerOptions options)
    : session_(&session),
      options_(options),
      metrics_(session.engine().metrics()),
      queue_(options.queue_capacity) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server is already running");
  }
  const auto& appendable = options_.appendable;
  const bool any_appendable = appendable.table != nullptr ||
                              appendable.engine != nullptr ||
                              appendable.mutex != nullptr;
  const bool all_appendable = appendable.table != nullptr &&
                              appendable.engine != nullptr &&
                              appendable.mutex != nullptr;
  if (any_appendable && !all_appendable) {
    return Status::InvalidArgument(
        "HttpServerOptions::appendable needs table, engine, and mutex all "
        "set (or none)");
  }
  FORESIGHT_ASSIGN_OR_RETURN(
      listen_fd_,
      CreateListenSocket(options_.port, kListenBacklog, &port_));
  epoll_fd_.Reset(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) {
    return Status::IOError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  wake_fd_.Reset(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) {
    return Status::IOError(std::string("eventfd: ") + std::strerror(errno));
  }

  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = kListenTag;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listen_fd_.get(), &event) <
      0) {
    return Status::IOError(std::string("epoll_ctl(listen): ") +
                           std::strerror(errno));
  }
  event.events = EPOLLIN;
  event.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &event) <
      0) {
    return Status::IOError(std::string("epoll_ctl(wake): ") +
                           std::strerror(errno));
  }

  if (metrics_ != nullptr) {
    accepted_total_ = &metrics_->counter("serve.connections_accepted_total");
    rejected_total_ = &metrics_->counter("serve.queue_rejections_total");
    idle_timeouts_total_ = &metrics_->counter("serve.idle_timeouts_total");
    responses_2xx_ = &metrics_->counter("serve.responses_2xx_total");
    responses_4xx_ = &metrics_->counter("serve.responses_4xx_total");
    responses_5xx_ = &metrics_->counter("serve.responses_5xx_total");
    connections_open_ = &metrics_->gauge("serve.connections_open");
    queue_depth_ = &metrics_->gauge("serve.queue_depth");
    query_latency_ms_ = &metrics_->histogram("serve.query_latency_ms");
    batch_latency_ms_ = &metrics_->histogram("serve.query_batch_latency_ms");
    overview_latency_ms_ = &metrics_->histogram("serve.overview_latency_ms");
    append_latency_ms_ = &metrics_->histogram("serve.append_latency_ms");
  }

  use_engine_pool_ = session_->engine().thread_pool()->num_threads() > 1;
  if (!use_engine_pool_) {
    // Single-worker engine: no pool workers exist to Submit to, so one
    // dedicated thread drains the admission queue.
    drain_thread_ = std::thread([this] {
      for (;;) {
        std::optional<Job> job = queue_.Pop();
        if (!job.has_value()) return;
        RunJob(std::move(*job));
      }
    });
  }

  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { LoopThread(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  queue_.Close();
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  if (drain_thread_.joinable()) drain_thread_.join();
  // Engine-pool drain ticks that found the queue already empty may still be
  // scheduled; they touch this object, so wait them out before returning.
  while (pool_ticks_active_.load(std::memory_order_acquire) > 0) {
    std::this_thread::yield();
  }
}

void HttpServer::WakeLoop() {
  const uint64_t one = 1;
  // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_.get(), &one, sizeof(one));
}

void HttpServer::LoopThread() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool listening = true;

  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) {
      if (listening) {
        ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, listen_fd_.get(),
                    nullptr);
        listen_fd_.Reset();
        listening = false;
      }
      MutexLock lock(completions_mutex_);
      if (jobs_active_.load(std::memory_order_acquire) == 0 &&
          completions_.empty()) {
        break;
      }
    }

    int timeout_ms = -1;
    if (stopping_.load(std::memory_order_acquire)) {
      // Workers decrement jobs_active_ after their wakeup write, so poll
      // briefly instead of trusting the eventfd alone during the drain.
      timeout_ms = 20;
    } else if (options_.idle_timeout_ms > 0) {
      timeout_ms = static_cast<int>(
          std::clamp<uint32_t>(options_.idle_timeout_ms / 4, 10, 1000));
    }

    const int ready =
        ::epoll_wait(epoll_fd_.get(), events, kMaxEvents, timeout_ms);
    if (ready < 0 && errno != EINTR) break;

    for (int i = 0; i < std::max(ready, 0); ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        AcceptNew();
      } else if (tag == kWakeTag) {
        uint64_t drained = 0;
        while (::read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
        }
      } else {
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          CloseConnection(tag);
          continue;
        }
        if ((events[i].events & EPOLLOUT) != 0) HandleWritable(tag);
        if ((events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0) {
          HandleReadable(tag);
        }
      }
    }

    DrainCompletions();
    SweepIdle();
  }

  connections_.clear();
  if (connections_open_ != nullptr) connections_open_->Set(0.0);
}

void HttpServer::AcceptNew() {
  for (;;) {
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EMFILE etc.: drop the event; the socket stays acceptable.
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    const uint64_t conn_id = next_conn_id_++;
    Connection& conn = connections_[conn_id];
    conn.fd.Reset(fd);
    // determinism-ok: idle-timeout bookkeeping, never feeds query results
    conn.last_activity = std::chrono::steady_clock::now();

    epoll_event event{};
    event.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    event.data.u64 = conn_id;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &event) < 0) {
      connections_.erase(conn_id);
      continue;
    }
    if (accepted_total_ != nullptr) accepted_total_->Increment();
    if (connections_open_ != nullptr) {
      connections_open_->Set(static_cast<double>(connections_.size()));
    }
  }
}

void HttpServer::HandleReadable(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = it->second;

  char chunk[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd.get(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.in_buffer.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {  // Peer closed.
      CloseConnection(conn_id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn_id);
    return;
  }

  // determinism-ok: idle-timeout bookkeeping, never feeds query results
  conn.last_activity = std::chrono::steady_clock::now();

  if (conn.close_after_write) {
    // Already answering a fatal error; discard anything else the peer sends.
    conn.in_buffer.clear();
    return;
  }

  // Bound the per-connection buffer: one max-size request plus one pipelined
  // successor. A client pushing more while a request executes is overrunning
  // the one-in-flight window and gets cut off, keeping per-connection memory
  // O(limits) no matter what the peer sends.
  const size_t buffer_cap =
      2 * (options_.limits.max_header_bytes + options_.limits.max_body_bytes);
  if (conn.in_buffer.size() > buffer_cap) {
    HttpResponse response = JsonResponse(
        413, WireErrorV1(Status::InvalidArgument(
                 "pipelined request backlog exceeds buffer limit")));
    CountResponse(413);
    conn.in_buffer.clear();
    SendResponse(conn_id, response, /*keep_alive=*/false);
    return;
  }

  ParseAndDispatch(conn_id);
}

void HttpServer::ParseAndDispatch(uint64_t conn_id) {
  for (;;) {
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    Connection& conn = it->second;
    if (conn.busy || conn.close_after_write || conn.in_buffer.empty()) return;

    HttpRequest request;
    ParseResult parsed =
        ParseRequest(conn.in_buffer, options_.limits, &request);
    switch (parsed.state) {
      case ParseState::kNeedMore:
        return;
      case ParseState::kError: {
        HttpResponse response =
            JsonResponse(parsed.error_status,
                         WireErrorV1(Status::InvalidArgument(
                             parsed.error_reason)));
        CountResponse(parsed.error_status);
        conn.in_buffer.clear();
        SendResponse(conn_id, response, /*keep_alive=*/false);
        return;
      }
      case ParseState::kComplete:
        conn.in_buffer.erase(0, parsed.consumed);
        Dispatch(conn_id, std::move(request));
        break;  // Loop: serve pipelined successors unless now busy.
    }
  }
}

void HttpServer::Dispatch(uint64_t conn_id, HttpRequest request) {
  const bool keep_alive = request.KeepAlive();
  const std::string& path = request.path;

  // Liveness and metrics answer inline on the loop thread: they must keep
  // responding while the admission queue is full and workers are saturated.
  if (path == "/healthz") {
    if (request.method != "GET") {
      CountResponse(405);
      SendResponse(conn_id, MethodNotAllowed("GET"), keep_alive);
      return;
    }
    JsonValue body = JsonValue::Object();
    body.Set("status", "ok");
    body.Set("api_version", kWireApiVersion);
    CountResponse(200);
    SendResponse(conn_id, JsonResponse(200, body), keep_alive);
    return;
  }
  if (path == "/metrics") {
    if (request.method != "GET") {
      CountResponse(405);
      SendResponse(conn_id, MethodNotAllowed("GET"), keep_alive);
      return;
    }
    HttpResponse response;
    response.headers.emplace_back("Content-Type",
                                  "text/plain; version=0.0.4");
    response.body = metrics_ != nullptr
                        ? session_->engine().DumpMetrics(
                              MetricsFormat::kPrometheus)
                        : "# metrics collection is disabled\n";
    CountResponse(200);
    SendResponse(conn_id, response, keep_alive);
    return;
  }
  if (path == "/v1/datasets") {
    // Inline like /metrics: a short registry-mutex listing, never a load.
    if (request.method != "GET") {
      CountResponse(405);
      SendResponse(conn_id, MethodNotAllowed("GET"), keep_alive);
      return;
    }
    if (options_.registry == nullptr) {
      CountResponse(404);
      SendResponse(conn_id,
                   ErrorResponse(Status::NotFound(
                       "multi-dataset serving is not enabled (start with "
                       "--datasets)")),
                   keep_alive);
      return;
    }
    const JsonValue body = WireDatasetsResponseV1(
        options_.registry->ListEntries(), options_.registry->stats(),
        options_.registry->options().memory_budget_bytes);
    CountResponse(200);
    SendResponse(conn_id, JsonResponse(200, body), keep_alive);
    return;
  }

  const bool is_query = path == "/v1/query";
  const bool is_batch = path == "/v1/query_batch";
  const bool is_append = path == "/v1/append";
  const bool is_overview =
      path.size() > kOverviewPrefix.size() &&
      std::string_view(path).substr(0, kOverviewPrefix.size()) ==
          kOverviewPrefix;
  if (!is_query && !is_batch && !is_append && !is_overview) {
    CountResponse(404);
    SendResponse(conn_id,
                 ErrorResponse(Status::NotFound("unknown path '" + path +
                                                "' (see /v1/query, "
                                                "/v1/query_batch, "
                                                "/v1/append, "
                                                "/v1/overview/<class>)")),
                 keep_alive);
    return;
  }
  const std::string allow = is_overview ? "GET" : "POST";
  if (request.method != allow) {
    CountResponse(405);
    SendResponse(conn_id, MethodNotAllowed(allow), keep_alive);
    return;
  }

  // API work is admitted to the bounded queue or rejected NOW — never
  // buffered beyond capacity.
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  jobs_active_.fetch_add(1, std::memory_order_acq_rel);
  Job job;
  job.conn_id = conn_id;
  job.request = std::move(request);
  job.keep_alive = keep_alive;
  if (!queue_.TryPush(std::move(job))) {
    jobs_active_.fetch_sub(1, std::memory_order_acq_rel);
    if (rejected_total_ != nullptr) rejected_total_->Increment();
    CountResponse(503);
    SendResponse(conn_id, OverloadedResponse(), keep_alive);
    return;
  }
  it->second.busy = true;
  if (queue_depth_ != nullptr) {
    queue_depth_->Set(static_cast<double>(queue_.size()));
  }
  if (use_engine_pool_) {
    // The engine's pool is fixed for its life, so a pool that had workers at
    // Start still has them and Submit cannot refuse the tick.
    pool_ticks_active_.fetch_add(1, std::memory_order_acq_rel);
    session_->engine().thread_pool()->Submit([this] {
      std::optional<Job> next = queue_.Pop();
      if (next.has_value()) RunJob(std::move(*next));
      pool_ticks_active_.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
}

StatusOr<const QuerySession*> HttpServer::ResolveSession(
    const std::string& dataset,
    std::shared_ptr<const ResidentDataset>* pin) const {
  if (dataset.empty()) return session_;
  if (options_.registry == nullptr) {
    return Status::InvalidArgument(
        "this server has no dataset registry; omit 'dataset' or start with "
        "--datasets");
  }
  // A cold dataset loads here, inline on the worker thread: the latency is
  // charged to this request (and registry.load_ms), not the event loop.
  FORESIGHT_ASSIGN_OR_RETURN(*pin, options_.registry->Acquire(dataset));
  return &(*pin)->session();
}

SharedMutex* HttpServer::DataGuard(
    const std::string& dataset,
    const std::shared_ptr<const ResidentDataset>& pin) const {
  if (!dataset.empty() && pin != nullptr) return &pin->data_mutex();
  if (dataset.empty()) return options_.appendable.mutex;
  return nullptr;
}

HttpResponse HttpServer::HandleAppend(const JsonValue& body,
                                      const std::string& dataset) const {
  if (dataset.empty()) {
    // Default dataset. Parsing only reads the schema (column names/types),
    // which never changes after startup, so it runs before the exclusive
    // lock; only the actual table/profile mutation excludes queries.
    if (options_.appendable.table == nullptr) {
      return ErrorResponse(Status::FailedPrecondition(
          "this server's default dataset is read-only; pass 'dataset' to "
          "append to a registry dataset, or start with --appendable"));
    }
    StatusOr<DataTable> delta = ParseAppendRowsV1(
        body, *options_.appendable.table, options_.max_append_rows);
    if (!delta.ok()) return ErrorResponse(delta.status());
    DatasetAppendOutcome outcome;
    {
      WriterLock lock(*options_.appendable.mutex);
      StatusOr<AppendStats> stats = options_.appendable.engine->AppendPartition(
          *options_.appendable.table, *delta);
      if (!stats.ok()) return ErrorResponse(stats.status());
      outcome.rows_before = stats->rows_before;
      outcome.rows_appended = stats->rows_appended;
      outcome.num_rows = stats->num_rows;
      outcome.delta_merged = stats->delta_merged;
      outcome.serving_epoch = options_.appendable.engine->serving_epoch();
    }
    return JsonResponse(200, WireAppendResponseV1("", outcome));
  }
  if (options_.registry == nullptr) {
    return ErrorResponse(Status::InvalidArgument(
        "this server has no dataset registry; omit 'dataset' or start with "
        "--datasets"));
  }
  // The pin is only for parsing against the dataset's schema (stable after
  // load); DatasetRegistry::Append re-acquires and takes the dataset's own
  // data_mutex() exclusively for the mutation.
  StatusOr<std::shared_ptr<const ResidentDataset>> pin =
      options_.registry->Acquire(dataset);
  if (!pin.ok()) return ErrorResponse(pin.status());
  StatusOr<DataTable> delta =
      ParseAppendRowsV1(body, (*pin)->table(), options_.max_append_rows);
  if (!delta.ok()) return ErrorResponse(delta.status());
  StatusOr<DatasetAppendOutcome> outcome =
      options_.registry->Append(dataset, *delta);
  if (!outcome.ok()) return ErrorResponse(outcome.status());
  return JsonResponse(200, WireAppendResponseV1(dataset, *outcome));
}

HttpResponse HttpServer::HandleApi(const HttpRequest& request) const {
  // Keeps a registry dataset alive for the duration of this request even if
  // it is evicted concurrently.
  std::shared_ptr<const ResidentDataset> pin;
  if (request.path == "/v1/query") {
    StatusOr<JsonValue> body = JsonValue::Parse(request.body);
    if (!body.ok()) return ErrorResponse(body.status());
    StatusOr<std::string> dataset = ExtractDatasetField(&*body);
    if (!dataset.ok()) return ErrorResponse(dataset.status());
    StatusOr<const QuerySession*> session = ResolveSession(*dataset, &pin);
    if (!session.ok()) return ErrorResponse(session.status());
    StatusOr<InsightQuery> query = InsightQuery::FromJson(*body);
    if (!query.ok()) return ErrorResponse(query.status());
    // Shared side of the append/query exclusion: appends to this dataset
    // wait until in-flight queries finish (and vice versa).
    ReaderLockMaybe guard(DataGuard(*dataset, pin));
    StatusOr<InsightQueryResult> result = (*session)->Execute(*query);
    if (!result.ok()) return ErrorResponse(result.status());
    return JsonResponse(200, WireQueryResponseV1(*result));
  }
  if (request.path == "/v1/query_batch") {
    StatusOr<JsonValue> body = JsonValue::Parse(request.body);
    if (!body.ok()) return ErrorResponse(body.status());
    StatusOr<std::string> dataset = ExtractDatasetField(&*body);
    if (!dataset.ok()) return ErrorResponse(dataset.status());
    StatusOr<const QuerySession*> session = ResolveSession(*dataset, &pin);
    if (!session.ok()) return ErrorResponse(session.status());
    StatusOr<std::vector<InsightQuery>> queries =
        ParseQueryBatchV1(*body, kMaxBatchQueries);
    if (!queries.ok()) return ErrorResponse(queries.status());
    ReaderLockMaybe guard(DataGuard(*dataset, pin));
    StatusOr<std::vector<InsightQueryResult>> results =
        (*session)->ExecuteBatch(*queries);
    if (!results.ok()) return ErrorResponse(results.status());
    return JsonResponse(200, WireBatchResponseV1(*results));
  }
  if (request.path == "/v1/append") {
    StatusOr<JsonValue> body = JsonValue::Parse(request.body);
    if (!body.ok()) return ErrorResponse(body.status());
    StatusOr<std::string> dataset = ExtractDatasetField(&*body);
    if (!dataset.ok()) return ErrorResponse(dataset.status());
    return HandleAppend(*body, *dataset);
  }
  // /v1/overview/<class>
  const std::string class_name(
      std::string_view(request.path).substr(kOverviewPrefix.size()));
  PairwiseOverviewOptions overview_options;
  std::string dataset;
  Status params =
      ParseOverviewParams(request.target, &overview_options, &dataset);
  if (!params.ok()) return ErrorResponse(params);
  StatusOr<const QuerySession*> session = ResolveSession(dataset, &pin);
  if (!session.ok()) return ErrorResponse(session.status());
  ReaderLockMaybe guard(DataGuard(dataset, pin));
  StatusOr<CorrelationOverview> overview =
      (*session)->engine().ComputePairwiseOverview(class_name,
                                                   overview_options);
  if (!overview.ok()) return ErrorResponse(overview.status());
  return JsonResponse(200, WireOverviewResponseV1(*overview));
}

void HttpServer::RunJob(Job job) {
  // determinism-ok: route-latency observability, never feeds query results
  WallTimer timer{kDeferredStart};
  LatencyHistogram* route_latency = nullptr;
  if (metrics_ != nullptr) {
    route_latency = job.request.path == "/v1/query"
                        ? query_latency_ms_
                        : job.request.path == "/v1/query_batch"
                              ? batch_latency_ms_
                              : job.request.path == "/v1/append"
                                    ? append_latency_ms_
                                    : overview_latency_ms_;
    timer.Restart();
  }
  if (queue_depth_ != nullptr) {
    queue_depth_->Set(static_cast<double>(queue_.size()));
  }

  Completion completion;
  completion.conn_id = job.conn_id;
  completion.keep_alive = job.keep_alive;
  completion.response = HandleApi(job.request);

  if (route_latency != nullptr) route_latency->Record(timer.ElapsedMillis());
  CountResponse(completion.response.status);
  {
    MutexLock lock(completions_mutex_);
    completions_.push_back(std::move(completion));
  }
  WakeLoop();
  // LAST access to the server: the shutdown path joins on observing zero,
  // so nothing may touch members after this decrement.
  jobs_active_.fetch_sub(1, std::memory_order_release);
}

void HttpServer::DrainCompletions() {
  for (;;) {
    Completion completion;
    {
      MutexLock lock(completions_mutex_);
      if (completions_.empty()) return;
      completion = std::move(completions_.front());
      completions_.pop_front();
    }
    auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;  // Peer left; drop the response.
    it->second.busy = false;
    SendResponse(completion.conn_id, completion.response,
                 completion.keep_alive);
    // The connection may have pipelined its next request while this one ran.
    ParseAndDispatch(completion.conn_id);
  }
}

void HttpServer::SendResponse(uint64_t conn_id, const HttpResponse& response,
                              bool keep_alive) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  conn.out_buffer += SerializeResponse(response, keep_alive);
  if (!keep_alive) conn.close_after_write = true;
  HandleWritable(conn_id);
}

void HttpServer::HandleWritable(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = it->second;

  while (!conn.out_buffer.empty()) {
    const ssize_t n = ::send(conn.fd.get(), conn.out_buffer.data(),
                             conn.out_buffer.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_buffer.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn_id);
    return;
  }

  const bool want_write = !conn.out_buffer.empty();
  if (want_write != conn.want_write) {
    conn.want_write = want_write;
    UpdateEpoll(conn_id);
  }
  if (!want_write && conn.close_after_write) CloseConnection(conn_id);
}

void HttpServer::UpdateEpoll(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  epoll_event event{};
  event.events = EPOLLIN | EPOLLRDHUP | EPOLLET |
                 (it->second.want_write ? EPOLLOUT : 0u);
  event.data.u64 = conn_id;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, it->second.fd.get(), &event);
}

void HttpServer::SweepIdle() {
  if (options_.idle_timeout_ms == 0) return;
  // determinism-ok: idle-timeout bookkeeping, never feeds query results
  const auto now = std::chrono::steady_clock::now();
  const auto timeout = std::chrono::milliseconds(options_.idle_timeout_ms);
  // Collect first: sending 408 / closing mutates connections_ mid-iteration.
  std::vector<std::pair<uint64_t, bool>> expired;  // (conn_id, had_partial)
  for (const auto& [conn_id, conn] : connections_) {
    if (conn.busy) continue;  // A request is executing, not idle.
    if (now - conn.last_activity < timeout) continue;
    expired.emplace_back(conn_id, !conn.in_buffer.empty());
  }
  for (const auto& [conn_id, had_partial] : expired) {
    if (idle_timeouts_total_ != nullptr) idle_timeouts_total_->Increment();
    if (had_partial) {
      // Slowloris: a request trickled in but never completed. Tell the peer
      // before closing.
      CountResponse(408);
      SendResponse(conn_id,
                   JsonResponse(408, WireErrorV1(Status::InvalidArgument(
                                         "request incomplete after idle "
                                         "timeout"))),
                   /*keep_alive=*/false);
    } else {
      CloseConnection(conn_id);
    }
  }
}

void HttpServer::CloseConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, it->second.fd.get(), nullptr);
  connections_.erase(it);
  if (connections_open_ != nullptr) {
    connections_open_->Set(static_cast<double>(connections_.size()));
  }
}

void HttpServer::CountResponse(int status) const {
  Counter* counter = status >= 500  ? responses_5xx_
                     : status >= 400 ? responses_4xx_
                                     : responses_2xx_;
  if (counter != nullptr) counter->Increment();
}

}  // namespace foresight
