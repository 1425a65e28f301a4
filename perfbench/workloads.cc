#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "core/dataset_registry.h"
#include "core/engine.h"
#include "core/profile.h"
#include "core/session.h"
#include "core/snapshot.h"
#include "data/csv.h"
#include "inputs.h"
#include "load.h"
#include "replay.h"
#include "serve/http_client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace foresight;

const char* const kWorkloads[3] = {"carousel_hot", "drilldown_cold",
                                   "append_stream"};

namespace {

using Clock = std::chrono::steady_clock;

// Sizes, rates and shares; README.md gives the reason for each.
constexpr TableShape kUiShape{90, 10};
constexpr size_t kUiRows = 100'000;
constexpr TableShape kStreamShape{58, 6};
constexpr size_t kStreamRows = 50'000;
constexpr const char* kStreamId = "stream";
constexpr size_t kEngineWorkers = 2;  // The default dataset's engine.
constexpr size_t kConnections = 2;    // UI workloads' closed loop.
constexpr size_t kSetups = 3;         // setup_s reports their median.
constexpr size_t kSegments = 10;      // p50 and qps: medians over these.
constexpr size_t kAppendRows = 100;   // Rows per /v1/append.
constexpr size_t kProbeAppends = 100;  // UI workloads, after the window.
constexpr double kAppendRate = 8.0;    // append_stream writer, per second.
// 150 batches of 100 rows keep the 50k table under 65,536 rows, below which
// the auto-resolved hyperplane width, and so delta merging, holds.
constexpr size_t kMaxStreamAppends = 150;
constexpr size_t kOverviewEvery = 500;  // Carousel mix: one sketch overview.
constexpr size_t kColdPeriod = 3200;    // drilldown_cold request schedule.
constexpr size_t kReplayCap = 20'000;   // Reads replayed per traced run.
constexpr size_t kColdLegRows = 20'000;

constexpr const char* kClasses[12] = {
    "linear_relationship", "monotonic_relationship", "general_dependence",
    "dispersion",          "skew",                   "heavy_tails",
    "outliers",            "multimodality",          "missing_values",
    "heterogeneous_frequencies", "low_entropy",      "segmentation"};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Forgets the memory peak of the set-ups run only to time set-up, so
/// peak_rss_mb covers one set-up and the workload, as in a fresh process.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

StatusOr<double> PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return Status::NotFound("no VmHWM in /proc/self/status");
}

// ---------------------------------------------------------------------------
// Request streams.

InsightQuery MakeQuery(const char* class_name, size_t top_k,
                       ExecutionMode mode = ExecutionMode::kAuto,
                       std::vector<std::string> fixed = {}) {
  InsightQuery query;
  query.class_name = class_name;
  query.top_k = top_k;
  query.mode = mode;
  query.fixed_attributes = std::move(fixed);
  return query;
}

Request QueryRequest(const InsightQuery& query, const std::string& dataset) {
  JsonValue body = query.ToJson();
  if (!dataset.empty()) body.Set("dataset", dataset);
  return {Request::Kind::kQuery, "/v1/query", body.Dump()};
}

Request BatchRequest(const std::vector<InsightQuery>& queries) {
  JsonValue list = JsonValue::Array();
  for (const InsightQuery& query : queries) list.Append(query.ToJson());
  JsonValue body = JsonValue::Object();
  body.Set("queries", std::move(list));
  return {Request::Kind::kBatch, "/v1/query_batch", body.Dump()};
}

Request OverviewRequest(const std::string& params, const std::string& dataset) {
  std::string target = "/v1/overview/linear_relationship?" + params;
  if (!dataset.empty()) target += "&dataset=" + dataset;
  return {Request::Kind::kOverview, target, ""};
}

Request AppendRequest(uint64_t seed, const TableShape& shape, size_t first_row,
                      const std::string& dataset) {
  const DataTable rows =
      GenerateRows(seed, shape, first_row, first_row + kAppendRows);
  return {Request::Kind::kAppend, "/v1/append", AppendBody(rows, dataset)};
}

/// The cacheable UI actions, most popular first (their Zipf rank). The
/// append_stream reader keeps only actions that recompute in a few ms: every
/// append invalidates the cache, and with the costly carousels
/// (segmentation, dependence, monotonic, multimodality) or exact drill-downs
/// its misses would outweigh its hits.
std::vector<Request> CarouselUniverse(bool stream) {
  const std::string dataset = stream ? kStreamId : "";
  auto carousel = [&](const char* class_name) {
    return QueryRequest(MakeQuery(class_name, 5), dataset);
  };
  // Exact linear drill-downs ask for the top 2, where the prune planner's
  // sketch bounds cut most partners.
  auto drill = [&](const char* class_name, ExecutionMode mode,
                   const char* attribute) {
    const size_t top_k = mode == ExecutionMode::kExact ? 2 : 5;
    return QueryRequest(MakeQuery(class_name, top_k, mode, {attribute}),
                        dataset);
  };
  constexpr ExecutionMode kExact = ExecutionMode::kExact;
  constexpr ExecutionMode kSketch = ExecutionMode::kSketch;
  if (stream) {
    // Eight carousels and sixteen drill-downs: after each append about 24
    // distinct reads miss, ~2% of the reader's requests, so p99 falls among
    // the misses rather than on the edge between hits and misses.
    std::vector<Request> universe;
    for (const char* class_name :
         {"linear_relationship", "skew", "outliers", "dispersion",
          "heavy_tails", "missing_values", "heterogeneous_frequencies",
          "low_entropy"}) {
      universe.push_back(carousel(class_name));
    }
    for (size_t i = 0; i < 16; ++i) {
      universe.push_back(QueryRequest(
          MakeQuery(i % 4 == 3 ? "monotonic_relationship"
                               : "linear_relationship",
                    5, kSketch, {NumericName(3 * i + i % 3)}),
          dataset));
    }
    return universe;
  }
  std::vector<InsightQuery> all;
  for (const char* class_name : kClasses) all.push_back(MakeQuery(class_name, 5));
  return {carousel("linear_relationship"),
          carousel("skew"),
          BatchRequest(all),
          drill("linear_relationship", kExact, "n0"),
          carousel("outliers"),
          carousel("segmentation"),
          drill("monotonic_relationship", kSketch, "n6"),
          carousel("dispersion"),
          carousel("general_dependence"),
          drill("linear_relationship", kExact, "n12"),
          carousel("heavy_tails"),
          carousel("monotonic_relationship"),
          drill("general_dependence", kSketch, "n18"),
          carousel("multimodality"),
          carousel("missing_values"),
          drill("linear_relationship", kExact, "n24"),
          carousel("heterogeneous_frequencies"),
          drill("segmentation", kSketch, "c1"),
          carousel("low_entropy"),
          drill("monotonic_relationship", kSketch, "n30"),
          drill("linear_relationship", kExact, "n36")};
}

/// Zipf(1) draws from `universe`, with every kOverviewEvery-th request of a
/// connection a sketch-mode Figure 2 overview (never cached).
RequestSource CarouselSource(uint64_t seed, std::vector<Request> universe,
                             const std::string& dataset) {
  const std::vector<double> cdf = ZipfCdf(universe.size(), 1.0);
  const Request overview = OverviewRequest("mode=sketch", dataset);
  return [seed, universe = std::move(universe), cdf, overview](
             size_t connection, size_t k) {
    if (k % kOverviewEvery == kOverviewEvery - 1) return overview;
    Rng rng(StreamSeed(seed, connection + 1, k));
    return universe[ZipfPick(cdf, rng.Uniform())];
  };
}

/// drilldown_cold: every request is distinct, so the cache never hits. A
/// fixed schedule per kColdPeriod requests of a connection keeps the mix the
/// same on every seed; only attributes and parameters are drawn. The exact
/// all-pairs requests (an overview at k = 0 and a top-k at k = 800, ~250 ms
/// each when served) come once per connection in a window, so they and the
/// requests queued behind them stay well above p99; the 12-class batches,
/// one in 40, are common enough that p99 falls among them rather than on
/// the edge between two kinds of request.
Request ColdRequest(uint64_t seed, size_t connection, size_t k) {
  Rng rng(StreamSeed(seed, connection + 1, k));
  // A distinct, negligible score floor makes every cache key unique without
  // changing what a query ranks.
  const double unique = static_cast<double>(connection * 1'000'000 + k + 1) *
                        1e-12;
  auto numeric = [&] { return NumericName(rng.Below(kUiShape.numeric)); };
  const size_t slot = k % kColdPeriod;
  if (slot % 40 == 20) {
    // A 12-class batch: every class's insights about one attribute, each
    // query with its own top_k.
    const std::string attribute = numeric();
    const std::string categorical =
        CategoricalName(rng.Below(kUiShape.categorical));
    std::vector<InsightQuery> queries;
    for (const char* class_name : kClasses) {
      const bool categorical_class =
          std::string_view(class_name) == "heterogeneous_frequencies" ||
          std::string_view(class_name) == "low_entropy";
      InsightQuery query =
          MakeQuery(class_name, 3 + rng.Below(8), ExecutionMode::kAuto,
                    {categorical_class ? categorical : attribute});
      query.min_score = unique;
      queries.push_back(std::move(query));
    }
    return BatchRequest(queries);
  }
  if (slot == kColdPeriod / 4) {
    // Exact top-k over all pairs: the prune planner and the exact kernels.
    InsightQuery query = MakeQuery("linear_relationship", 5 + rng.Below(5),
                                   ExecutionMode::kExact);
    query.min_score = 0.001 + unique;
    return QueryRequest(query, "");
  }
  if (slot == 0) {
    // Exact Figure 2 overview; cells above the floor are refined exactly.
    const double refine = 0.7 + 0.2 * rng.Uniform();
    return OverviewRequest(
        "mode=exact&refine_min_score=" + JsonValue(refine).Dump(), "");
  }
  const double draw = rng.Uniform();
  const double floor = 0.05 + 0.25 * rng.Uniform() + unique;
  if (draw < 0.50) {
    constexpr const char* kPairClasses[] = {"linear_relationship",
                                            "monotonic_relationship",
                                            "general_dependence"};
    InsightQuery query = MakeQuery(kPairClasses[rng.Below(3)], 5,
                                   ExecutionMode::kSketch, {numeric()});
    query.min_score = floor;
    return QueryRequest(query, "");
  }
  if (draw < 0.60) {
    // A near-collinear block column, where top-2 pruning bites.
    const std::string attribute =
        NumericName(6 * rng.Below(kUiShape.numeric / 6) + rng.Below(3));
    InsightQuery query = MakeQuery("linear_relationship", 2,
                                   ExecutionMode::kExact, {attribute});
    query.min_score = floor;
    return QueryRequest(query, "");
  }
  constexpr const char* kRangeClasses[] = {"dispersion", "skew", "heavy_tails",
                                           "outliers", "missing_values"};
  InsightQuery query = MakeQuery(kRangeClasses[rng.Below(5)], 10);
  const double low = 0.3 * rng.Uniform();
  query.min_score = low + unique;
  query.max_score = low + 0.2 + 0.5 * rng.Uniform();
  return QueryRequest(query, "");
}

// ---------------------------------------------------------------------------
// Serving stacks.

/// One set-up: engine, session, registry and server. Members are declared
/// in dependency order, so destruction and Reset() tear down in reverse.
struct Stack {
  std::optional<InsightEngine> engine;
  std::unique_ptr<QuerySession> session;
  std::unique_ptr<DatasetRegistry> registry;
  std::unique_ptr<HttpServer> server;

  void Reset() {
    server.reset();
    registry.reset();
    session.reset();
    engine.reset();
  }
};

Status StartServer(const QuerySession& session, HttpServerOptions options,
                   Stack* stack, SpanLog* log) {
  stack->server = std::make_unique<HttpServer>(session, std::move(options));
  std::optional<ScopedSpan> span;
  if (log != nullptr) span.emplace(*log, "serve.start");
  return stack->server->Start();
}

Status ExpectOk(uint16_t port, const Request& request) {
  HttpClient client;
  FORESIGHT_RETURN_IF_ERROR(client.Connect(port));
  FORESIGHT_ASSIGN_OR_RETURN(
      ClientResponse response,
      client.Request(request.method(), request.target, request.body));
  if (response.status != 200) {
    return Status::Internal("HTTP " + std::to_string(response.status) +
                            " for " + request.target + ": " + response.body);
  }
  return Status::OK();
}

/// From handing the in-memory table to InsightEngine::Create to the first
/// 200 response.
StatusOr<double> SetupUi(const DataTable& table, Stack* stack, SpanLog* log) {
  const Clock::time_point start = Clock::now();
  EngineOptions options;
  options.num_workers = kEngineWorkers;
  FORESIGHT_ASSIGN_OR_RETURN(InsightEngine engine,
                             InsightEngine::Create(table, std::move(options)));
  stack->engine.emplace(std::move(engine));
  stack->session = std::make_unique<QuerySession>(*stack->engine);
  FORESIGHT_RETURN_IF_ERROR(
      StartServer(*stack->session, HttpServerOptions{}, stack, log));
  FORESIGHT_RETURN_IF_ERROR(ExpectOk(
      stack->server->port(), QueryRequest(MakeQuery(kClasses[0], 5), "")));
  return SecondsSince(start);
}

struct DatasetFiles {
  std::string csv;
  std::string snapshot;
};

/// Untimed preparation: the table as CSV plus a snapshot built by the code
/// under test. The generated table and profile are freed on return.
StatusOr<DatasetFiles> WriteDatasetFiles(uint64_t seed, const TableShape& shape,
                                         size_t rows, const std::string& stem) {
  DatasetFiles files{stem + ".csv", stem + ".fsnap"};
  const DataTable table = GenerateRows(seed, shape, 0, rows);
  FORESIGHT_RETURN_IF_ERROR(CsvWriter::WriteFile(table, files.csv));
  FORESIGHT_ASSIGN_OR_RETURN(TableProfile profile,
                             Preprocessor::Profile(table));
  FORESIGHT_RETURN_IF_ERROR(WriteProfileSnapshot(profile, files.snapshot));
  return files;
}

/// From handing the CSV and snapshot paths to the registry to the first 200
/// response, which attaches the dataset.
StatusOr<double> SetupStream(const DatasetFiles& files,
                             const QuerySession& default_session, Stack* stack,
                             SpanLog* log) {
  const Clock::time_point start = Clock::now();
  DatasetRegistryOptions options;
  options.metrics = default_session.engine().metrics();
  stack->registry = std::make_unique<DatasetRegistry>(std::move(options));
  FORESIGHT_RETURN_IF_ERROR(
      stack->registry->Add({kStreamId, files.csv, files.snapshot}));
  HttpServerOptions server_options;
  server_options.registry = stack->registry.get();
  FORESIGHT_RETURN_IF_ERROR(
      StartServer(default_session, std::move(server_options), stack, log));
  FORESIGHT_RETURN_IF_ERROR(
      ExpectOk(stack->server->port(),
               QueryRequest(MakeQuery(kClasses[0], 5), kStreamId)));
  return SecondsSince(start);
}

// ---------------------------------------------------------------------------
// Correctness gates.

/// The deterministic part of a response: "results" of a batch, else "result".
StatusOr<std::string> ObservedResult(const std::string& body,
                                     Request::Kind kind) {
  FORESIGHT_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(body));
  const JsonValue* result =
      json.Get(kind == Request::Kind::kBatch ? "results" : "result");
  if (result == nullptr) return Status::Internal("response has no result");
  return result->Dump();
}

/// The same, computed in-process: through `session` when given, otherwise
/// straight from `engine` with no cache in between.
StatusOr<std::string> ExpectedResult(const Request& request,
                                     const QuerySession* session,
                                     const InsightEngine& engine) {
  FORESIGHT_ASSIGN_OR_RETURN(
      DecodedRead decoded,
      DecodeRead(request.kind, request.target, request.body));
  if (request.kind == Request::Kind::kOverview) {
    FORESIGHT_ASSIGN_OR_RETURN(
        CorrelationOverview overview,
        engine.ComputePairwiseOverview(decoded.overview_class,
                                       decoded.overview));
    return WireOverviewResponseV1(overview).Get("result")->Dump();
  }
  std::vector<InsightQueryResult> results;
  if (session != nullptr && request.kind == Request::Kind::kBatch) {
    FORESIGHT_ASSIGN_OR_RETURN(results, session->ExecuteBatch(decoded.queries));
  } else {
    for (const InsightQuery& query : decoded.queries) {
      FORESIGHT_ASSIGN_OR_RETURN(InsightQueryResult result,
                                 session != nullptr ? session->Execute(query)
                                                    : engine.Execute(query));
      results.push_back(std::move(result));
    }
  }
  if (request.kind == Request::Kind::kBatch) {
    return WireBatchResponseV1(results).Get("results")->Dump();
  }
  return WireResultV1(results.front()).Dump();
}

Status CheckResponse(const Request& request, const std::string& body,
                     const QuerySession* session, const InsightEngine& engine) {
  FORESIGHT_ASSIGN_OR_RETURN(std::string observed,
                             ObservedResult(body, request.kind));
  FORESIGHT_ASSIGN_OR_RETURN(std::string expected,
                             ExpectedResult(request, session, engine));
  if (observed != expected) {
    return Status::Internal("gate: the response to " + request.target + " " +
                            request.body.substr(0, 160) +
                            " differs from the in-process result");
  }
  return Status::OK();
}

Status CheckKept(const LoadResult& reads, const RequestSource& source,
                 const QuerySession* session, const InsightEngine& engine) {
  if (reads.kept.empty()) return Status::Internal("gate: no responses kept");
  for (const KeptResponse& kept : reads.kept) {
    FORESIGHT_RETURN_IF_ERROR(CheckResponse(source(kept.connection, kept.k),
                                            kept.body, session, engine));
  }
  return Status::OK();
}

Status CheckMerged(const std::vector<std::string>& bodies) {
  for (const std::string& body : bodies) {
    FORESIGHT_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(body));
    const JsonValue* append = json.Get("append");
    const JsonValue* merged =
        append != nullptr ? append->Get("delta_merged") : nullptr;
    if (merged == nullptr || !merged->is_bool() || !merged->as_bool()) {
      return Status::Internal("gate: an append was not delta-merged: " + body);
    }
  }
  return Status::OK();
}

/// Closed loop on one connection over `requests`, in order.
LoadResult RunSequential(uint16_t port, const std::vector<Request>& requests) {
  LoadResult result;
  HttpClient client;
  if (!client.Connect(port).ok()) {
    result.attempted = result.failed = requests.size();
    return result;
  }
  for (const Request& request : requests) {
    ++result.attempted;
    const Clock::time_point start = Clock::now();
    auto response = client.Request(request.method(), request.target,
                                   request.body);
    if (!response.ok() || response->status != 200) {
      ++result.failed;
      continue;
    }
    result.latencies_ms.push_back(SecondsSince(start) * 1e3);
    result.bodies.push_back(std::move(response->body));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Traced replay.

struct Trace {
  SpanLog log;
  ReplayCounters counters;
  JsonValue values = JsonValue::Object();  ///< Read from return values.
  uint64_t next_id = 1;
  /// The pool whose worker runs each replayed request, as the server runs
  /// its jobs on the default engine's pool: a request's own parallel loops
  /// then see the same threads they see when served.
  ThreadPool* executor = nullptr;

  Status Replay(const Request& request, const ReplayTarget& target) {
    const uint64_t id = next_id++;
    std::promise<Status> done;
    if (!executor->Submit([&] {
          done.set_value(ReplayRequest(request, target, id, log, counters));
        })) {
      return Status::Internal("replay executor has no worker");
    }
    return done.get_future().get();
  }
};

void RecordProfile(const TableProfile& profile, const DataTable& table,
                   Trace& trace) {
  trace.values.Set("profile_cells", table.num_rows() * table.num_columns());
  trace.values.Set("profile_bytes", profile.EstimateMemoryBytes());
  trace.values.Set("panel_acquires",
                   static_cast<size_t>(profile.panel_stats().acquires));
  trace.values.Set("panel_hits",
                   static_cast<size_t>(profile.panel_stats().hits));
}

void RecordCache(const QuerySession& session, Trace& trace) {
  const QueryCacheStats stats = session.cache_stats();
  trace.values.Set("cache_hits", static_cast<size_t>(stats.hits));
  trace.values.Set("cache_misses", static_cast<size_t>(stats.misses));
  trace.values.Set("cache_invalidations",
                   static_cast<size_t>(stats.invalidations));
  trace.values.Set("cache_evictions", static_cast<size_t>(stats.evictions));
  trace.values.Set("cache_bytes", stats.bytes);
}

double MeanMs(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// The CSV-read table and its snapshot profile (which points at the table,
/// so neither may move).
struct ColdStart {
  std::unique_ptr<DataTable> table;
  std::optional<TableProfile> profile;
};

/// Times the cold-start layers on a CSV + snapshot pair: CsvReader::ReadFile,
/// LoadProfileSnapshotFile, and the registry's first Acquire (which does
/// both again plus engine construction).
StatusOr<ColdStart> ColdStartLeg(const DatasetFiles& files, const char* id,
                                 DatasetRegistry& registry, Trace& trace) {
  ColdStart cold;
  {
    ScopedSpan span(trace.log, "data.csv_read");
    FORESIGHT_ASSIGN_OR_RETURN(DataTable table, CsvReader::ReadFile(files.csv));
    cold.table = std::make_unique<DataTable>(std::move(table));
  }
  trace.values.Set("csv_bytes",
                   static_cast<size_t>(std::filesystem::file_size(files.csv)));
  {
    ScopedSpan span(trace.log, "snapshot.load");
    FORESIGHT_ASSIGN_OR_RETURN(
        TableProfile profile,
        LoadProfileSnapshotFile(*cold.table, files.snapshot));
    cold.profile.emplace(std::move(profile));
  }
  FORESIGHT_RETURN_IF_ERROR(registry.Add({id, files.csv, files.snapshot}));
  ScopedSpan span(trace.log, "registry.attach");
  FORESIGHT_RETURN_IF_ERROR(registry.Acquire(id).status());
  return cold;
}

/// Replays the two connections' streams interleaved, as far as each got in
/// the HTTP run, up to kReplayCap reads.
Status ReplayStreams(const RequestSource& source,
                     const std::vector<size_t>& sent,
                     const ReplayTarget& target, Trace& trace) {
  size_t replayed = 0;
  for (size_t k = 0; replayed < kReplayCap; ++k) {
    bool any = false;
    for (size_t c = 0; c < sent.size() && replayed < kReplayCap; ++c) {
      if (k >= sent[c]) continue;
      FORESIGHT_RETURN_IF_ERROR(trace.Replay(source(c, k), target));
      ++replayed;
      any = true;
    }
    if (!any) break;
  }
  return Status::OK();
}

Status WriteTrace(const RunOptions& options, Trace& trace,
                  RunResult* result) {
  JsonValue header = JsonValue::Object();
  header.Set("workload", options.workload);
  header.Set("seed", static_cast<size_t>(options.seed));
  JsonValue counters = trace.counters.ToJson();
  for (const auto& [key, value] : trace.values.items()) {
    counters.Set(key, value);
  }
  header.Set("counters", std::move(counters));
  result->span_file = options.work_dir + "/" + options.workload + "-seed" +
                      std::to_string(options.seed) + ".spans.jsonl";
  return trace.log.Write(result->span_file, header);
}

/// UI workloads: its own engine over a regenerated table, built in two timed
/// steps (profile, then engine), replaying warm-up, both connections'
/// streams and the post-window appends; then the cold-start layers on a
/// CSV + snapshot of the table's first kColdLegRows rows, since these
/// workloads never read from disk.
Status ReplayUi(const RunOptions& options, const std::vector<Request>& warmup,
                const RequestSource& source, const std::vector<size_t>& sent,
                const std::vector<Request>& appends, Trace& trace) {
  DataTable table = GenerateRows(options.seed, kUiShape, 0, kUiRows);
  DataTable shadow_table = table.Clone();
  ThreadPool pool(kEngineWorkers);
  std::optional<TableProfile> profile;
  {
    ScopedSpan span(trace.log, "profile.build");
    FORESIGHT_ASSIGN_OR_RETURN(TableProfile built,
                               Preprocessor::Profile(table, {}, &pool));
    profile.emplace(std::move(built));
  }
  RecordProfile(*profile, table, trace);
  std::optional<InsightEngine> engine;
  {
    ScopedSpan span(trace.log, "engine.create");
    EngineOptions engine_options;
    engine_options.num_workers = kEngineWorkers;
    FORESIGHT_ASSIGN_OR_RETURN(
        InsightEngine created,
        InsightEngine::CreateFromProfile(table, std::move(*profile),
                                         std::move(engine_options)));
    engine.emplace(std::move(created));
  }
  FORESIGHT_ASSIGN_OR_RETURN(TableProfile shadow_profile,
                             Preprocessor::Profile(shadow_table, {}, &pool));
  QuerySession session(*engine);
  trace.executor = engine->thread_pool();
  ReplayTarget target;
  target.session = &session;
  target.table = &table;
  target.engine = &*engine;
  target.shadow_table = &shadow_table;
  target.shadow_profile = &shadow_profile;
  target.shadow_pool = &pool;
  for (const Request& request : warmup) {
    FORESIGHT_RETURN_IF_ERROR(trace.Replay(request, target));
  }
  FORESIGHT_RETURN_IF_ERROR(ReplayStreams(source, sent, target, trace));
  for (const Request& request : appends) {
    FORESIGHT_RETURN_IF_ERROR(trace.Replay(request, target));
  }
  RecordCache(session, trace);

  const std::string stem = options.work_dir + "/cold_leg-" +
                           std::to_string(options.seed);
  FORESIGHT_ASSIGN_OR_RETURN(
      DatasetFiles files,
      WriteDatasetFiles(options.seed, kUiShape, kColdLegRows, stem));
  DatasetRegistry registry;
  StatusOr<ColdStart> cold = ColdStartLeg(files, "cold_leg", registry, trace);
  std::filesystem::remove(files.csv);
  std::filesystem::remove(files.snapshot);
  return cold.status();
}

// ---------------------------------------------------------------------------
// Workloads.

/// Read p50 and qps are medians over the window's segments, so a stretch of
/// host noise spoils one segment, not the figure; p99 pools every read.
void AddLatencyMetrics(const LoadResult& reads, const LoadResult& appends,
                       RunResult* result) {
  std::vector<double> qps, p50;
  JsonValue steal = JsonValue::Array();
  for (const Segment& segment : reads.segments) {
    qps.push_back(static_cast<double>(segment.latencies_ms.size()) /
                  segment.seconds);
    p50.push_back(Quantile(segment.latencies_ms, 0.5));
    steal.Append(segment.steal_share);
  }
  result->metrics.push_back({"query_p50_ms", Quantile(p50, 0.5), "ms"});
  result->metrics.push_back(
      {"query_p99_ms", Quantile(reads.latencies_ms, 0.99), "ms"});
  result->metrics.push_back({"query_qps", Quantile(qps, 0.5), "1/s"});
  result->metrics.push_back(
      {"append_p50_ms", Quantile(appends.latencies_ms, 0.50), "ms"});
  result->metrics.push_back(
      {"append_p90_ms", Quantile(appends.latencies_ms, 0.90), "ms"});
  result->detail.Set("segment_steal_shares", std::move(steal));
  result->attempted = reads.attempted + appends.attempted;
  result->failed = reads.failed + appends.failed;
  result->detail.Set("reads", reads.latencies_ms.size());
  result->detail.Set("appends", appends.latencies_ms.size());
}

/// carousel_hot and drilldown_cold.
StatusOr<RunResult> RunUi(const RunOptions& options, bool cold) {
  RunResult result;
  std::optional<Trace> trace;
  if (options.trace) trace.emplace();
  SpanLog* log = trace.has_value() ? &trace->log : nullptr;

  DataTable table = GenerateRows(options.seed, kUiShape, 0, kUiRows);
  Stack stack;
  std::vector<double> setups;
  const size_t runs = options.trace ? 1 : kSetups;
  for (size_t i = 0; i < runs; ++i) {
    stack.Reset();
    if (i + 1 == runs) ResetPeakRss();
    FORESIGHT_ASSIGN_OR_RETURN(double seconds, SetupUi(table, &stack, log));
    setups.push_back(seconds);
  }
  const uint16_t port = stack.server->port();

  const uint64_t seed = options.seed;
  RequestSource source =
      cold ? RequestSource([seed](size_t c, size_t k) {
               return ColdRequest(seed, c, k);
             })
           : CarouselSource(seed, CarouselUniverse(false), "");
  // carousel_hot warms every cacheable action; drilldown_cold runs a few
  // requests of its own that the timed streams never repeat, one of them
  // twice so the traced run still times a cache hit (k = 1 is a query; k = 0
  // is an overview, which is never cached).
  std::vector<Request> warmup;
  if (cold) {
    for (size_t k = 0; k < 20; ++k) warmup.push_back(source(kConnections, k));
    warmup.push_back(warmup[1]);
  } else {
    warmup = CarouselUniverse(false);
  }
  const LoadResult warmed = RunSequential(port, warmup);
  if (warmed.failed > 0) return Status::Internal("warm-up request failed");

  const LoadResult reads =
      RunClosedLoop(port, kConnections, options.seconds, kSegments, source,
                    cold ? 37 : 997, 12);
  if (!cold) {
    FORESIGHT_RETURN_IF_ERROR(
        CheckKept(reads, source, stack.session.get(), *stack.engine));
  }

  // Post-window appends on the default dataset (a second server with the
  // append path enabled), so these workloads report append latency too.
  stack.server.reset();
  std::vector<Request> appends;
  for (size_t i = 0; i < kProbeAppends; ++i) {
    appends.push_back(
        AppendRequest(seed, kUiShape, kUiRows + i * kAppendRows, ""));
  }
  SharedMutex append_mutex;
  HttpServerOptions append_options;
  append_options.appendable = {&table, &*stack.engine, &append_mutex};
  FORESIGHT_RETURN_IF_ERROR(
      StartServer(*stack.session, std::move(append_options), &stack, nullptr));
  const LoadResult appended = RunSequential(stack.server->port(), appends);
  FORESIGHT_RETURN_IF_ERROR(CheckMerged(appended.bodies));
  FORESIGHT_ASSIGN_OR_RETURN(double peak_rss_mb, PeakRssMb());
  stack.Reset();

  if (cold) {
    // Against a separately built engine over a fresh copy of the table (the
    // served one has grown), with no cache in between.
    const DataTable fresh = GenerateRows(seed, kUiShape, 0, kUiRows);
    EngineOptions engine_options;
    engine_options.num_workers = kEngineWorkers;
    FORESIGHT_ASSIGN_OR_RETURN(
        InsightEngine reference,
        InsightEngine::Create(fresh, std::move(engine_options)));
    FORESIGHT_RETURN_IF_ERROR(CheckKept(reads, source, nullptr, reference));
  }

  AddLatencyMetrics(reads, appended, &result);
  result.detail.Set("gate_checked", reads.kept.size());
  if (trace.has_value()) {
    trace->values.Set("http_read_mean_ms", MeanMs(reads.latencies_ms));
    trace->values.Set("http_append_mean_ms", MeanMs(appended.latencies_ms));
    FORESIGHT_RETURN_IF_ERROR(
        ReplayUi(options, warmup, source, reads.sent, appends, *trace));
    FORESIGHT_RETURN_IF_ERROR(WriteTrace(options, *trace, &result));
    result.metrics.clear();
    return result;
  }
  result.metrics.insert(result.metrics.begin(),
                        {"setup_s", Quantile(setups, 0.5), "s"});
  result.metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  return result;
}

/// append_stream's traced replay: the cold-start layers on the workload's
/// own CSV and snapshot, a profile rebuild and engine construction for the
/// set-up ledger, then the reader's stream with the writer's appends spread
/// through it in the proportion the HTTP run saw.
Status ReplayStream(const DatasetFiles& files, const RequestSource& source,
                    size_t reads_sent, const std::vector<Request>& appends,
                    Trace& trace) {
  DatasetRegistryOptions registry_options;
  // Stage traces on results need engine metrics, which registry datasets
  // leave off by default; results are bit-identical either way.
  registry_options.collect_metrics = true;
  DatasetRegistry registry(std::move(registry_options));
  FORESIGHT_ASSIGN_OR_RETURN(ColdStart cold,
                             ColdStartLeg(files, kStreamId, registry, trace));
  {
    std::optional<TableProfile> profile;
    {
      ScopedSpan span(trace.log, "profile.build");
      FORESIGHT_ASSIGN_OR_RETURN(TableProfile built,
                                 Preprocessor::Profile(*cold.table));
      profile.emplace(std::move(built));
    }
    RecordProfile(*profile, *cold.table, trace);
    ScopedSpan span(trace.log, "engine.create");
    EngineOptions engine_options;
    engine_options.num_workers = registry.options().num_workers;
    FORESIGHT_RETURN_IF_ERROR(
        InsightEngine::CreateFromProfile(*cold.table, std::move(*profile),
                                         std::move(engine_options))
            .status());
  }
  ThreadPool executor(kEngineWorkers);
  trace.executor = &executor;
  ReplayTarget target;
  target.registry = &registry;
  target.shadow_table = cold.table.get();
  target.shadow_profile = &*cold.profile;

  const size_t reads = std::min(reads_sent, kReplayCap);
  size_t next_append = 0;
  for (size_t i = 0; i < reads; ++i) {
    while (next_append < appends.size() &&
           next_append * reads <= i * appends.size()) {
      FORESIGHT_RETURN_IF_ERROR(trace.Replay(appends[next_append++], target));
    }
    FORESIGHT_RETURN_IF_ERROR(trace.Replay(source(0, i), target));
  }
  while (next_append < appends.size()) {
    FORESIGHT_RETURN_IF_ERROR(trace.Replay(appends[next_append++], target));
  }
  FORESIGHT_ASSIGN_OR_RETURN(auto pin, registry.Acquire(kStreamId));
  RecordCache(pin->session(), trace);
  return Status::OK();
}

StatusOr<RunResult> RunStream(const RunOptions& options) {
  RunResult result;
  std::optional<Trace> trace;
  if (options.trace) trace.emplace();
  SpanLog* log = trace.has_value() ? &trace->log : nullptr;
  const uint64_t seed = options.seed;

  const std::string stem =
      options.work_dir + "/" + kStreamId + "-" + std::to_string(seed);
  FORESIGHT_ASSIGN_OR_RETURN(
      DatasetFiles files,
      WriteDatasetFiles(seed, kStreamShape, kStreamRows, stem));
  const size_t max_appends = std::min(
      kMaxStreamAppends,
      static_cast<size_t>(options.seconds * kAppendRate) + 1);
  std::vector<Request> appends;
  for (size_t i = 0; i < max_appends; ++i) {
    appends.push_back(AppendRequest(seed, kStreamShape,
                                    kStreamRows + i * kAppendRows, kStreamId));
  }
  // The server's default dataset: a small table whose two-worker engine
  // runs the server's jobs. It is not what this workload measures.
  const DataTable default_table = GenerateRows(seed, {4, 1}, 0, 200);
  EngineOptions default_options;
  default_options.num_workers = kEngineWorkers;
  FORESIGHT_ASSIGN_OR_RETURN(
      InsightEngine default_engine,
      InsightEngine::Create(default_table, std::move(default_options)));
  const QuerySession default_session(default_engine);

  Stack stack;
  std::vector<double> setups;
  const size_t runs = options.trace ? 1 : kSetups;
  for (size_t i = 0; i < runs; ++i) {
    stack.Reset();
    if (i + 1 == runs) ResetPeakRss();
    FORESIGHT_ASSIGN_OR_RETURN(
        double seconds, SetupStream(files, default_session, &stack, log));
    setups.push_back(seconds);
  }
  const uint16_t port = stack.server->port();
  const RequestSource source =
      CarouselSource(seed, CarouselUniverse(true), kStreamId);

  LoadResult writes;
  std::jthread writer([&] {
    writes = RunOpenLoop(port, kAppendRate, options.seconds, appends.size(),
                         [&](size_t k) { return appends[k]; });
  });
  const LoadResult reads =
      RunClosedLoop(port, 1, options.seconds, kSegments, source, 997, 0);
  writer.join();
  FORESIGHT_ASSIGN_OR_RETURN(double peak_rss_mb, PeakRssMb());
  FORESIGHT_RETURN_IF_ERROR(CheckMerged(writes.bodies));

  // Gate: probes over HTTP must equal an engine rebuilt from scratch with
  // partition boundaries replaying the append history.
  {
    const size_t appended = writes.bodies.size();
    const DataTable grown =
        GenerateRows(seed, kStreamShape, 0, kStreamRows + appended * kAppendRows);
    EngineOptions rebuild_options;
    rebuild_options.num_workers = kEngineWorkers;
    for (size_t i = 0; i <= appended; ++i) {
      rebuild_options.preprocess.partition_boundaries.push_back(
          kStreamRows + i * kAppendRows);
    }
    FORESIGHT_ASSIGN_OR_RETURN(
        InsightEngine rebuilt,
        InsightEngine::Create(grown, std::move(rebuild_options)));
    std::vector<Request> probes = CarouselUniverse(true);
    probes.push_back(OverviewRequest("mode=sketch", kStreamId));
    const LoadResult probed = RunSequential(port, probes);
    if (probed.failed > 0) return Status::Internal("gate probe failed");
    for (size_t i = 0; i < probes.size(); ++i) {
      FORESIGHT_RETURN_IF_ERROR(
          CheckResponse(probes[i], probed.bodies[i], nullptr, rebuilt));
    }
    result.detail.Set("gate_checked", probes.size());
  }
  stack.Reset();

  AddLatencyMetrics(reads, writes, &result);
  result.detail.Set("append_send_lag_p50_ms", writes.send_lag_p50_ms);
  result.detail.Set("append_send_lag_max_ms", writes.send_lag_max_ms);
  if (trace.has_value()) {
    trace->values.Set("http_read_mean_ms", MeanMs(reads.latencies_ms));
    trace->values.Set("http_append_mean_ms", MeanMs(writes.latencies_ms));
    appends.resize(writes.bodies.size());
    FORESIGHT_RETURN_IF_ERROR(
        ReplayStream(files, source, reads.sent.front(), appends, *trace));
    FORESIGHT_RETURN_IF_ERROR(WriteTrace(options, *trace, &result));
    result.metrics.clear();
  } else {
    result.metrics.insert(result.metrics.begin(),
                          {"setup_s", Quantile(setups, 0.5), "s"});
    result.metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  }
  std::filesystem::remove(files.csv);
  std::filesystem::remove(files.snapshot);
  return result;
}

}  // namespace

StatusOr<RunResult> RunWorkload(const RunOptions& options) {
  if (options.workload == kWorkloads[0]) return RunUi(options, false);
  if (options.workload == kWorkloads[1]) return RunUi(options, true);
  if (options.workload == kWorkloads[2]) return RunStream(options);
  return Status::InvalidArgument("unknown workload '" + options.workload +
                                 "'");
}

}  // namespace perfbench
