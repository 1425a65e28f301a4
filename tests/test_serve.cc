// End-to-end tests of the v1 HTTP front-end over real loopback sockets:
// route coverage, bit-identity with in-process QuerySession results, hostile
// input (truncated requests, oversized bodies, slowloris), keep-alive and
// pipelining, and bounded-queue backpressure under overload.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset_registry.h"
#include "core/engine.h"
#include "core/profile.h"
#include "core/session.h"
#include "core/snapshot.h"
#include "data/csv.h"
#include "data/generators.h"
#include "serve/http_client.h"
#include "serve/request_queue.h"
#include "serve/wire.h"
#include "util/json.h"

namespace foresight {
namespace {

TEST(RequestQueueTest, DepthReadsRaceFreeUnderProducerConsumerStorm) {
  // Regression (TSAN): every RequestQueue accessor — including the size()
  // depth probe the serve loop exports as a gauge — must hold the queue
  // mutex; a lock-free depth read would race concurrent push/pop.
  RequestQueue<int> queue(64);
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 5000;

  std::atomic<int> pushed{0};
  std::atomic<int> popped{0};
  std::atomic<bool> stop_probing{false};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (queue.TryPush(i)) pushed.fetch_add(1);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (queue.Pop().has_value()) popped.fetch_add(1);
    });
  }
  std::atomic<bool> depth_overflow{false};
  threads.emplace_back([&] {
    while (!stop_probing.load()) {
      if (queue.size() > queue.capacity()) depth_overflow.store(true);
    }
  });
  // Join producers (the first kProducers threads), then close: a closed
  // queue still drains admitted items, so every successful push is popped.
  for (int p = 0; p < kProducers; ++p) threads[static_cast<size_t>(p)].join();
  queue.Close();
  EXPECT_FALSE(queue.TryPush(-1));
  for (size_t t = kProducers; t < threads.size() - 1; ++t) threads[t].join();
  stop_probing.store(true);
  threads.back().join();
  EXPECT_FALSE(depth_overflow.load());
  EXPECT_EQ(popped.load(), pushed.load());
}

/// Engine + session + running server over a synthetic table. num_workers = 2
/// exercises the engine-pool drain path (queue jobs run on pool workers);
/// num_workers = 1 exercises the dedicated drain thread.
class ServeFixture {
 public:
  explicit ServeFixture(size_t num_workers, HttpServerOptions options = {},
                        size_t rows = 120) {
    table_ = MakeOecdLike(rows, 17);
    EngineOptions engine_options;
    engine_options.num_workers = num_workers;
    engine_ = std::make_unique<InsightEngine>(
        std::move(InsightEngine::Create(table_, std::move(engine_options)))
            .value());
    session_ = std::make_unique<QuerySession>(*engine_);
    server_ = std::make_unique<HttpServer>(*session_, options);
    Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  ~ServeFixture() {
    server_->Stop();
    server_.reset();
    session_.reset();
    engine_.reset();
  }

  uint16_t port() const { return server_->port(); }
  QuerySession& session() { return *session_; }
  HttpServer& server() { return *server_; }

  HttpClient Client() {
    HttpClient client;
    Status status = client.Connect(port());
    EXPECT_TRUE(status.ok()) << status.ToString();
    return client;
  }

 private:
  DataTable table_;
  std::unique_ptr<InsightEngine> engine_;
  std::unique_ptr<QuerySession> session_;
  std::unique_ptr<HttpServer> server_;
};

TEST(ServeTest, HealthzAnswers) {
  ServeFixture fixture(/*num_workers=*/2);
  HttpClient client = fixture.Client();
  auto response = client.Request("GET", "/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  auto body = JsonValue::Parse(response->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Get("status")->as_string(), "ok");
}

TEST(ServeTest, MetricsExposesPrometheusText) {
  ServeFixture fixture(/*num_workers=*/2);
  HttpClient client = fixture.Client();
  auto response = client.Request("GET", "/metrics");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("foresight_serve_connections_accepted_total"),
            std::string::npos);
  EXPECT_NE(response->Header("content-type").find("text/plain"),
            std::string::npos);
}

TEST(ServeTest, QueryIsBitIdenticalToInProcessExecution) {
  ServeFixture fixture(/*num_workers=*/2);

  InsightQuery query;
  query.class_name = "linear_relationship";
  query.top_k = 5;
  query.mode = ExecutionMode::kExact;
  auto in_process = fixture.session().Execute(query);
  ASSERT_TRUE(in_process.ok());
  const std::string expected = WireResultV1(*in_process).Dump();

  HttpClient client = fixture.Client();
  auto response = client.Request("POST", "/v1/query", query.ToJson().Dump());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, 200) << response->body;
  auto body = JsonValue::Parse(response->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Get("api_version")->as_number(), 1.0);
  // The deterministic result half must match the in-process run byte for
  // byte; only the telemetry half may differ (latency, cache state).
  EXPECT_EQ(body->Get("result")->Dump(), expected);
  // The in-process call warmed the session cache, so the served result is a
  // hit — proof both paths share one QuerySession.
  EXPECT_TRUE(body->Get("telemetry")->Get("cache_hit")->as_bool());
}

TEST(ServeTest, BatchMatchesInProcessAndKeepsOrder) {
  ServeFixture fixture(/*num_workers=*/2);
  std::vector<InsightQuery> queries(2);
  queries[0].class_name = "skew";
  queries[0].top_k = 3;
  queries[1].class_name = "dispersion";
  queries[1].top_k = 2;
  auto in_process = fixture.session().ExecuteBatch(queries);
  ASSERT_TRUE(in_process.ok());

  JsonValue payload = JsonValue::Object();
  JsonValue list = JsonValue::Array();
  for (const InsightQuery& query : queries) list.Append(query.ToJson());
  payload.Set("queries", std::move(list));

  HttpClient client = fixture.Client();
  auto response =
      client.Request("POST", "/v1/query_batch", payload.Dump());
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto body = JsonValue::Parse(response->body);
  ASSERT_TRUE(body.ok());
  const JsonValue* results = body->Get("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(results->at(i).Dump(), WireResultV1((*in_process)[i]).Dump())
        << "batch position " << i;
  }
}

TEST(ServeTest, OverviewMatchesInProcessAndParsesParams) {
  ServeFixture fixture(/*num_workers=*/2);
  PairwiseOverviewOptions options;
  options.mode = ExecutionMode::kExact;
  auto in_process = fixture.session().engine().ComputePairwiseOverview(
      "linear_relationship", options);
  ASSERT_TRUE(in_process.ok());
  const std::string expected =
      WireOverviewResponseV1(*in_process).Get("result")->Dump();

  HttpClient client = fixture.Client();
  auto response =
      client.Request("GET", "/v1/overview/linear_relationship?mode=exact");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto body = JsonValue::Parse(response->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Get("result")->Dump(), expected);

  auto bad_param = client.Request(
      "GET", "/v1/overview/linear_relationship?fancy=1");
  ASSERT_TRUE(bad_param.ok());
  EXPECT_EQ(bad_param->status, 400);
  auto bad_mode =
      client.Request("GET", "/v1/overview/linear_relationship?mode=warp");
  ASSERT_TRUE(bad_mode.ok());
  EXPECT_EQ(bad_mode->status, 400);
  auto nan_threshold = client.Request(
      "GET",
      "/v1/overview/linear_relationship?mode=exact&refine_min_score=nan");
  ASSERT_TRUE(nan_threshold.ok());
  EXPECT_EQ(nan_threshold->status, 400);
}

TEST(ServeTest, ErrorPathsMapStatusCodes) {
  ServeFixture fixture(/*num_workers=*/2);
  HttpClient client = fixture.Client();

  auto bad_json = client.Request("POST", "/v1/query", "{not json");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json->status, 400);

  auto unknown_field =
      client.Request("POST", "/v1/query", R"({"class": "skew", "zz": 1})");
  ASSERT_TRUE(unknown_field.ok());
  EXPECT_EQ(unknown_field->status, 400);

  auto unknown_class =
      client.Request("POST", "/v1/query", R"({"class": "no_such_class"})");
  ASSERT_TRUE(unknown_class.ok());
  EXPECT_EQ(unknown_class->status, 404);
  auto body = JsonValue::Parse(unknown_class->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Get("error")->Get("code")->as_string(), "NotFound");

  auto unknown_path = client.Request("GET", "/v2/query");
  ASSERT_TRUE(unknown_path.ok());
  EXPECT_EQ(unknown_path->status, 404);

  auto wrong_method = client.Request("GET", "/v1/query");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);
  EXPECT_EQ(wrong_method->Header("allow"), "POST");
}

TEST(ServeTest, KeepAliveServesManyRequestsOnOneConnection) {
  ServeFixture fixture(/*num_workers=*/2);
  HttpClient client = fixture.Client();
  for (int i = 0; i < 5; ++i) {
    auto response = client.Request("GET", "/healthz");
    ASSERT_TRUE(response.ok()) << "request " << i;
    EXPECT_EQ(response->status, 200);
    EXPECT_TRUE(client.connected());
  }
}

TEST(ServeTest, PipelinedRequestsAnswerInOrder) {
  ServeFixture fixture(/*num_workers=*/2);
  HttpClient client = fixture.Client();
  // Two API requests + a healthz in one write. The server holds one in
  // flight per connection and answers strictly in order.
  const std::string query_body = R"({"class": "skew", "top_k": 2})";
  std::string raw;
  for (int i = 0; i < 2; ++i) {
    raw += "POST /v1/query HTTP/1.1\r\nContent-Length: " +
           std::to_string(query_body.size()) + "\r\n\r\n" + query_body;
  }
  raw += "GET /healthz HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(client.SendRaw(raw).ok());

  for (int i = 0; i < 2; ++i) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
    auto body = JsonValue::Parse(response->body);
    ASSERT_TRUE(body.ok());
    EXPECT_TRUE(body->Has("result"));
  }
  auto last = client.ReadResponse();
  ASSERT_TRUE(last.ok());
  auto body = JsonValue::Parse(last->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Get("status")->as_string(), "ok");
}

TEST(ServeTest, ConnectionCloseIsHonored) {
  ServeFixture fixture(/*num_workers=*/2);
  HttpClient client = fixture.Client();
  auto response = client.Request("GET", "/healthz", {},
                                 {{"Connection", "close"}});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->Header("connection"), "close");
  EXPECT_FALSE(client.connected());
}

TEST(ServeTest, OversizedBodyIsRejected) {
  HttpServerOptions options;
  options.limits.max_body_bytes = 1024;
  ServeFixture fixture(/*num_workers=*/2, options);
  HttpClient client = fixture.Client();
  // Announce a body over the limit; the server must reject on the headers
  // alone, without waiting for (or buffering) the body.
  ASSERT_TRUE(client
                  .SendRaw("POST /v1/query HTTP/1.1\r\n"
                           "Content-Length: 2048\r\n\r\n")
                  .ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 413);
  EXPECT_EQ(response->Header("connection"), "close");
}

TEST(ServeTest, MalformedRequestGets400AndClose) {
  ServeFixture fixture(/*num_workers=*/2);
  HttpClient client = fixture.Client();
  ASSERT_TRUE(client.SendRaw("NONSENSE\r\n\r\n").ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 400);
  EXPECT_EQ(response->Header("connection"), "close");
}

TEST(ServeTest, SlowlorisPartialRequestTimesOutWith408) {
  HttpServerOptions options;
  options.idle_timeout_ms = 150;
  ServeFixture fixture(/*num_workers=*/2, options);
  HttpClient client = fixture.Client();
  // Drip a header fragment and then stall. The idle sweep must answer 408
  // and close instead of holding the half-open connection forever.
  ASSERT_TRUE(client.SendRaw("GET /healthz HTTP/1.1\r\nX-Slow: 1").ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 408);
  EXPECT_EQ(response->Header("connection"), "close");
}

TEST(ServeTest, IdleKeepAliveConnectionIsReaped) {
  HttpServerOptions options;
  options.idle_timeout_ms = 150;
  ServeFixture fixture(/*num_workers=*/2, options);
  HttpClient client = fixture.Client();
  auto first = client.Request("GET", "/healthz");
  ASSERT_TRUE(first.ok());
  // No bytes in flight: the reaper closes silently; the next read sees EOF.
  auto next = client.ReadResponse();
  EXPECT_FALSE(next.ok());
}

TEST(ServeTest, BackpressureRejectsWith503AndHealthzSurvives) {
  // Single engine worker + capacity-1 queue: one query executes, one waits,
  // everything else must bounce with 503 + Retry-After immediately.
  HttpServerOptions options;
  options.queue_capacity = 1;
  ServeFixture fixture(/*num_workers=*/1, options, /*rows=*/400);

  constexpr int kClients = 6;
  int rejected = 0;
  int served = 0;
  for (int attempt = 0; attempt < 20 && rejected == 0; ++attempt) {
    std::vector<HttpClient> clients(kClients);
    for (int i = 0; i < kClients; ++i) {
      ASSERT_TRUE(clients[i].Connect(fixture.port()).ok());
      // Distinct min_score per request defeats the result cache, so every
      // request really occupies the worker.
      const std::string body =
          R"({"class": "linear_relationship", "mode": "exact", "top_k": 50,)"
          R"( "min_score": 0.0)" +
          std::to_string(attempt * kClients + i) + "}";
      ASSERT_TRUE(clients[i]
                      .SendRaw("POST /v1/query HTTP/1.1\r\n"
                               "Content-Length: " +
                               std::to_string(body.size()) + "\r\n\r\n" +
                               body)
                      .ok());
    }
    // Liveness must hold while the queue is full.
    HttpClient health = fixture.Client();
    auto health_response = health.Request("GET", "/healthz");
    ASSERT_TRUE(health_response.ok());
    EXPECT_EQ(health_response->status, 200);

    for (int i = 0; i < kClients; ++i) {
      auto response = clients[i].ReadResponse();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      if (response->status == 503) {
        ++rejected;
        EXPECT_EQ(response->Header("retry-after"), "1");
      } else {
        EXPECT_EQ(response->status, 200);
        ++served;
      }
    }
  }
  EXPECT_GT(rejected, 0) << "no burst produced a 503 (served " << served
                         << ")";
  EXPECT_GT(served, 0);  // Admitted requests were answered, not dropped.
}

TEST(ServeTest, ConcurrentClientsAllGetCorrectAnswers) {
  ServeFixture fixture(/*num_workers=*/2);
  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fixture, &failures] {
      HttpClient client;
      if (!client.Connect(fixture.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRequestsPerThread; ++i) {
        auto response = client.Request(
            "POST", "/v1/query", R"({"class": "skew", "top_k": 3})");
        if (!response.ok() || response->status != 200) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServeTest, StopDrainsAdmittedWorkAndStopsListening) {
  auto fixture = std::make_unique<ServeFixture>(/*num_workers=*/2);
  const uint16_t port = fixture->port();
  HttpClient client;
  ASSERT_TRUE(client.Connect(port).ok());
  auto response =
      client.Request("POST", "/v1/query", R"({"class": "skew"})");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  fixture->server().Stop();
  // The port is released: a fresh connect must fail.
  HttpClient late;
  EXPECT_FALSE(late.Connect(port).ok());
  fixture.reset();
}

TEST(ServeTest, DatasetSelectorsRequireARegistry) {
  // Without --datasets, the v1 surface is exactly what it was: the listing
  // route is absent and a dataset selector is an explicit client error.
  ServeFixture fixture(/*num_workers=*/2);
  HttpClient client = fixture.Client();

  auto listing = client.Request("GET", "/v1/datasets");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->status, 404);

  auto routed = client.Request(
      "POST", "/v1/query", R"({"class": "skew", "dataset": "x"})");
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->status, 400);

  auto overview =
      client.Request("GET", "/v1/overview/linear_relationship?dataset=x");
  ASSERT_TRUE(overview.ok());
  EXPECT_EQ(overview->status, 400);
}

/// ServeFixture plus a two-dataset registry scanned from a temp directory
/// (one dataset snapshotted, one rebuilt from CSV).
class DatasetServeFixture {
 public:
  DatasetServeFixture() {
    dir_ = testing::TempDir() + "/foresight_serve_datasets";
    std::filesystem::create_directories(dir_);
    for (int i = 0; i < 2; ++i) {
      const std::string id = "set" + std::to_string(i);
      DataTable generated = MakeBenchmarkTable(150, 5, 1, 40 + i);
      const std::string csv_path = dir_ + "/" + id + ".csv";
      EXPECT_TRUE(CsvWriter::WriteFile(generated, csv_path).ok());
      if (i == 0) {
        auto table = CsvReader::ReadFile(csv_path);
        EXPECT_TRUE(table.ok());
        auto profile = Preprocessor::Profile(*table);
        EXPECT_TRUE(profile.ok());
        EXPECT_TRUE(
            WriteProfileSnapshot(*profile, dir_ + "/" + id + ".fsnap").ok());
      }
    }
    registry_ = std::make_unique<DatasetRegistry>();
    auto specs = DatasetRegistry::ScanDirectory(dir_);
    EXPECT_TRUE(specs.ok());
    for (DatasetSpec& spec : *specs) {
      EXPECT_TRUE(registry_->Add(std::move(spec)).ok());
    }
    HttpServerOptions options;
    options.registry = registry_.get();
    fixture_ = std::make_unique<ServeFixture>(/*num_workers=*/2, options);
  }

  ~DatasetServeFixture() {
    fixture_.reset();
    registry_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  ServeFixture& serve() { return *fixture_; }
  DatasetRegistry& registry() { return *registry_; }

 private:
  std::string dir_;
  std::unique_ptr<DatasetRegistry> registry_;
  std::unique_ptr<ServeFixture> fixture_;
};

TEST(ServeTest, DatasetsRouteListsTheRegistry) {
  DatasetServeFixture fixture;
  HttpClient client = fixture.serve().Client();
  auto response = client.Request("GET", "/v1/datasets");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto body = JsonValue::Parse(response->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Get("api_version")->as_number(), 1.0);
  const JsonValue* datasets = body->Get("datasets");
  ASSERT_NE(datasets, nullptr);
  ASSERT_EQ(datasets->size(), 2u);
  EXPECT_EQ(datasets->at(0).Get("id")->as_string(), "set0");
  EXPECT_TRUE(datasets->at(0).Get("has_snapshot")->as_bool());
  EXPECT_FALSE(datasets->at(0).Get("resident")->as_bool());
  EXPECT_FALSE(datasets->at(1).Get("has_snapshot")->as_bool());

  auto post = client.Request("POST", "/v1/datasets", "{}");
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->status, 405);
}

TEST(ServeTest, DatasetRoutedQueryIsBitIdenticalToInProcess) {
  DatasetServeFixture fixture;
  HttpClient client = fixture.serve().Client();

  // Cold load happens inline on the request path; both datasets answer, and
  // each answer matches an in-process execution against that dataset's own
  // session byte for byte.
  for (const char* id : {"set0", "set1"}) {
    const std::string body =
        std::string(R"({"class": "linear_relationship", "top_k": 4, )") +
        R"("mode": "exact", "dataset": ")" + id + R"("})";
    auto response = client.Request("POST", "/v1/query", body);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status, 200) << response->body;
    auto parsed = JsonValue::Parse(response->body);
    ASSERT_TRUE(parsed.ok());

    auto pinned = fixture.registry().Acquire(id);
    ASSERT_TRUE(pinned.ok());
    InsightQuery query;
    query.class_name = "linear_relationship";
    query.top_k = 4;
    query.mode = ExecutionMode::kExact;
    auto in_process = (*pinned)->session().Execute(query);
    ASSERT_TRUE(in_process.ok());
    EXPECT_EQ(parsed->Get("result")->Dump(), WireResultV1(*in_process).Dump())
        << id;
  }

  // The two datasets are different tables: their answers must differ.
  // (Guards against selector parsing silently falling back to the default.)
  auto listing = client.Request("GET", "/v1/datasets");
  ASSERT_TRUE(listing.ok());
  auto parsed_listing = JsonValue::Parse(listing->body);
  ASSERT_TRUE(parsed_listing.ok());
  EXPECT_TRUE(
      parsed_listing->Get("datasets")->at(0).Get("resident")->as_bool());
}

TEST(ServeTest, DatasetRoutedBatchAndOverviewWork) {
  DatasetServeFixture fixture;
  HttpClient client = fixture.serve().Client();

  auto batch = client.Request(
      "POST", "/v1/query_batch",
      R"({"queries": [{"class": "skew", "top_k": 2}], "dataset": "set0"})");
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->status, 200) << batch->body;

  auto overview = client.Request(
      "GET", "/v1/overview/linear_relationship?mode=exact&dataset=set1");
  ASSERT_TRUE(overview.ok());
  ASSERT_EQ(overview->status, 200) << overview->body;
  auto parsed = JsonValue::Parse(overview->body);
  ASSERT_TRUE(parsed.ok());

  auto pinned = fixture.registry().Acquire("set1");
  ASSERT_TRUE(pinned.ok());
  PairwiseOverviewOptions options;
  options.mode = ExecutionMode::kExact;
  auto in_process = (*pinned)->engine().ComputePairwiseOverview(
      "linear_relationship", options);
  ASSERT_TRUE(in_process.ok());
  EXPECT_EQ(parsed->Get("result")->Dump(),
            WireOverviewResponseV1(*in_process).Get("result")->Dump());
}

TEST(ServeTest, DatasetErrorPathsMapStatusCodes) {
  DatasetServeFixture fixture;
  HttpClient client = fixture.serve().Client();

  auto unknown = client.Request(
      "POST", "/v1/query", R"({"class": "skew", "dataset": "nope"})");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 404);

  auto non_string = client.Request(
      "POST", "/v1/query", R"({"class": "skew", "dataset": 7})");
  ASSERT_TRUE(non_string.ok());
  EXPECT_EQ(non_string->status, 400);

  // An absent selector still hits the default session — v1 unchanged.
  auto default_query =
      client.Request("POST", "/v1/query", R"({"class": "skew"})");
  ASSERT_TRUE(default_query.ok());
  EXPECT_EQ(default_query->status, 200);
}

}  // namespace
}  // namespace foresight
