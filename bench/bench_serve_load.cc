// HTTP serving benchmark for the v1 front-end (DESIGN.md "Serve front-end").
//
// One engine + QuerySession + HttpServer over loopback sockets, measured
// three ways:
//   bit-identity — every probe query's server JSON `result` must equal the
//                  in-process QuerySession encoding byte for byte (the wire
//                  path may add latency, never change answers);
//   closed-loop  — C connections issue requests back-to-back for a fixed
//                  window at C in {1, 8, 64}: per-request p50/p99 + QPS;
//   open-loop    — requests arrive on a fixed schedule regardless of
//                  completions (no coordinated omission): latency is
//                  (completion - scheduled arrival), 503s are counted, at
//                  three target rates derived from the closed-loop ceiling.
// Plus an overload phase against a tiny admission queue: the bench asserts
// 503s actually happen, every request still gets an answer, and /healthz
// keeps responding while the queue is full.
//
// Results are printed AND written to BENCH_serve.json; throughput claims at
// C connections are only printed as claims when scaling_claims_valid holds
// (on a 1-core box a 64-connection "speedup" measures context switching).
//
// Every failure path exits nonzero — no silent zeros in the JSON.
//
// --smoke: one short closed-loop window + bit-identity + overload checks,
// no JSON — for CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_harness.h"
#include "core/engine.h"
#include "core/session.h"
#include "data/generators.h"
#include "serve/http_client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/bench_env.h"
#include "util/json.h"

using namespace foresight;

namespace {

constexpr size_t kRows = 800;
constexpr size_t kEngineWorkers = 2;
constexpr size_t kClosedLoopConnections[] = {1, 8, 64};
constexpr double kOpenLoopFractions[] = {0.25, 0.5, 0.75};

struct LatencyStats {
  size_t requests = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t rejected_503 = 0;
  size_t errors = 0;
};

double Percentile(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const size_t index = std::min(
      sorted_ms.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_ms.size() - 1)));
  return sorted_ms[index];
}

LatencyStats Summarize(std::vector<double> latencies_ms, double window_s,
                       size_t rejected, size_t errors) {
  std::sort(latencies_ms.begin(), latencies_ms.end());
  LatencyStats stats;
  stats.requests = latencies_ms.size();
  stats.qps = window_s > 0.0
                  ? static_cast<double>(latencies_ms.size()) / window_s
                  : 0.0;
  stats.p50_ms = Percentile(latencies_ms, 0.50);
  stats.p99_ms = Percentile(latencies_ms, 0.99);
  stats.rejected_503 = rejected;
  stats.errors = errors;
  return stats;
}

/// A load leg as a BENCH workload: its latency summary, gated on every
/// request having been answered.
BenchWorkload LoadWorkload(std::string label, const LatencyStats& stats) {
  BenchWorkload workload{std::move(label)};
  workload.end_to_end.Set("requests", stats.requests);
  workload.end_to_end.Set("qps", stats.qps);
  workload.end_to_end.Set("p50_ms", stats.p50_ms);
  workload.end_to_end.Set("p99_ms", stats.p99_ms);
  workload.end_to_end.Set("rejected_503", stats.rejected_503);
  workload.gates.Set("no_errors", stats.errors == 0 && stats.requests > 0);
  return workload;
}

const std::string& QueryBody() {
  // A representative interactive query; repeated issue hits the session
  // cache after the first computation, which is exactly the serving-layer
  // steady state the front-end bench should measure.
  static const std::string body =
      R"({"class": "linear_relationship", "top_k": 10, "mode": "exact"})";
  return body;
}

/// Closed loop: `connections` threads, each one connection, requests
/// back-to-back for `window_s`.
LatencyStats RunClosedLoop(uint16_t port, size_t connections,
                           double window_s) {
  std::vector<std::vector<double>> latencies(connections);
  std::atomic<size_t> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(connections);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(window_s);
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([port, deadline, &latencies, &errors, c] {
      HttpClient client;
      if (!client.Connect(port).ok()) {
        errors.fetch_add(1);
        return;
      }
      while (std::chrono::steady_clock::now() < deadline) {
        const auto start = std::chrono::steady_clock::now();
        auto response = client.Request("POST", "/v1/query", QueryBody());
        const auto end = std::chrono::steady_clock::now();
        if (!response.ok() || response->status != 200) {
          errors.fetch_add(1);
          return;
        }
        latencies[c].push_back(
            std::chrono::duration<double, std::milli>(end - start).count());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<double> merged;
  for (const auto& per_thread : latencies) {
    merged.insert(merged.end(), per_thread.begin(), per_thread.end());
  }
  return Summarize(std::move(merged), window_s, 0, errors.load());
}

/// Open loop: request k is SCHEDULED at start + k/rate on a fixed pool of
/// sender connections; latency includes any time spent waiting behind the
/// schedule (the anti-coordinated-omission measurement).
LatencyStats RunOpenLoop(uint16_t port, double target_qps, double window_s,
                         size_t connections) {
  const size_t total =
      static_cast<size_t>(target_qps * window_s);
  std::atomic<size_t> next_request{0};
  std::atomic<size_t> rejected{0};
  std::atomic<size_t> errors{0};
  std::vector<std::vector<double>> latencies(connections);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      HttpClient client;
      if (!client.Connect(port).ok()) {
        errors.fetch_add(1);
        return;
      }
      for (;;) {
        const size_t k = next_request.fetch_add(1);
        if (k >= total) return;
        const auto scheduled =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(k) / target_qps));
        std::this_thread::sleep_until(scheduled);
        auto response = client.Request("POST", "/v1/query", QueryBody());
        const auto end = std::chrono::steady_clock::now();
        if (!response.ok()) {
          errors.fetch_add(1);
          return;
        }
        if (response->status == 503) {
          rejected.fetch_add(1);
          continue;
        }
        if (response->status != 200) {
          errors.fetch_add(1);
          return;
        }
        latencies[c].push_back(
            std::chrono::duration<double, std::milli>(end - scheduled)
                .count());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<double> merged;
  for (const auto& per_thread : latencies) {
    merged.insert(merged.end(), per_thread.begin(), per_thread.end());
  }
  return Summarize(std::move(merged), window_s, rejected.load(),
                   errors.load());
}

/// The bench's correctness gate: the server's deterministic `result` JSON
/// must be byte-identical to encoding the in-process QuerySession result.
bool CheckBitIdentity(uint16_t port, const QuerySession& session,
                      size_t* checked) {
  std::vector<InsightQuery> probes;
  {
    InsightQuery q;
    q.class_name = "linear_relationship";
    q.top_k = 10;
    q.mode = ExecutionMode::kExact;
    probes.push_back(q);
    q.mode = ExecutionMode::kSketch;
    probes.push_back(q);
    q = InsightQuery();
    q.class_name = "skew";
    q.top_k = 5;
    probes.push_back(q);
    q = InsightQuery();
    q.class_name = "outliers";
    q.top_k = 7;
    q.min_score = 0.1;
    probes.push_back(q);
  }
  HttpClient client;
  if (!client.Connect(port).ok()) return false;
  for (const InsightQuery& probe : probes) {
    auto expected = session.Execute(probe);
    if (!expected.ok()) {
      std::fprintf(stderr, "bit-identity probe failed in-process: %s\n",
                   expected.status().ToString().c_str());
      return false;
    }
    auto response =
        client.Request("POST", "/v1/query", probe.ToJson().Dump());
    if (!response.ok() || response->status != 200) {
      std::fprintf(stderr, "bit-identity probe failed over HTTP\n");
      return false;
    }
    auto body = JsonValue::Parse(response->body);
    if (!body.ok() || body->Get("result") == nullptr) {
      std::fprintf(stderr, "bit-identity probe: unparsable response\n");
      return false;
    }
    if (body->Get("result")->Dump() != WireResultV1(*expected).Dump()) {
      std::fprintf(stderr, "bit-identity MISMATCH for class %s\n",
                   probe.class_name.c_str());
      return false;
    }
    ++*checked;
  }
  return true;
}

struct OverloadOutcome {
  size_t sent = 0;
  size_t served_200 = 0;
  size_t rejected_503 = 0;
  size_t errors = 0;
  bool healthz_ok = false;
};

/// Floods a capacity-2 server with concurrent unique (cache-missing) queries
/// until 503s appear, checking /healthz stays live throughout.
OverloadOutcome RunOverload(const QuerySession& session) {
  HttpServerOptions options;
  options.queue_capacity = 2;
  HttpServer server(session, options);
  OverloadOutcome outcome;
  if (!server.Start().ok()) return outcome;

  constexpr size_t kClients = 12;
  for (int attempt = 0; attempt < 20 && outcome.rejected_503 == 0;
       ++attempt) {
    std::vector<HttpClient> clients(kClients);
    for (size_t i = 0; i < kClients; ++i) {
      if (!clients[i].Connect(server.port()).ok()) {
        ++outcome.errors;
        continue;
      }
      // Unique min_score defeats the cache so every request occupies a
      // worker for real.
      const std::string body =
          R"({"class": "linear_relationship", "mode": "exact", "top_k": 40,)"
          R"( "min_score": 0.0)" +
          std::to_string(attempt * kClients + i) + "}";
      std::string raw = "POST /v1/query HTTP/1.1\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
      if (!clients[i].SendRaw(raw).ok()) {
        ++outcome.errors;
        continue;
      }
      ++outcome.sent;
    }

    HttpClient health;
    if (health.Connect(server.port()).ok()) {
      auto response = health.Request("GET", "/healthz");
      outcome.healthz_ok = response.ok() && response->status == 200;
    }

    for (size_t i = 0; i < kClients; ++i) {
      if (!clients[i].connected()) continue;
      auto response = clients[i].ReadResponse();
      if (!response.ok()) {
        ++outcome.errors;
      } else if (response->status == 503) {
        ++outcome.rejected_503;
      } else if (response->status == 200) {
        ++outcome.served_200;
      } else {
        ++outcome.errors;
      }
    }
  }
  server.Stop();
  return outcome;
}

int Run(bool smoke) {
  DataTable table = MakeOecdLike(kRows, 17);
  EngineOptions engine_options;
  engine_options.num_workers = kEngineWorkers;
  const InsightEngine engine = ValueOrExit(
      InsightEngine::Create(table, std::move(engine_options)),
      "engine creation");
  QuerySession session(engine);
  HttpServer server(session);
  ExitIfError(server.Start(), "server start");

  const size_t max_connections =
      kClosedLoopConnections[std::size(kClosedLoopConnections) - 1];
  BenchReport report("serve", std::max(max_connections, kEngineWorkers));

  // Gate 1: the wire path serves the same bytes as in-process execution.
  size_t identity_checked = 0;
  const bool identical =
      CheckBitIdentity(server.port(), session, &identity_checked);
  std::printf("bit-identity: %zu probes matched\n", identity_checked);
  BenchWorkload identity{"wire vs in-process results"};
  identity.end_to_end.Set("probes_matched", identity_checked);
  identity.gates.Set("bit_identical", identical);
  report.Add(std::move(identity));

  const double window_s = smoke ? 0.3 : 2.0;
  double peak_qps = 0.0;
  std::printf("closed-loop (%.1fs windows, cache-hot /v1/query):\n",
              window_s);
  for (size_t connections : kClosedLoopConnections) {
    if (smoke && connections > 8) break;  // Keep CI under a second of load.
    LatencyStats stats = RunClosedLoop(server.port(), connections, window_s);
    peak_qps = std::max(peak_qps, stats.qps);
    std::printf("  %3zu conn: %8.0f qps  p50 %7.3f ms  p99 %7.3f ms  "
                "errors %zu\n",
                connections, stats.qps, stats.p50_ms, stats.p99_ms,
                stats.errors);
    report.Add(LoadWorkload(
        "closed loop, " + std::to_string(connections) + " connections",
        stats));
  }
  if (!ScalingClaimsValid(max_connections)) {
    std::printf(
        "  note: hardware_concurrency < %zu — multi-connection QPS measures "
        "context switching here, not scaling (scaling_claims_valid=false)\n",
        max_connections);
  }

  if (!smoke) {
    std::printf("open-loop (scheduled arrivals, 8 sender connections):\n");
    for (double fraction : kOpenLoopFractions) {
      const double target = std::max(10.0, peak_qps * fraction);
      LatencyStats stats =
          RunOpenLoop(server.port(), target, window_s, /*connections=*/8);
      std::printf("  target %7.0f qps: achieved %7.0f  p50 %7.3f ms  "
                  "p99 %8.3f ms  503s %zu  errors %zu\n",
                  target, stats.qps, stats.p50_ms, stats.p99_ms,
                  stats.rejected_503, stats.errors);
      BenchWorkload workload = LoadWorkload(
          "open loop, " + std::to_string(static_cast<int>(fraction * 100)) +
              "% of peak closed-loop qps",
          stats);
      workload.end_to_end.Set("target_qps", target);
      report.Add(std::move(workload));
    }
  }
  server.Stop();

  // Gate 2: bounded-queue backpressure — 503s must actually happen, every
  // admitted request must be answered, and /healthz must stay live.
  OverloadOutcome overload = RunOverload(session);
  std::printf("overload (queue_capacity=2): sent %zu served %zu "
              "rejected %zu healthz_ok %d errors %zu\n",
              overload.sent, overload.served_200, overload.rejected_503,
              overload.healthz_ok ? 1 : 0, overload.errors);
  BenchWorkload overload_workload{"overload, queue_capacity 2"};
  overload_workload.end_to_end.Set("sent", overload.sent);
  overload_workload.end_to_end.Set("served_200", overload.served_200);
  overload_workload.end_to_end.Set("rejected_503", overload.rejected_503);
  overload_workload.gates.Set(
      "backpressure", overload.rejected_503 > 0 && overload.served_200 > 0 &&
                          overload.healthz_ok && overload.errors == 0);
  report.Add(std::move(overload_workload));
  return report.Finish(smoke);
}

}  // namespace

int main(int argc, char** argv) {
  return Run(ParseBenchFlags(argc, argv, {"--smoke"}).smoke);
}
