// Interactive queries: the serving layer (A3), the paper's interactivity
// claim (E4), and query-side parallel scaling.
//
// A3 — QuerySession on 20k x (40 + 6) columns:
//   1. one repeated query served cold (engine computes, cache stores) vs warm
//      (sharded LRU hit), target >= 10x;
//   2. 16 overlapping queries served by one ExecuteBatch (one enumeration and
//      one evaluation sweep for their union) vs 16 sequential Execute()
//      calls, target >= 2x.
//   A warm hit must return exactly the cold result and every batch member
//   must equal its lone Execute() twin, so a speedup can never come from
//   serving different answers.
// E4 — §1/§3 claim: "interactive speeds during exploration". The paper's
//   target scale (100k rows x 100 attributes) is preprocessed once; then
//   every query form runs in sketch mode — open top-k per class,
//   fixed-attribute drill-downs, a metric-range filter and the Figure 2
//   overview — each within a 500 ms interactive budget.
// Workers — every class's sketch top-10 and the exact Pearson overview on
//   30k x (64 + 8) columns at 1/2/4/8 workers; each worker count must return
//   the 1-worker results as wire bytes.
//
// Results are compared as WireResultV1 bytes, printed, and written to
// BENCH_query.json.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "core/session.h"
#include "data/generators.h"
#include "serve/wire.h"
#include "util/bench_env.h"

using namespace foresight;

namespace {

constexpr int kReps = 5;         // A3 timed repetitions.
constexpr int kWarmIters = 200;  // Warm lookups averaged per A3 rep.
constexpr double kBudgetMs = 500.0;
constexpr int kSweepReps = 3;
constexpr size_t kMaxWorkers = 8;

std::string Wire(const InsightQueryResult& result) {
  return WireResultV1(result).Dump();
}

InsightQuery SketchTopK(const std::string& class_name, size_t top_k) {
  InsightQuery query;
  query.class_name = class_name;
  query.top_k = top_k;
  query.mode = ExecutionMode::kSketch;
  return query;
}

/// 16 overlapping queries: half scan every attribute pair with different
/// top-k / score windows, half fix one attribute. All share one
/// (class, metric, mode) group, so ExecuteBatch evaluates the union of their
/// candidate sets once.
std::vector<InsightQuery> OverlappingBatch(const DataTable& table) {
  std::vector<InsightQuery> queries;
  for (size_t i = 0; i < 16; ++i) {
    InsightQuery query;
    query.class_name = "linear_relationship";
    query.metric = "pearson";
    query.mode = ExecutionMode::kExact;
    query.top_k = 5 + i;
    if (i % 2 == 1) {
      query.fixed_attributes = {table.schema().columns()[i % 8].name};
    }
    if (i % 4 >= 2) {
      query.min_score = 0.02 * static_cast<double>(i);
      query.max_score = 0.98;
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

void RunServingLayer(BenchReport* report) {
  std::printf("A3: QuerySession cache hits and batched execution, 20k x "
              "(40 + 6)\n");
  const DataTable table = MakeBenchmarkTable(20000, 40, 6, 23);
  const InsightEngine engine =
      ValueOrExit(InsightEngine::Create(table), "A3 engine");

  // Part 1: the repeated query, a full exact pairwise ranking.
  QuerySession session(engine);
  InsightQuery repeated;
  repeated.class_name = "linear_relationship";
  repeated.metric = "pearson";
  repeated.mode = ExecutionMode::kExact;
  repeated.top_k = 10;
  const std::string reference =
      Wire(ValueOrExit(engine.Execute(repeated), "A3 reference query"));
  bool repeat_identical = true;
  BestTime cold;
  BestTime warm;  // kWarmIters lookups per sample.
  std::vector<InsightQueryResult> warm_results(kWarmIters);
  for (int rep = 0; rep < kReps; ++rep) {
    session.ClearCache();
    std::optional<InsightQueryResult> cold_result;
    cold.Time([&] {
      cold_result = ValueOrExit(session.Execute(repeated), "A3 cold query");
    });
    repeat_identical = repeat_identical && !cold_result->cache_hit &&
                       Wire(*cold_result) == reference;
    warm.Time([&] {
      for (InsightQueryResult& result : warm_results) {
        result = ValueOrExit(session.Execute(repeated), "A3 warm query");
      }
    });
    for (const InsightQueryResult& result : warm_results) {
      repeat_identical = repeat_identical && result.cache_hit &&
                         Wire(result) == reference;
    }
  }
  const double warm_ms = warm.ms() / kWarmIters;
  const double repeat_speedup = cold.ms() / warm_ms;
  std::printf("repeated query  : cold %.3f ms, warm %.4f ms  -> %.0fx "
              "(target >= 10x)\n", cold.ms(), warm_ms, repeat_speedup);
  BenchWorkload repeat_workload{"A3 repeated exact pairwise top-10, "
                                "cold vs warm"};
  repeat_workload.end_to_end.Set("cold_ms", cold.ms());
  repeat_workload.end_to_end.Set("warm_ms", warm_ms);
  repeat_workload.end_to_end.Set("speedup", repeat_speedup);
  repeat_workload.gates.Set("bit_identical", repeat_identical);
  report->Add(std::move(repeat_workload));

  // Part 2: the overlapping batch against the same queries one by one.
  const std::vector<InsightQuery> batch = OverlappingBatch(table);
  bool batch_identical = true;
  BestTime sequential;
  BestTime batched;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<InsightQueryResult> singles;
    sequential.Time([&] {
      for (const InsightQuery& query : batch) {
        singles.push_back(ValueOrExit(engine.Execute(query), "A3 query"));
      }
    });
    std::vector<InsightQueryResult> members;
    batched.Time([&] {
      members = ValueOrExit(engine.ExecuteBatch(batch), "A3 batch");
    });
    for (size_t q = 0; q < batch.size(); ++q) {
      if (Wire(singles[q]) == Wire(members[q])) continue;
      batch_identical = false;
      std::printf("BIT-IDENTITY FAILURE: batch query #%zu differs from "
                  "Execute()\n", q);
    }
  }
  const double batch_speedup = sequential.ms() / batched.ms();
  std::printf("16-query batch  : sequential %.2f ms, batched %.2f ms  -> "
              "%.1fx (target >= 2x)\n", sequential.ms(), batched.ms(),
              batch_speedup);
  std::printf("bit-identical   : %s\n\n",
              repeat_identical && batch_identical ? "yes" : "NO");
  BenchWorkload batch_workload{"A3 16 overlapping exact queries, batch vs "
                               "sequential"};
  batch_workload.end_to_end.Set("sequential_ms", sequential.ms());
  batch_workload.end_to_end.Set("batch_ms", batched.ms());
  batch_workload.end_to_end.Set("speedup", batch_speedup);
  batch_workload.gates.Set("bit_identical", batch_identical);
  report->Add(std::move(batch_workload));
}

void RunInteractiveLatency(BenchReport* report) {
  std::printf("E4: insight-query latency at paper scale, 100k x 100\n");
  const DataTable table = MakeBenchmarkTable(100000, 90, 10, 77);
  WallTimer timer;
  const InsightEngine engine =
      ValueOrExit(InsightEngine::Create(table), "E4 engine");
  const double preprocess_s = timer.ElapsedSeconds();
  const double sketch_mib =
      static_cast<double>(engine.profile().EstimateMemoryBytes()) /
      (1024.0 * 1024.0);
  std::printf("one-time preprocessing: %.2f s (sketch memory %.1f MiB)\n\n",
              preprocess_s, sketch_mib);
  BenchWorkload preprocess{"E4 one-time preprocessing, 100k x 100"};
  preprocess.end_to_end.Set("preprocess_seconds", preprocess_s);
  preprocess.end_to_end.Set("sketch_mib", sketch_mib);
  report->Add(std::move(preprocess));

  auto record = [&](const std::string& label, double ms) {
    const bool interactive = ms < kBudgetMs;
    std::printf("%-42s %10.1f ms  %s\n", label.c_str(), ms,
                interactive ? "ok" : "SLOW");
    BenchWorkload workload{"E4 " + label};
    workload.end_to_end.Set("latency_ms", ms);
    workload.gates.Set("within_500ms", interactive);
    report->Add(std::move(workload));
  };
  auto run = [&](const std::string& label, const InsightQuery& query) {
    timer.Restart();
    ValueOrExit(engine.Execute(query), "E4 " + label);
    record(label, timer.ElapsedMillis());
  };

  // Open-ended top-k per class (the carousel refresh path).
  for (const std::string& class_name : engine.registry().names()) {
    run("top-5 " + class_name, SketchTopK(class_name, 5));
  }
  // Fixed-attribute drill-downs and a metric-range filter (§2.1).
  InsightQuery linear = SketchTopK("linear_relationship", 10);
  linear.fixed_attributes = {"num_0"};
  run("correlates of num_0 (fixed attribute)", linear);
  InsightQuery monotone = SketchTopK("monotonic_relationship", 10);
  monotone.fixed_attributes = {"num_1"};
  run("monotone correlates of num_1", monotone);
  InsightQuery range = SketchTopK("linear_relationship", 10);
  range.min_score = 0.5;
  range.max_score = 0.8;
  run("|rho| in [0.5, 0.8] (range filter)", range);
  // The Figure 2 overview.
  timer.Restart();
  ValueOrExit(engine.ComputePairwiseOverview(
                  "linear_relationship",
                  {.metric = "pearson", .mode = ExecutionMode::kSketch}),
              "E4 overview");
  record("correlation overview (Figure 2)", timer.ElapsedMillis());
  std::printf("\n");
}

/// Sweep and overview timings at one worker count, with the wire bytes the
/// other worker counts must reproduce.
struct WorkerRun {
  double sweep_ms = 0.0;
  double overview_ms = 0.0;
  std::string wire;
};

WorkerRun RunAtWorkers(const DataTable& table, size_t workers) {
  const std::string what = std::to_string(workers) + "-worker";
  EngineOptions options;
  options.num_workers = workers;
  const InsightEngine engine = ValueOrExit(
      InsightEngine::Create(table, std::move(options)), what + " engine");
  WorkerRun run;
  // Every class's sketch top-10, best of kSweepReps (the first rep warms).
  BestTime sweep;
  std::vector<InsightQueryResult> results;
  for (int rep = 0; rep < kSweepReps; ++rep) {
    results.clear();
    sweep.Time([&] {
      for (const std::string& class_name : engine.registry().names()) {
        results.push_back(
            ValueOrExit(engine.Execute(SketchTopK(class_name, 10)),
                        what + " sweep " + class_name));
      }
    });
  }
  run.sweep_ms = sweep.ms();
  WallTimer timer;
  const CorrelationOverview overview = ValueOrExit(
      engine.ComputePairwiseOverview(
          "linear_relationship",
          {.metric = "pearson", .mode = ExecutionMode::kExact}),
      what + " overview");
  run.overview_ms = timer.ElapsedMillis();
  for (const InsightQueryResult& result : results) run.wire += Wire(result);
  run.wire += WireOverviewResponseV1(overview).Dump();
  return run;
}

void RunWorkerScaling(BenchReport* report) {
  std::printf("Workers: sketch top-10 sweep and exact overview, 30k x "
              "(64 + 8)\n");
  const DataTable table = MakeBenchmarkTable(30000, 64, 8, 7);
  std::printf("%-8s | %-12s %-13s | %s\n", "workers", "sweep (ms)",
              "overview (ms)", "wire bytes = 1 worker");
  WorkerRun serial;
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, kMaxWorkers}) {
    WarnIfOversubscribed(workers);
    WorkerRun run = RunAtWorkers(table, workers);
    if (workers == 1) serial = run;
    const bool identical = run.wire == serial.wire;
    std::printf("%-8zu | %-12.1f %-13.1f | %s\n", workers, run.sweep_ms,
                run.overview_ms, identical ? "yes" : "NO");
    BenchWorkload workload{"workers " + std::to_string(workers) +
                           ", 30k x (64 + 8)"};
    workload.end_to_end.Set("query_sweep_ms", run.sweep_ms);
    workload.end_to_end.Set("overview_ms", run.overview_ms);
    workload.end_to_end.Set("query_speedup", serial.sweep_ms / run.sweep_ms);
    workload.end_to_end.Set("overview_speedup",
                            serial.overview_ms / run.overview_ms);
    workload.gates.Set("bit_identical", identical);
    report->Add(std::move(workload));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv, {});
  BenchReport report("query", kMaxWorkers);
  RunServingLayer(&report);
  RunInteractiveLatency(&report);
  RunWorkerScaling(&report);
  return report.Finish(/*smoke=*/false);
}
