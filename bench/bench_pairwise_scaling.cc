// Sketch-first pairwise pruning at paper target scale (§3 complexity claim +
// DESIGN.md "Sketch-first pruning").
//
// Exact-provenance pairwise top-k and overview served two ways over the SAME
// table:
//   exhaustive — every candidate pair evaluated with the exact Pearson kernel
//                (top-k on a second engine built without a sketch profile,
//                which has nothing to prune with; the overview with
//                refine_min_score = 0);
//   pruned     — signature estimates + Hoeffding bounds discard pairs that
//                provably cannot reach the top-k threshold (or the overview's
//                refine_min_score); only the survivors are refined exactly.
// The pruned top-k must be BIT-IDENTICAL to the exhaustive one (set, ranks,
// raw values); pruned-overview refined cells must match the exhaustive matrix
// and every estimate-served cell's exact |value| must sit below the threshold.
// A speedup can therefore never come from serving different answers.
//
// Workloads: 100K rows x {128, 256} columns at k = 2048 signature bits;
// --stretch adds a 1M x 64 run (several minutes of preprocessing — opt-in).
// E3's original O(d^2 k) vs O(d^2 n) claim survives as the sketch-mode
// overview column. Results are printed AND written to
// BENCH_pairwise_prune.json.
//
// Every engine/query failure is reported with its Status and exits nonzero —
// no silent {0,0,0} timings feeding NaN/inf speedups into the table.
//
// --smoke: small workload, equivalence + prune-activity checks only (< 5 s),
// no JSON — for CI.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/generators.h"
#include "util/bench_env.h"
#include "util/json.h"
#include "util/timer.h"

using namespace foresight;

namespace {

constexpr size_t kBlockSize = 4;     // MakeCorrelatedBlocks block width.
constexpr double kInBlockRho = 0.6;  // Planted within-block correlation.
constexpr uint64_t kSeed = 7;
constexpr size_t kTopK = 25;
constexpr double kOverviewThreshold = 0.35;  // refine_min_score for overviews.
constexpr double kTargetSpeedup = 5.0;
constexpr size_t kParallelWorkers = 8;  // Worker probe on the headline run.

struct Workload {
  const char* label;
  size_t rows;
  size_t cols;
  size_t hyperplane_bits;
  int reps;      // Timed repetitions; the best rep is reported.
  bool stretch;  // Only runs with --stretch.
};

constexpr Workload kWorkloads[] = {
    {"100k x 128", 100000, 128, 2048, 2, false},
    {"100k x 256", 100000, 256, 2048, 1, false},
    {"1M x 64 (stretch)", 1000000, 64, 2048, 1, true},
};

/// True when both results rank the same tuples with bit-identical values —
/// the equivalence gate behind every speedup this bench reports.
bool SameRanking(const InsightQueryResult& a, const InsightQueryResult& b) {
  if (a.insights.size() != b.insights.size()) return false;
  for (size_t i = 0; i < a.insights.size(); ++i) {
    const Insight& x = a.insights[i];
    const Insight& y = b.insights[i];
    if (x.attributes.indices != y.attributes.indices ||
        x.raw_value != y.raw_value || x.score != y.score) {
      return false;
    }
  }
  return true;
}

/// Internal-consistency check on planner telemetry: every considered pair is
/// either pruned or refined, and the pruned result still reports the full
/// considered count (comparable with exhaustive runs).
bool TelemetryConsistent(const InsightQueryResult& pruned,
                         const InsightQueryResult& exhaustive) {
  const PruneTelemetry& t = pruned.prune;
  return t.used && !exhaustive.prune.used &&
         t.pairs_total == exhaustive.candidates_evaluated &&
         pruned.candidates_evaluated == t.pairs_total &&
         t.pairs_pruned + t.pairs_refined == t.pairs_total &&
         t.pairs_refined >= pruned.insights.size();
}

JsonValue TelemetryJson(const PruneTelemetry& t) {
  JsonValue json = JsonValue::Object();
  json.Set("pairs_total", t.pairs_total);
  json.Set("pairs_estimated", t.pairs_estimated);
  json.Set("pairs_escalated", t.pairs_escalated);
  json.Set("pairs_pruned", t.pairs_pruned);
  json.Set("pairs_refined", t.pairs_refined);
  json.Set("pairs_unsafe", t.pairs_unsafe);
  return json;
}

struct Measured {
  bool ok = false;         // All statuses OK (timings are meaningful).
  bool identical = true;   // Every equivalence gate passed.
  double preprocess_s = 0.0;
  double exhaustive_topk_ms = 0.0;
  double pruned_topk_ms = 0.0;
  double exhaustive_overview_ms = 0.0;
  double pruned_overview_ms = 0.0;
  double sketch_overview_ms = 0.0;  // E3's O(d^2 k) path, for reference.
  double parallel_pruned_topk_ms = 0.0;  // 0 when the probe did not run.
  PruneTelemetry topk_telemetry;
  PruneTelemetry overview_telemetry;
  size_t overview_cells_estimated = 0;
};

Measured MeasureWorkload(const Workload& w, bool parallel_probe) {
  Measured m;
  DataTable table =
      MakeCorrelatedBlocks(w.rows, w.cols, kBlockSize, kInBlockRho, kSeed);
  EngineOptions options;
  options.preprocess.sketch.hyperplane_bits = w.hyperplane_bits;
  options.num_workers = 1;  // Serial headline; the probe resizes explicitly.
  WallTimer timer;
  auto engine = InsightEngine::Create(table, std::move(options));
  m.preprocess_s = timer.ElapsedSeconds();
  if (!engine.ok()) {
    std::fprintf(stderr, "engine creation failed (%s): %s\n", w.label,
                 engine.status().ToString().c_str());
    return m;
  }
  // The exhaustive reference: without a sketch profile there are no
  // signatures to plan with, so every candidate pair is evaluated exactly.
  EngineOptions exhaustive_options;
  exhaustive_options.build_profile = false;
  exhaustive_options.num_workers = 1;
  auto exhaustive_engine =
      InsightEngine::Create(table, std::move(exhaustive_options));
  if (!exhaustive_engine.ok()) {
    std::fprintf(stderr, "exhaustive engine creation failed (%s): %s\n",
                 w.label, exhaustive_engine.status().ToString().c_str());
    return m;
  }

  InsightQuery query;
  query.class_name = "linear_relationship";
  query.metric = "pearson";
  query.mode = ExecutionMode::kExact;
  query.top_k = kTopK;

  // Best-of-reps timed execution of `query` on `target` (`path` labels
  // failures).
  auto run_topk = [&](const InsightEngine& target, const char* path,
                      double* best_ms) -> std::optional<InsightQueryResult> {
    *best_ms = 1e100;
    std::optional<InsightQueryResult> last;
    for (int rep = 0; rep < w.reps; ++rep) {
      timer.Restart();
      auto result = target.Execute(query);
      double elapsed = timer.ElapsedMillis();
      if (!result.ok()) {
        std::fprintf(stderr, "%s top-k query failed (%s): %s\n", path,
                     w.label, result.status().ToString().c_str());
        return std::nullopt;
      }
      *best_ms = std::min(*best_ms, elapsed);
      last = std::move(*result);
    }
    return last;
  };

  auto run_overview = [&](ExecutionMode mode, double refine_min_score,
                          double* best_ms)
      -> std::optional<CorrelationOverview> {
    PairwiseOverviewOptions overview_options;
    overview_options.metric = "pearson";
    overview_options.mode = mode;
    overview_options.refine_min_score = refine_min_score;
    *best_ms = 1e100;
    std::optional<CorrelationOverview> last;
    for (int rep = 0; rep < w.reps; ++rep) {
      timer.Restart();
      auto result = engine->ComputePairwiseOverview("linear_relationship",
                                                    overview_options);
      double elapsed = timer.ElapsedMillis();
      if (!result.ok()) {
        std::fprintf(stderr, "overview failed (%s, threshold=%.2f): %s\n",
                     w.label, refine_min_score,
                     result.status().ToString().c_str());
        return std::nullopt;
      }
      *best_ms = std::min(*best_ms, elapsed);
      last = std::move(*result);
    }
    return last;
  };

  auto exhaustive =
      run_topk(*exhaustive_engine, "exhaustive", &m.exhaustive_topk_ms);
  auto pruned = run_topk(*engine, "pruned", &m.pruned_topk_ms);
  if (!exhaustive || !pruned) return m;
  m.topk_telemetry = pruned->prune;
  if (!SameRanking(*exhaustive, *pruned)) {
    m.identical = false;
    std::printf("EQUIVALENCE FAILURE (%s): pruned top-%zu differs from "
                "exhaustive exact\n", w.label, kTopK);
  }
  if (!TelemetryConsistent(*pruned, *exhaustive)) {
    m.identical = false;
    std::printf("TELEMETRY FAILURE (%s): prune counters inconsistent\n",
                w.label);
  }

  auto exact_overview = run_overview(ExecutionMode::kExact, /*threshold=*/0.0,
                                     &m.exhaustive_overview_ms);
  auto pruned_overview = run_overview(ExecutionMode::kExact,
                                      kOverviewThreshold,
                                      &m.pruned_overview_ms);
  auto sketch_overview = run_overview(ExecutionMode::kSketch, /*threshold=*/0.0,
                                      &m.sketch_overview_ms);
  if (!exact_overview || !pruned_overview || !sketch_overview) return m;
  m.overview_telemetry = pruned_overview->prune;

  // Gate: refined cells bit-identical to the exhaustive matrix; every
  // estimate-served cell's exact |value| provably below the threshold.
  if (!pruned_overview->prune.used ||
      pruned_overview->cell_provenance.size() !=
          pruned_overview->matrix.size()) {
    m.identical = false;
    std::printf("OVERVIEW FAILURE (%s): prune planner did not run\n", w.label);
  } else {
    for (size_t c = 0; c < pruned_overview->matrix.size(); ++c) {
      if (pruned_overview->cell_provenance[c] == Provenance::kExact) {
        if (pruned_overview->matrix[c] != exact_overview->matrix[c]) {
          m.identical = false;
          std::printf("OVERVIEW FAILURE (%s): refined cell %zu differs from "
                      "exhaustive exact\n", w.label, c);
          break;
        }
      } else {
        ++m.overview_cells_estimated;
        if (std::abs(exact_overview->matrix[c]) >= kOverviewThreshold) {
          m.identical = false;
          std::printf("OVERVIEW FAILURE (%s): cell %zu pruned but its exact "
                      "|value| %.4f >= %.2f\n", w.label, c,
                      std::abs(exact_overview->matrix[c]),
                      kOverviewThreshold);
          break;
        }
      }
    }
  }

  if (parallel_probe) {
    WarnIfOversubscribed(kParallelWorkers);
    engine->set_num_workers(kParallelWorkers);
    double parallel_ms = 0.0;
    auto parallel = run_topk(*engine, "parallel pruned", &parallel_ms);
    if (!parallel) return m;
    m.parallel_pruned_topk_ms = parallel_ms;
    if (!SameRanking(*exhaustive, *parallel)) {
      m.identical = false;
      std::printf("EQUIVALENCE FAILURE (%s): %zu-worker pruned top-%zu "
                  "differs from serial exhaustive\n", w.label,
                  kParallelWorkers, kTopK);
    }
    engine->set_num_workers(1);
  }

  m.ok = true;
  return m;
}

int RunSmoke() {
  std::printf("bench_pairwise_scaling --smoke: equivalence only\n");
  // 2048 bits: at delta = 1e-9 the rho interval half-width near rho = 0 is
  // ~0.23, comfortably under the planted-block threshold, so the planner
  // actually prunes here (1024 bits leaves null pairs' upper bounds above
  // the 25th-ranked lower bound and nothing would be discarded).
  Workload smoke{"smoke 4k x 24", 4000, 24, 2048, 1, false};
  Measured m = MeasureWorkload(smoke, /*parallel_probe=*/false);
  if (!m.ok) return 1;
  bool active = m.topk_telemetry.used && m.topk_telemetry.pairs_pruned > 0 &&
                m.overview_telemetry.used &&
                m.overview_telemetry.pairs_pruned > 0;
  if (!active) {
    std::printf("PRUNE INACTIVE: planner pruned nothing on the smoke "
                "workload — the pipeline is not being exercised\n");
  }
  std::printf("top-k: %zu/%zu pairs pruned; overview: %zu/%zu cells pruned\n",
              m.topk_telemetry.pairs_pruned, m.topk_telemetry.pairs_total,
              m.overview_telemetry.pairs_pruned,
              m.overview_telemetry.pairs_total);
  std::printf("pruned results bit-identical to exhaustive exact: %s\n",
              m.identical ? "yes" : "NO");
  return (m.identical && active) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool stretch = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunSmoke();
    if (std::strcmp(argv[i], "--stretch") == 0) {
      stretch = true;
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s (supported: --smoke, --stretch)\n",
                 argv[i]);
    return 2;
  }

  std::printf("Sketch-first pairwise pruning: exact-provenance top-%zu and "
              "overview\n", kTopK);
  std::printf("planted structure: blocks of %zu @ rho %.1f, %zu signature "
              "bits, seed %llu\n\n", kBlockSize, kInBlockRho,
              kWorkloads[0].hyperplane_bits,
              static_cast<unsigned long long>(kSeed));

  JsonValue workloads_json = JsonValue::Array();
  bool all_ok = true;
  bool all_identical = true;
  double headline_speedup = 0.0;
  double parallel_ms = 0.0;

  std::printf("%-18s | %-13s %-13s %-9s | %-13s %-13s %-9s | %-11s\n",
              "workload", "exhaust (ms)", "pruned (ms)", "speedup",
              "ovw-ex (ms)", "ovw-pr (ms)", "speedup", "sketch (ms)");
  for (size_t i = 0; i < sizeof(kWorkloads) / sizeof(kWorkloads[0]); ++i) {
    const Workload& w = kWorkloads[i];
    if (w.stretch && !stretch) continue;
    bool headline = (i == 0);
    Measured m = MeasureWorkload(w, /*parallel_probe=*/headline);
    if (!m.ok) return 1;  // Failure already reported with its Status.
    all_identical = all_identical && m.identical;

    double topk_speedup =
        m.pruned_topk_ms > 0.0 ? m.exhaustive_topk_ms / m.pruned_topk_ms : 0.0;
    double overview_speedup = m.pruned_overview_ms > 0.0
                                  ? m.exhaustive_overview_ms /
                                        m.pruned_overview_ms
                                  : 0.0;
    if (headline) {
      headline_speedup = topk_speedup;
      parallel_ms = m.parallel_pruned_topk_ms;
    }
    std::printf("%-18s | %-13.1f %-13.1f %-9.1f | %-13.1f %-13.1f %-9.1f | "
                "%-11.1f\n",
                w.label, m.exhaustive_topk_ms, m.pruned_topk_ms, topk_speedup,
                m.exhaustive_overview_ms, m.pruned_overview_ms,
                overview_speedup, m.sketch_overview_ms);
    std::printf("%-18s | preprocess %.1f s; top-k pruned %zu/%zu "
                "(escalated %zu, unsafe %zu); overview estimated %zu cells\n",
                "", m.preprocess_s, m.topk_telemetry.pairs_pruned,
                m.topk_telemetry.pairs_total, m.topk_telemetry.pairs_escalated,
                m.topk_telemetry.pairs_unsafe, m.overview_cells_estimated);

    JsonValue entry = JsonValue::Object();
    entry.Set("label", w.label);
    entry.Set("rows", w.rows);
    entry.Set("cols", w.cols);
    entry.Set("hyperplane_bits", w.hyperplane_bits);
    entry.Set("seed", kSeed);
    entry.Set("top_k", kTopK);
    entry.Set("preprocess_seconds", m.preprocess_s);
    JsonValue topk = JsonValue::Object();
    topk.Set("exhaustive_ms", m.exhaustive_topk_ms);
    topk.Set("pruned_ms", m.pruned_topk_ms);
    topk.Set("speedup", topk_speedup);
    topk.Set("telemetry", TelemetryJson(m.topk_telemetry));
    entry.Set("topk", std::move(topk));
    JsonValue overview = JsonValue::Object();
    overview.Set("refine_min_score", kOverviewThreshold);
    overview.Set("exhaustive_ms", m.exhaustive_overview_ms);
    overview.Set("pruned_ms", m.pruned_overview_ms);
    overview.Set("sketch_mode_ms", m.sketch_overview_ms);
    overview.Set("speedup", overview_speedup);
    overview.Set("cells_estimated", m.overview_cells_estimated);
    overview.Set("telemetry", TelemetryJson(m.overview_telemetry));
    entry.Set("overview", std::move(overview));
    if (headline && m.parallel_pruned_topk_ms > 0.0) {
      JsonValue probe = JsonValue::Object();
      probe.Set("workers", kParallelWorkers);
      probe.Set("pruned_ms", m.parallel_pruned_topk_ms);
      probe.Set("scaling_claims_valid", ScalingClaimsValid(kParallelWorkers));
      entry.Set("parallel_probe", std::move(probe));
    }
    entry.Set("bit_identical", m.identical);
    workloads_json.Append(std::move(entry));
    all_ok = all_ok && m.ok;
  }

  // The parallel-speedup line only prints when this machine can substantiate
  // it; the raw timing still lands in the JSON either way.
  if (parallel_ms > 0.0) {
    if (ScalingClaimsValid(kParallelWorkers)) {
      std::printf("\n%zu-worker pruned top-k on %s: %.1f ms\n",
                  kParallelWorkers, kWorkloads[0].label, parallel_ms);
    } else {
      std::printf("\n%zu-worker probe timing suppressed: "
                  "scaling_claims_valid = false on this machine (see "
                  "environment JSON)\n", kParallelWorkers);
    }
  }

  bool target_met = headline_speedup >= kTargetSpeedup;
  std::printf("\nheadline (%s) exact top-%zu speedup: %.1fx (target >= "
              "%.0fx)\n", kWorkloads[0].label, kTopK, headline_speedup,
              kTargetSpeedup);
  std::printf("pruned results bit-identical to exhaustive exact: %s\n",
              all_identical ? "yes" : "NO");
  std::printf("target met: %s\n\n", target_met ? "yes" : "NO");

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "pairwise_prune");
  doc.Set("environment", BenchEnvironmentJson(kParallelWorkers));
  doc.Set("workloads", std::move(workloads_json));
  JsonValue summary = JsonValue::Object();
  summary.Set("headline_workload", kWorkloads[0].label);
  summary.Set("topk_speedup", headline_speedup);
  summary.Set("target", kTargetSpeedup);
  summary.Set("target_met", target_met);
  doc.Set("summary", std::move(summary));
  doc.Set("bit_identical", all_identical);

  std::ofstream out("BENCH_pairwise_prune.json");
  out << doc.Dump(2) << "\n";
  std::printf("wrote BENCH_pairwise_prune.json\n");
  return (all_ok && all_identical) ? 0 : 1;
}
