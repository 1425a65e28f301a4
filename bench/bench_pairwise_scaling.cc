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
#include <optional>
#include <string>

#include "bench_harness.h"
#include "core/engine.h"
#include "data/generators.h"
#include "util/bench_env.h"

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

/// Builds the pruning engine for `w` at `workers` workers.
InsightEngine MakeEngine(const DataTable& table, const Workload& w,
                         size_t workers) {
  EngineOptions options;
  options.preprocess.sketch.hyperplane_bits = w.hyperplane_bits;
  options.num_workers = workers;
  return ValueOrExit(InsightEngine::Create(table, std::move(options)),
                     std::string(w.label) + " engine");
}

void MeasureWorkload(const Workload& w, bool parallel_probe,
                     BenchReport* report) {
  const std::string label = w.label;
  DataTable table =
      MakeCorrelatedBlocks(w.rows, w.cols, kBlockSize, kInBlockRho, kSeed);
  WallTimer timer;
  const InsightEngine engine = MakeEngine(table, w, 1);  // Serial headline.
  const double preprocess_s = timer.ElapsedSeconds();
  // The exhaustive reference: without a sketch profile there are no
  // signatures to plan with, so every candidate pair is evaluated exactly.
  EngineOptions exhaustive_options;
  exhaustive_options.build_profile = false;
  exhaustive_options.num_workers = 1;
  const InsightEngine exhaustive_engine = ValueOrExit(
      InsightEngine::Create(table, std::move(exhaustive_options)),
      label + " exhaustive engine");

  InsightQuery query;
  query.class_name = "linear_relationship";
  query.metric = "pearson";
  query.mode = ExecutionMode::kExact;
  query.top_k = kTopK;

  // Best-of-reps timed execution of `query` on `target`.
  auto run_topk = [&](const InsightEngine& target, const std::string& path,
                      BestTime* best) {
    const std::string what = path + " top-k query (" + label + ")";
    std::optional<InsightQueryResult> last;
    for (int rep = 0; rep < w.reps; ++rep) {
      last.reset();
      best->Time([&] { last = ValueOrExit(target.Execute(query), what); });
    }
    return std::move(*last);
  };
  auto run_overview = [&](ExecutionMode mode, double refine_min_score,
                          BestTime* best) {
    const PairwiseOverviewOptions options{.metric = "pearson",
                                          .mode = mode,
                                          .refine_min_score = refine_min_score};
    const std::string what = "overview (" + label + ", threshold " +
                             std::to_string(refine_min_score) + ")";
    std::optional<CorrelationOverview> last;
    for (int rep = 0; rep < w.reps; ++rep) {
      last.reset();
      best->Time([&] {
        last = ValueOrExit(
            engine.ComputePairwiseOverview("linear_relationship", options),
            what);
      });
    }
    return std::move(*last);
  };

  bool identical = true;
  BestTime exhaustive_topk;
  BestTime pruned_topk;
  const InsightQueryResult exhaustive =
      run_topk(exhaustive_engine, "exhaustive", &exhaustive_topk);
  const InsightQueryResult pruned = run_topk(engine, "pruned", &pruned_topk);
  const PruneTelemetry& topk_telemetry = pruned.prune;
  if (!SameRanking(exhaustive, pruned)) {
    identical = false;
    std::printf("EQUIVALENCE FAILURE (%s): pruned top-%zu differs from "
                "exhaustive exact\n", w.label, kTopK);
  }
  if (!TelemetryConsistent(pruned, exhaustive)) {
    identical = false;
    std::printf("TELEMETRY FAILURE (%s): prune counters inconsistent\n",
                w.label);
  }

  BestTime exhaustive_overview_time;
  BestTime pruned_overview_time;
  BestTime sketch_overview_time;  // E3's O(d^2 k) path, for reference.
  const CorrelationOverview exact_overview = run_overview(
      ExecutionMode::kExact, /*threshold=*/0.0, &exhaustive_overview_time);
  const CorrelationOverview pruned_overview = run_overview(
      ExecutionMode::kExact, kOverviewThreshold, &pruned_overview_time);
  run_overview(ExecutionMode::kSketch, /*threshold=*/0.0,
               &sketch_overview_time);
  const PruneTelemetry& overview_telemetry = pruned_overview.prune;

  // Gate: refined cells bit-identical to the exhaustive matrix; every
  // estimate-served cell's exact |value| provably below the threshold.
  size_t overview_cells_estimated = 0;
  if (!pruned_overview.prune.used ||
      pruned_overview.cell_provenance.size() !=
          pruned_overview.matrix.size()) {
    identical = false;
    std::printf("OVERVIEW FAILURE (%s): prune planner did not run\n", w.label);
  } else {
    for (size_t c = 0; c < pruned_overview.matrix.size(); ++c) {
      if (pruned_overview.cell_provenance[c] == Provenance::kExact) {
        if (pruned_overview.matrix[c] != exact_overview.matrix[c]) {
          identical = false;
          std::printf("OVERVIEW FAILURE (%s): refined cell %zu differs from "
                      "exhaustive exact\n", w.label, c);
          break;
        }
      } else {
        ++overview_cells_estimated;
        if (std::abs(exact_overview.matrix[c]) >= kOverviewThreshold) {
          identical = false;
          std::printf("OVERVIEW FAILURE (%s): cell %zu pruned but its exact "
                      "|value| %.4f >= %.2f\n", w.label, c,
                      std::abs(exact_overview.matrix[c]), kOverviewThreshold);
          break;
        }
      }
    }
  }

  BestTime parallel_topk;
  if (parallel_probe) {
    WarnIfOversubscribed(kParallelWorkers);
    const InsightEngine parallel_engine =
        MakeEngine(table, w, kParallelWorkers);
    const InsightQueryResult parallel =
        run_topk(parallel_engine, "parallel pruned", &parallel_topk);
    if (!SameRanking(exhaustive, parallel)) {
      identical = false;
      std::printf("EQUIVALENCE FAILURE (%s): %zu-worker pruned top-%zu "
                  "differs from serial exhaustive\n", w.label,
                  kParallelWorkers, kTopK);
    }
  }

  // The planner must actually prune, or the gates above pass vacuously.
  const bool prune_active =
      topk_telemetry.used && topk_telemetry.pairs_pruned > 0 &&
      overview_telemetry.used && overview_telemetry.pairs_pruned > 0;
  if (!prune_active) {
    std::printf("PRUNE INACTIVE (%s): the planner pruned nothing\n", w.label);
  }

  const double topk_speedup = exhaustive_topk.ms() / pruned_topk.ms();
  const double overview_speedup =
      exhaustive_overview_time.ms() / pruned_overview_time.ms();
  std::printf("%-18s | %-13.1f %-13.1f %-9.1f | %-13.1f %-13.1f %-9.1f | "
              "%-11.1f\n",
              w.label, exhaustive_topk.ms(), pruned_topk.ms(), topk_speedup,
              exhaustive_overview_time.ms(), pruned_overview_time.ms(),
              overview_speedup, sketch_overview_time.ms());
  std::printf("%-18s | preprocess %.1f s; top-k pruned %zu/%zu "
              "(unsafe %zu); overview estimated %zu cells\n",
              "", preprocess_s, topk_telemetry.pairs_pruned,
              topk_telemetry.pairs_total, topk_telemetry.pairs_unsafe,
              overview_cells_estimated);
  // The parallel timing only prints when this machine can substantiate it;
  // it lands in the JSON either way.
  if (parallel_probe && ScalingClaimsValid(kParallelWorkers)) {
    std::printf("%-18s | %zu-worker pruned top-k: %.1f ms\n", "",
                kParallelWorkers, parallel_topk.ms());
  }

  BenchWorkload workload{label + ", top-" + std::to_string(kTopK) + ", " +
                         std::to_string(w.hyperplane_bits) + " bits"};
  JsonValue& end_to_end = workload.end_to_end;
  end_to_end.Set("preprocess_seconds", preprocess_s);
  end_to_end.Set("topk_exhaustive_ms", exhaustive_topk.ms());
  end_to_end.Set("topk_pruned_ms", pruned_topk.ms());
  end_to_end.Set("topk_speedup", topk_speedup);
  end_to_end.Set("topk_pairs_total", topk_telemetry.pairs_total);
  end_to_end.Set("topk_pairs_refined", topk_telemetry.pairs_refined);
  end_to_end.Set("overview_exhaustive_ms", exhaustive_overview_time.ms());
  end_to_end.Set("overview_pruned_ms", pruned_overview_time.ms());
  end_to_end.Set("overview_sketch_ms", sketch_overview_time.ms());
  end_to_end.Set("overview_speedup", overview_speedup);
  end_to_end.Set("overview_pairs_total", overview_telemetry.pairs_total);
  end_to_end.Set("overview_pairs_refined", overview_telemetry.pairs_refined);
  if (parallel_probe) {
    end_to_end.Set("topk_pruned_ms_" + std::to_string(kParallelWorkers) +
                       "_workers",
                   parallel_topk.ms());
  }
  workload.gates.Set("bit_identical", identical);
  workload.gates.Set("prune_active", prune_active);
  report->Add(std::move(workload));
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags =
      ParseBenchFlags(argc, argv, {"--smoke", "--stretch"});
  BenchReport report("pairwise_prune", kParallelWorkers);
  std::printf("Sketch-first pairwise pruning: exact-provenance top-%zu and "
              "overview (refine_min_score %.2f)\n", kTopK,
              kOverviewThreshold);
  std::printf("planted structure: blocks of %zu @ rho %.1f, seed %llu\n\n",
              kBlockSize, kInBlockRho, static_cast<unsigned long long>(kSeed));
  std::printf("%-18s | %-13s %-13s %-9s | %-13s %-13s %-9s | %-11s\n",
              "workload", "exhaust (ms)", "pruned (ms)", "speedup",
              "ovw-ex (ms)", "ovw-pr (ms)", "speedup", "sketch (ms)");
  if (flags.smoke) {
    // 2048 bits: at delta = 1e-9 the rho interval half-width near rho = 0 is
    // ~0.23, comfortably under the planted-block threshold, so the planner
    // actually prunes here (1024 bits leaves null pairs' upper bounds above
    // the 25th-ranked lower bound and nothing would be discarded).
    MeasureWorkload({"smoke 4k x 24", 4000, 24, 2048, 1, false},
                    /*parallel_probe=*/false, &report);
    return report.Finish(/*smoke=*/true);
  }
  for (const Workload& w : kWorkloads) {
    if (w.stretch && !flags.stretch) continue;
    MeasureWorkload(w, /*parallel_probe=*/&w == &kWorkloads[0], &report);
  }
  std::printf("\nheadline (%s) exact top-%zu target: >= %.0fx\n",
              kWorkloads[0].label, kTopK, kTargetSpeedup);
  return report.Finish(/*smoke=*/false);
}
