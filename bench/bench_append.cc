// Incremental ingestion: AppendRows + delta-merge vs full re-preprocess
// (DESIGN.md "Incremental ingestion", ROADMAP item 1's §3 preprocessing pass
// made append-friendly).
//
// The paper's preprocessing pass is paid once per table; without incremental
// ingestion every appended batch re-pays it in full. This bench measures both
// paths over the SAME grown table:
//   full   — Preprocessor::Profile over all base+delta rows (what a
//            non-incremental system pays per batch);
//   append — DataTable::AppendRows + Preprocessor::AppendToProfile via
//            InsightEngine::AppendPartition (delta profile over new rows
//            only, merged into the existing profile).
// The appended profile must be BIT-IDENTICAL to a from-scratch rebuild of
// the grown table with the same partition layout (partition_boundaries =
// append history), and queries over the two must return bit-identical wire
// results across every insight class and worker counts {1, 8} — the speedup
// can never come from serving different answers.
//
// Workloads: 20k x 32 with a 1% batch (identity probe: every registered
// class x {sketch, exact} x workers {1, 8}) and the paper-scale 100k x 128
// with a 1% batch (headline: append+merge must be >= 10x cheaper than
// re-preprocess). Results are printed AND written to BENCH_append.json.
//
// --smoke: small workload, identity + delta-merge checks only (< 5 s), no
// JSON — for CI.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "bench_harness.h"
#include "core/engine.h"
#include "core/profile.h"
#include "data/generators.h"
#include "data/table.h"
#include "util/bench_env.h"
#include "util/logging.h"
#include "util/thread_pool.h"

using namespace foresight;

namespace {

constexpr uint64_t kSeed = 13;
constexpr double kTargetSpeedup = 10.0;  // Headline full/append target.
constexpr size_t kParallelWorkers = 8;   // Identity probe worker count.

struct Workload {
  const char* label;
  size_t base_rows;
  size_t delta_rows;  // The appended batch (1% of base).
  size_t numeric;
  size_t categorical;
  int reps;             // Timed repetitions; the best rep is reported.
  bool identity_probe;  // Run the per-class / per-worker-count query gate.
  bool headline;        // Gated on kTargetSpeedup.
};

constexpr Workload kWorkloads[] = {
    {"20k x 32 (+1%)", 20000, 200, 28, 4, 3, true, false},
    {"100k x 128 (+1%)", 100000, 1000, 112, 16, 2, false, true},
};

/// Rows [begin, end) of `table` as a standalone table (same columns).
/// Categorical values copy by string, so the slice's dictionary is in
/// first-occurrence order of the slice — exactly what a client POSTing those
/// rows to /v1/append would produce.
DataTable SliceRows(const DataTable& table, size_t begin, size_t end) {
  DataTable out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    std::unique_ptr<Column> sliced;
    if (column.type() == ColumnType::kNumeric) {
      auto dst = std::make_unique<NumericColumn>();
      const NumericColumn& src = column.AsNumeric();
      for (size_t i = begin; i < end; ++i) {
        if (src.is_valid(i)) {
          dst->Append(src.value(i));
        } else {
          dst->AppendNull();
        }
      }
      sliced = std::move(dst);
    } else {
      auto dst = std::make_unique<CategoricalColumn>();
      const CategoricalColumn& src = column.AsCategorical();
      for (size_t i = begin; i < end; ++i) {
        if (src.is_valid(i)) {
          dst->Append(src.value(i));
        } else {
          dst->AppendNull();
        }
      }
      sliced = std::move(dst);
    }
    FORESIGHT_CHECK(
        out.AddColumn(table.column_name(c), std::move(sliced)).ok());
  }
  return out;
}

void MeasureWorkload(const Workload& w, BenchReport* report) {
  const std::string label = w.label;
  const size_t grown_rows = w.base_rows + w.delta_rows;
  const DataTable full =
      MakeBenchmarkTable(grown_rows, w.numeric, w.categorical, kSeed);
  const DataTable base = SliceRows(full, 0, w.base_rows);
  const DataTable delta = SliceRows(full, w.base_rows, grown_rows);

  // Full re-preprocess: the price a non-incremental system pays per batch.
  BestTime full_time;
  std::optional<TableProfile> rebuilt_full;
  for (int rep = 0; rep < w.reps; ++rep) {
    rebuilt_full.reset();
    full_time.Time([&] {
      rebuilt_full =
          ValueOrExit(Preprocessor::Profile(full), label + " full profile");
    });
  }

  // Append path: fresh base engine per rep (AppendPartition mutates it);
  // only the append itself — table growth, delta profile, sketch merges,
  // sample rematerialization — is timed.
  BestTime append_time;
  bool delta_merged = true;
  for (int rep = 0; rep < w.reps; ++rep) {
    DataTable table = base.Clone();
    EngineOptions options;
    options.num_workers = 1;
    InsightEngine engine =
        ValueOrExit(InsightEngine::Create(table, std::move(options)),
                    label + " base engine");
    AppendStats stats;
    append_time.Time([&] {
      stats = ValueOrExit(engine.AppendPartition(table, delta),
                          label + " append");
    });
    delta_merged = delta_merged && stats.delta_merged;
    if (stats.num_rows != grown_rows) {
      std::fprintf(stderr, "append row count wrong (%s): %zu\n", w.label,
                   stats.num_rows);
      std::exit(1);
    }
  }

  // Identity gates, per worker count: the appended profile must be
  // bit-identical to a from-scratch rebuild of the grown table with the
  // same partition layout (partition_boundaries = the append history), and
  // — for probe workloads — wire results over the two must match per class
  // and mode.
  bool identical = true;
  size_t identity_queries = 0;
  WarnIfOversubscribed(kParallelWorkers);
  for (size_t workers : {size_t{1}, kParallelWorkers}) {
    const std::string at = label + ", " + std::to_string(workers) + " workers";
    ThreadPool pool(workers);

    DataTable table = base.Clone();
    PreprocessOptions options;
    TableProfile appended = ValueOrExit(
        Preprocessor::Profile(table, options, &pool), at + " base profile");
    ExitIfError(table.AppendRows(delta), at + " AppendRows");
    ExitIfError(Preprocessor::AppendToProfile(table, w.base_rows, options,
                                              &appended, &pool),
                at + " delta merge");

    PreprocessOptions rebuild_options;
    rebuild_options.partition_boundaries = {w.base_rows, grown_rows};
    TableProfile rebuilt =
        ValueOrExit(Preprocessor::Profile(table, rebuild_options, &pool),
                    at + " partitioned rebuild");

    if (ComparableProfileJson(appended) != ComparableProfileJson(rebuilt)) {
      identical = false;
      std::printf("IDENTITY FAILURE (%s): appended profile document differs "
                  "from the partitioned rebuild\n", at.c_str());
    }

    if (w.identity_probe && identical) {
      EngineOptions appended_options;
      appended_options.num_workers = workers;
      EngineOptions rebuilt_options;
      rebuilt_options.num_workers = workers;
      const InsightEngine from_append = ValueOrExit(
          InsightEngine::CreateFromProfile(table, std::move(appended),
                                           std::move(appended_options)),
          at + " append engine");
      const InsightEngine from_rebuild = ValueOrExit(
          InsightEngine::CreateFromProfile(table, std::move(rebuilt),
                                           std::move(rebuilt_options)),
          at + " rebuild engine");
      const WireProbe probe = ProbeWireIdentity(from_append, from_rebuild, at);
      identity_queries += probe.queries;
      identical = identical && probe.identical;
    }
  }

  const double speedup = full_time.seconds() / append_time.seconds();
  std::printf("%-20s | %-10.3f %-11.4f %-9.1f | %-7s\n", w.label,
              full_time.seconds(), append_time.seconds(), speedup,
              delta_merged ? "yes" : "NO");
  if (w.identity_probe) {
    std::printf("%-20s | %zu identity queries (every class x {sketch, exact} "
                "x workers {1, %zu}): %s\n", "", identity_queries,
                kParallelWorkers, identical ? "bit-identical" : "DIFFER");
  }

  BenchWorkload workload{label};
  workload.end_to_end.Set("full_rebuild_seconds", full_time.seconds());
  workload.end_to_end.Set("append_seconds", append_time.seconds());
  workload.end_to_end.Set("speedup", speedup);
  if (w.identity_probe) {
    workload.end_to_end.Set("identity_queries", identity_queries);
  }
  workload.gates.Set("bit_identical", identical);
  workload.gates.Set("delta_merged", delta_merged);
  if (w.headline) workload.gates.Set("target_met", speedup >= kTargetSpeedup);
  report->Add(std::move(workload));
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv, {"--smoke"});
  BenchReport report("append", kParallelWorkers);
  std::printf("%-20s | %-10s %-11s %-9s | %-7s\n", "workload", "full (s)",
              "append (s)", "speedup", "merged");
  if (flags.smoke) {
    MeasureWorkload({"smoke 2k x 12 (+1%)", 2000, 20, 10, 2, 1, true, false},
                    &report);
    return report.Finish(/*smoke=*/true);
  }
  for (const Workload& w : kWorkloads) MeasureWorkload(w, &report);
  std::printf("headline target: append >= %.0fx cheaper than re-preprocess\n",
              kTargetSpeedup);
  return report.Finish(/*smoke=*/false);
}
