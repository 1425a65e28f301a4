// Binary profile snapshots vs cold rebuild (DESIGN.md "Profile snapshots &
// dataset registry", ROADMAP item 2).
//
// The paper's premise (§3) is that preprocessing is paid once so queries stay
// interactive; a snapshot makes that hold across process restarts. This bench
// measures the cold-start path both ways over the SAME table:
//   rebuild — Preprocessor::Profile from raw columns (what a restart used to
//             cost per dataset);
//   load    — ReadFileBytes + LoadProfileSnapshot of the FSNAPBIN image.
// The loaded profile must be BIT-IDENTICAL to the rebuilt one (profile
// document bytes), and queries over the two must return bit-identical wire
// results across every insight class and worker counts {1, 8} — a speedup can
// never come from serving different answers.
//
// A registry stage then churns N snapshot-backed datasets through a
// DatasetRegistry whose budget only fits a fraction of them, proving the
// byte-budget invariant (peak resident bytes <= budget, with evictions
// actually happening) and measuring per-dataset attach latency from snapshots
// vs rebuilds.
//
// Workloads: 30k x 64 (headline, >= 20x target) and 100k x 128. Results are
// printed AND written to BENCH_snapshot.json.
//
// --smoke: small workload, identity + budget-invariant checks only (< 5 s),
// no JSON — for CI.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "core/dataset_registry.h"
#include "core/engine.h"
#include "core/profile.h"
#include "core/snapshot.h"
#include "data/csv.h"
#include "data/generators.h"
#include "data/table.h"
#include "util/bench_env.h"

using namespace foresight;

namespace {

constexpr uint64_t kSeed = 11;
constexpr double kTargetSpeedup = 20.0;  // Headline rebuild/load target.
constexpr size_t kParallelWorkers = 8;   // Identity probe worker count.

struct Workload {
  const char* label;
  size_t rows;
  size_t numeric;
  size_t categorical;
  int build_reps;  // Timed repetitions; the best rep is reported.
  int load_reps;
  bool identity_probe;  // Run the per-class / per-worker-count query gate.
  bool headline;        // Gated on kTargetSpeedup.
};

constexpr Workload kWorkloads[] = {
    {"30k x 64", 30000, 56, 8, 3, 5, true, true},
    {"100k x 128", 100000, 112, 16, 2, 5, false, false},
};

/// Scratch path for this bench's snapshot files; recreated per run.
std::filesystem::path ScratchDir() {
  return std::filesystem::temp_directory_path() / "foresight_bench_snapshot";
}

void MeasureWorkload(const Workload& w, BenchReport* report) {
  const std::string label = w.label;
  const DataTable table =
      MakeBenchmarkTable(w.rows, w.numeric, w.categorical, kSeed);

  // Cold rebuild: the price a restart pays without a snapshot.
  BestTime rebuild;
  std::optional<TableProfile> rebuilt;
  for (int rep = 0; rep < w.build_reps; ++rep) {
    rebuilt.reset();
    rebuild.Time([&] {
      rebuilt =
          ValueOrExit(Preprocessor::Profile(table), label + " profile build");
    });
  }
  const size_t profile_bytes = rebuilt->EstimateMemoryBytes();

  // Encode once (also timed — it is the snapshot write path minus the disk),
  // then persist through the atomic file writer the registry relies on.
  WallTimer timer;
  const std::string image = EncodeProfileSnapshot(*rebuilt);
  const double encode_ms = timer.ElapsedMillis();
  std::error_code ec;
  std::filesystem::create_directories(ScratchDir(), ec);
  const std::string path = (ScratchDir() / (label + ".fsnap")).string();
  ExitIfError(WriteProfileSnapshot(*rebuilt, path), label + " snapshot write");

  // Cold load: file read + FJB1 decode + validators + sample
  // rematerialization — everything a registry attach pays.
  BestTime load;
  std::optional<TableProfile> loaded;
  for (int rep = 0; rep < w.load_reps; ++rep) {
    loaded.reset();
    load.Time([&] {
      loaded = ValueOrExit(LoadProfileSnapshotFile(table, path),
                           label + " snapshot load");
    });
  }

  // Gate 1: the restored profile document is byte-identical to the one that
  // was encoded (doubles included — that is the point of the binary path).
  bool identical = loaded->ToJson().Dump() == rebuilt->ToJson().Dump();
  if (!identical) {
    std::printf("IDENTITY FAILURE (%s): loaded profile document differs from "
                "the rebuilt one\n", w.label);
  }

  // Gate 2: query results over a freshly preprocessed engine and a
  // snapshot-loaded one are bit-identical at the wire-API level, per class,
  // per mode, per worker count.
  size_t identity_queries = 0;
  if (w.identity_probe && identical) {
    WarnIfOversubscribed(kParallelWorkers);
    for (size_t workers : {size_t{1}, kParallelWorkers}) {
      const std::string at =
          label + ", " + std::to_string(workers) + " workers";
      EngineOptions rebuild_options;
      rebuild_options.num_workers = workers;
      EngineOptions snapshot_options;
      snapshot_options.num_workers = workers;
      const InsightEngine from_rebuild = ValueOrExit(
          InsightEngine::Create(table, std::move(rebuild_options)),
          at + " rebuild engine");
      const InsightEngine from_snapshot = ValueOrExit(
          InsightEngine::CreateFromProfile(
              table,
              ValueOrExit(LoadProfileSnapshotFile(table, path),
                          at + " snapshot load"),
              std::move(snapshot_options)),
          at + " snapshot engine");
      const WireProbe probe =
          ProbeWireIdentity(from_rebuild, from_snapshot, at);
      identity_queries += probe.queries;
      identical = identical && probe.identical;
    }
  }

  const double speedup = rebuild.ms() / load.ms();
  const double size_ratio = static_cast<double>(image.size()) /
                            static_cast<double>(profile_bytes);
  std::printf("%-14s | %-12.3f %-11.1f %-9.1f | %-14zu %-14zu %-7.2f\n",
              w.label, rebuild.seconds(), load.ms(), speedup, image.size(),
              profile_bytes, size_ratio);
  if (w.identity_probe) {
    std::printf("%-14s | %zu identity queries (every class x {sketch, exact} "
                "x workers {1, %zu}): %s\n", "", identity_queries,
                kParallelWorkers, identical ? "bit-identical" : "DIFFER");
  }

  BenchWorkload workload{label};
  workload.end_to_end.Set("rebuild_seconds", rebuild.seconds());
  workload.end_to_end.Set("encode_ms", encode_ms);
  workload.end_to_end.Set("load_ms", load.ms());
  workload.end_to_end.Set("speedup", speedup);
  workload.end_to_end.Set("snapshot_bytes", image.size());
  workload.end_to_end.Set("profile_estimate_bytes", profile_bytes);
  if (w.identity_probe) {
    workload.end_to_end.Set("identity_queries", identity_queries);
  }
  workload.gates.Set("bit_identical", identical);
  if (w.headline) workload.gates.Set("target_met", speedup >= kTargetSpeedup);
  report->Add(std::move(workload));
}

/// Builds `count` CSV+snapshot dataset fixtures under ScratchDir()/datasets
/// and churns them through a registry whose budget fits only `fit` of them.
/// Every Acquire also runs a query through the pinned session, so eviction
/// happens under real use, not idle pointer traffic. The gate: tracked
/// resident bytes never exceed the budget, and evictions actually happen.
void RunRegistryChurn(size_t count, size_t fit, size_t rows, int rounds,
                      BenchReport* report) {
  const std::filesystem::path dir = ScratchDir() / "datasets";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);

  for (size_t i = 0; i < count; ++i) {
    const std::string id = "churn" + std::to_string(i);
    const std::string csv_path = (dir / (id + ".csv")).string();
    const DataTable generated =
        MakeBenchmarkTable(rows, 10, 2, kSeed + 100 + i);
    ExitIfError(CsvWriter::WriteFile(generated, csv_path),
                "churn fixture write");
    // Profile the CSV-parsed table, not the in-memory one: the snapshot must
    // match the doubles a server re-reading that CSV will hold.
    const DataTable parsed =
        ValueOrExit(CsvReader::ReadFile(csv_path), "churn fixture read");
    const TableProfile profile =
        ValueOrExit(Preprocessor::Profile(parsed), "churn fixture profile");
    ExitIfError(WriteProfileSnapshot(profile, (dir / (id + ".fsnap")).string()),
                "churn fixture snapshot");
  }

  const std::vector<DatasetSpec> specs =
      ValueOrExit(DatasetRegistry::ScanDirectory(dir.string()), "churn scan");
  if (specs.size() != count) {
    std::fprintf(stderr, "churn scan found %zu datasets, wrote %zu\n",
                 specs.size(), count);
    std::exit(1);
  }

  // Size the budget from a real resident dataset (table + profile bytes).
  size_t one_dataset_bytes = 0;
  {
    DatasetRegistry sizing;  // Unlimited budget.
    ExitIfError(sizing.Add(specs[0]), "sizing add");
    one_dataset_bytes =
        ValueOrExit(sizing.Acquire(specs[0].id), "sizing acquire")
            ->resident_bytes();
  }
  const size_t budget_bytes = one_dataset_bytes * fit + one_dataset_bytes / 2;

  DatasetRegistryOptions options;
  options.memory_budget_bytes = budget_bytes;
  DatasetRegistry registry(options);
  for (const DatasetSpec& spec : specs) {
    ExitIfError(registry.Add(spec), "churn add " + spec.id);
  }

  InsightQuery query;
  query.class_name = "skew";
  query.top_k = 5;
  query.mode = ExecutionMode::kSketch;

  bool within_budget = true;
  BestTime attach_snapshot;  // Cold attaches from a snapshot.
  // Round-robin with a stride-3 overlay: enough reuse for hits, enough
  // rotation that the LRU tail is continuously evicted.
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < count; ++i) {
      const size_t pick = (round % 2 == 0) ? i : (i * 3) % count;
      const std::string& id = specs[pick].id;
      const bool was_resident = [&] {
        for (const DatasetEntryInfo& e : registry.ListEntries()) {
          if (e.id == id) return e.resident;
        }
        return false;
      }();
      WallTimer timer;
      const auto pin = ValueOrExit(registry.Acquire(id), "churn acquire " + id);
      const double elapsed = timer.ElapsedMillis();
      if (!was_resident && pin->loaded_from_snapshot()) {
        attach_snapshot.Add(elapsed);
      }
      ValueOrExit(pin->session().Execute(query), "churn query " + id);
      within_budget =
          within_budget && registry.stats().resident_bytes <= budget_bytes;
    }
  }

  // Rebuild-path attach for contrast: same CSVs, snapshots withheld.
  BestTime attach_rebuild;
  {
    DatasetRegistry rebuild_registry;
    for (DatasetSpec spec : specs) {
      spec.snapshot_path.clear();
      ExitIfError(rebuild_registry.Add(std::move(spec)), "rebuild add");
    }
    for (const DatasetSpec& spec : specs) {
      WallTimer timer;
      const auto pin = ValueOrExit(rebuild_registry.Acquire(spec.id),
                                   "rebuild acquire " + spec.id);
      attach_rebuild.Add(timer.ElapsedMillis());
      if (pin->loaded_from_snapshot()) {
        std::fprintf(stderr, "rebuild acquire %s loaded a snapshot\n",
                     spec.id.c_str());
        std::exit(1);
      }
    }
  }

  const DatasetRegistryStats stats = registry.stats();
  const bool invariant_held = within_budget &&
                              stats.peak_resident_bytes <= budget_bytes &&
                              stats.evictions > 0 && stats.load_failures == 0;
  std::printf("registry churn: %zu datasets, budget fits %zu; loads %llu, "
              "hits %llu, evictions %llu; peak resident %zu / budget %zu "
              "bytes; invariant held: %s\n",
              count, fit, static_cast<unsigned long long>(stats.loads),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.evictions),
              stats.peak_resident_bytes, budget_bytes,
              invariant_held ? "yes" : "NO");
  std::printf("cold attach: %.1f ms from snapshot vs %.1f ms rebuilding\n",
              attach_snapshot.ms(), attach_rebuild.ms());

  BenchWorkload workload{"registry churn: " + std::to_string(count) +
                         " datasets of " + std::to_string(rows) +
                         " rows, budget fits " + std::to_string(fit)};
  workload.end_to_end.Set("attach_snapshot_ms", attach_snapshot.ms());
  workload.end_to_end.Set("attach_rebuild_ms", attach_rebuild.ms());
  workload.end_to_end.Set("budget_bytes", budget_bytes);
  workload.end_to_end.Set("peak_resident_bytes", stats.peak_resident_bytes);
  workload.end_to_end.Set("loads", stats.loads);
  workload.end_to_end.Set("hits", stats.hits);
  workload.end_to_end.Set("evictions", stats.evictions);
  workload.gates.Set("budget_invariant", invariant_held);
  report->Add(std::move(workload));
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv, {"--smoke"});
  BenchReport report("snapshot", kParallelWorkers);
  std::printf("%-14s | %-12s %-11s %-9s | %-14s %-14s %-7s\n", "workload",
              "rebuild (s)", "load (ms)", "speedup", "snapshot (B)",
              "profile (B)", "ratio");
  if (flags.smoke) {
    MeasureWorkload({"smoke 2k x 12", 2000, 10, 2, 1, 1, true, false},
                    &report);
    RunRegistryChurn(/*count=*/4, /*fit=*/2, /*rows=*/1500, /*rounds=*/3,
                     &report);
  } else {
    for (const Workload& w : kWorkloads) MeasureWorkload(w, &report);
    RunRegistryChurn(/*count=*/8, /*fit=*/3, /*rows=*/8000, /*rounds=*/4,
                     &report);
    std::printf("headline target: load >= %.0fx faster than rebuild\n",
                kTargetSpeedup);
  }
  std::error_code ec;
  std::filesystem::remove_all(ScratchDir(), ec);
  return report.Finish(flags.smoke);
}
