// Preprocessing: the ingestion kernels (A4) and the paper's §3 speedup (E2).
//
// A4 — panel-cached, blocked sketch ingestion on 30k x (64 + 8) columns:
//   1. panel block-size sweep, serial;
//   2. worker sweep 2/4/8 at the default block size.
// Ingestion materializes each row block's random hyperplane and projection
// components once in a RandomPanelCache shared by all columns and partitions,
// and consumes them through dense blocked kernels. Every run's profile must be
// bit-identical to the serial default-block profile (the per-row oracle behind
// that profile is gated by tests/test_kernel_equivalence.cc).
//
// E2 — §3 claim: "3x-4x speedup in preprocessing", measured without
// parallelism, so both pipelines run on one worker:
//   exact  — no sketches; every insight class ranked exactly over raw data to
//            fill the full carousel set, which is what a system without §3
//            would have to precompute;
//   sketch — one-pass sketch preprocessing (§3) and the same carousel set
//            answered from sketches and samples.
// Reported: wall-clock seconds for each and their ratio over an (n, d) grid,
// gated at the paper's lower end: speedup >= 3.
//
// Results are printed AND written to BENCH_preprocess.json.
//
// --smoke: small table, one A4 equivalence pass (< 5 s), no JSON — for CI.

#include <cstdio>
#include <optional>
#include <string>
#include <thread>

#include "bench_harness.h"
#include "core/engine.h"
#include "core/profile.h"
#include "data/generators.h"
#include "util/bench_env.h"
#include "util/thread_pool.h"

using namespace foresight;

namespace {

constexpr size_t kRows = 30000;
constexpr size_t kNumericCols = 64;
constexpr size_t kCategoricalCols = 8;
constexpr uint64_t kSeed = 7;
constexpr int kReps = 3;
constexpr size_t kMaxWorkers = 8;

/// Profiles `table` `reps` times with `workers` threads and panel blocks of
/// `block_rows` rows (0 = the default 256); adds the run to `report` with
/// its best time, gated on matching `reference` (the serial default-block
/// profile). Returns the run's comparable profile document.
std::string ProfileRun(const DataTable& table, const std::string& shape,
                       size_t workers, size_t block_rows, int reps,
                       const std::string& reference, BenchReport* report) {
  ThreadPool pool(workers);
  PreprocessOptions options;
  options.panel_block_rows = block_rows;
  const std::string label = shape + ", workers " + std::to_string(workers) +
                            ", block_rows " +
                            std::to_string(block_rows == 0 ? 256 : block_rows);
  BestTime best;
  std::optional<TableProfile> profile;
  for (int rep = 0; rep < reps; ++rep) {
    profile.reset();
    best.Time([&] {
      profile =
          ValueOrExit(Preprocessor::Profile(table, options, &pool), label);
    });
  }
  const std::string fingerprint = ComparableProfileJson(*profile);
  const bool identical = reference.empty() || fingerprint == reference;
  std::printf("%-44s | %.3f s%s\n", label.c_str(), best.seconds(),
              identical ? "" : "  DIFFERS from the serial default-block run");
  BenchWorkload workload{"A4 " + label};
  workload.end_to_end.Set("preprocess_seconds", best.seconds());
  workload.gates.Set("bit_identical", identical);
  report->Add(std::move(workload));
  return fingerprint;
}

/// Every class's top-10 in `mode`: the full carousel set E2 pays for.
void RankEveryClass(const InsightEngine& engine, ExecutionMode mode) {
  for (const std::string& class_name : engine.registry().names()) {
    ValueOrExit(engine.TopInsights(class_name, 10, mode), "E2 " + class_name);
  }
}

/// E2: one row of the grid, both pipelines on one worker.
void RunSpeedupRow(size_t n, size_t d_num, size_t d_cat, BenchReport* report) {
  const DataTable table = MakeBenchmarkTable(n, d_num, d_cat, 91);
  EngineOptions exact_options;
  exact_options.build_profile = false;  // No sketches at all.
  exact_options.num_workers = 1;
  EngineOptions sketch_options;  // Profile built; k = O(log^2 n) auto.
  sketch_options.num_workers = 1;

  WallTimer timer;
  InsightEngine exact = ValueOrExit(
      InsightEngine::Create(table, std::move(exact_options)),
      "E2 exact engine");
  RankEveryClass(exact, ExecutionMode::kExact);
  const double exact_s = timer.ElapsedSeconds();

  timer.Restart();
  InsightEngine sketch = ValueOrExit(
      InsightEngine::Create(table, std::move(sketch_options)),
      "E2 sketch engine");
  RankEveryClass(sketch, ExecutionMode::kSketch);
  const double sketch_s = timer.ElapsedSeconds();

  const size_t d = d_num + d_cat;
  std::printf("%-9zu %-5zu | %-12.2f %-12.2f %-9.2f\n", n, d, exact_s,
              sketch_s, exact_s / sketch_s);
  BenchWorkload workload{"E2 " + std::to_string(n) + " x " +
                         std::to_string(d) + ", 1 worker"};
  workload.end_to_end.Set("exact_seconds", exact_s);
  workload.end_to_end.Set("sketch_seconds", sketch_s);
  workload.end_to_end.Set("speedup", exact_s / sketch_s);
  workload.gates.Set("paper_speedup", exact_s / sketch_s >= 3.0);
  report->Add(std::move(workload));
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv, {"--smoke"});
  BenchReport report("preprocess", kMaxWorkers);

  if (flags.smoke) {
    std::printf("bench_preprocess --smoke: A4 equivalence only\n");
    const DataTable table = MakeBenchmarkTable(3000, 12, 3, kSeed);
    const std::string shape = "smoke 3000 x (12 + 3)";
    const std::string reference =
        ProfileRun(table, shape, 1, 0, 1, "", &report);
    for (size_t workers : {size_t{1}, size_t{3}}) {
      for (size_t block_rows : {size_t{0}, size_t{64}, size_t{3000}}) {
        ProfileRun(table, shape, workers, block_rows, 1, reference, &report);
      }
    }
    return report.Finish(/*smoke=*/true);
  }

  std::printf("A4: ingestion kernels, block-size and worker sweeps\n");
  std::printf("hardware_concurrency: %u (%s)\n\n",
              std::thread::hardware_concurrency(), CpuModelName().c_str());
  const DataTable table =
      MakeBenchmarkTable(kRows, kNumericCols, kCategoricalCols, kSeed);
  const std::string shape = "30k x (64 + 8)";
  const std::string reference =
      ProfileRun(table, shape, 1, 0, kReps, "", &report);
  for (size_t block_rows : {size_t{1024}, size_t{4096}, kRows}) {
    ProfileRun(table, shape, 1, block_rows, kReps, reference, &report);
  }
  for (size_t workers : {size_t{2}, size_t{4}, kMaxWorkers}) {
    WarnIfOversubscribed(workers);
    ProfileRun(table, shape, workers, 0, kReps, reference, &report);
  }

  std::printf("\nE2: preprocessing + ranking, exact vs sketch, 1 worker "
              "(paper: 3x-4x)\n");
  std::printf("%-9s %-5s | %-12s %-12s %-9s\n", "n", "d", "exact (s)",
              "sketch (s)", "speedup");
  RunSpeedupRow(20000, 40, 4, &report);
  RunSpeedupRow(50000, 40, 4, &report);
  RunSpeedupRow(50000, 80, 6, &report);
  RunSpeedupRow(100000, 60, 4, &report);
  std::printf("\n");
  return report.Finish(/*smoke=*/false);
}
