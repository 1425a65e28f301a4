// Panel-cached, blocked sketch-ingestion kernels: preprocessing time of the
// one numeric ingest path across panel block sizes and worker counts.
//
// Ingestion materializes each row block's random hyperplane and projection
// components once in a RandomPanelCache shared by all columns and partitions,
// and consumes them through dense blocked kernels. Every run's profile must be
// bit-identical to the serial default-block profile (serialized-profile
// fingerprints; the per-row oracle behind that profile is gated by
// tests/test_kernel_equivalence.cc):
//   1. panel block-size sweep (serial) on the 30k x 64 workload;
//   2. worker sweep 1/2/4/8.
// Results are printed AND written to BENCH_preprocess_kernels.json.
//
// --smoke: small table, one equivalence pass (< 5 s), no JSON — for CI.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/profile.h"
#include "data/generators.h"
#include "util/bench_env.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace foresight;

namespace {

constexpr size_t kRows = 30000;
constexpr size_t kNumericCols = 64;
constexpr size_t kCategoricalCols = 8;
constexpr uint64_t kSeed = 7;
constexpr int kReps = 3;  // Timed repetitions; best rep is reported.

std::string ProfileFingerprint(const TableProfile& profile) {
  JsonValue json = profile.ToJson();
  json.Set("preprocess_seconds", 0.0);  // The one wall-clock-dependent field.
  return json.Dump();
}

struct RunResult {
  size_t workers = 1;
  size_t block_rows = 0;  // 0 = default (256).
  double seconds = 0.0;
  std::string fingerprint;
};

RunResult RunOnce(const DataTable& table, size_t workers, size_t block_rows,
                  int reps) {
  RunResult result;
  result.workers = workers;
  result.block_rows = block_rows;
  result.seconds = 1e100;
  ThreadPool pool(workers);
  ThreadPool* pool_ptr = workers > 1 ? &pool : nullptr;
  PreprocessOptions options;
  options.panel_block_rows = block_rows;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    auto profile = Preprocessor::Profile(table, options, pool_ptr);
    double elapsed = timer.ElapsedSeconds();
    if (!profile.ok()) {
      std::fprintf(stderr, "profile failed: %s\n",
                   profile.status().ToString().c_str());
      return result;
    }
    result.seconds = std::min(result.seconds, elapsed);
    result.fingerprint = ProfileFingerprint(*profile);
  }
  return result;
}

int RunSmoke() {
  std::printf("bench_preprocess_kernels --smoke: equivalence only\n");
  DataTable table = MakeBenchmarkTable(3000, 12, 3, kSeed);
  RunResult reference = RunOnce(table, 1, 0, /*reps=*/1);
  bool ok = !reference.fingerprint.empty();
  for (size_t workers : {size_t{1}, size_t{3}}) {
    for (size_t block_rows : {size_t{0}, size_t{64}, size_t{3000}}) {
      RunResult run = RunOnce(table, workers, block_rows, /*reps=*/1);
      if (run.fingerprint != reference.fingerprint) {
        ok = false;
        std::printf(
            "EQUIVALENCE FAILURE: workers=%zu block_rows=%zu differs from "
            "the serial default-block profile\n",
            workers, block_rows);
      }
    }
  }
  std::printf("profiles bit-identical to the serial default-block run: %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunSmoke();
  }

  std::printf(
      "Preprocessing ingestion kernels: block-size and worker sweeps\n");
  std::printf("workload: %zu rows x (%zu numeric + %zu categorical) columns\n",
              kRows, kNumericCols, kCategoricalCols);
  std::printf("hardware_concurrency: %u (%s)\n\n",
              std::thread::hardware_concurrency(), CpuModelName().c_str());
  DataTable table =
      MakeBenchmarkTable(kRows, kNumericCols, kCategoricalCols, kSeed);

  std::vector<RunResult> runs;
  auto record = [&](RunResult run) {
    std::printf("workers %zu | block_rows %5zu | %.3f s\n", run.workers,
                run.block_rows == 0 ? 256 : run.block_rows, run.seconds);
    runs.push_back(std::move(run));
  };

  // 1. Serial at the default block size (the reference every run must
  //    match), then the panel block-size sweep.
  record(RunOnce(table, 1, 0, kReps));
  for (size_t block_rows : {size_t{1024}, size_t{4096}, kRows}) {
    record(RunOnce(table, 1, block_rows, kReps));
  }

  // 2. Worker sweep.
  for (size_t workers : {size_t{2}, size_t{4}, size_t{8}}) {
    WarnIfOversubscribed(workers);
    record(RunOnce(table, workers, 0, kReps));
  }

  const std::string& reference_fingerprint = runs.front().fingerprint;
  bool equivalent = !reference_fingerprint.empty();
  for (const RunResult& run : runs) {
    if (run.fingerprint != reference_fingerprint) {
      equivalent = false;
      std::printf("EQUIVALENCE FAILURE: workers=%zu block_rows=%zu\n",
                  run.workers, run.block_rows);
    }
  }
  std::printf("\nall runs bit-identical to the serial default-block run: %s\n",
              equivalent ? "yes" : "NO");

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "preprocess_kernels");
  doc.Set("environment", BenchEnvironmentJson(/*max_workers_requested=*/8));
  JsonValue workload = JsonValue::Object();
  workload.Set("rows", kRows);
  workload.Set("numeric_cols", kNumericCols);
  workload.Set("categorical_cols", kCategoricalCols);
  workload.Set("seed", kSeed);
  doc.Set("workload", std::move(workload));
  JsonValue results = JsonValue::Array();
  for (const RunResult& run : runs) {
    JsonValue entry = JsonValue::Object();
    entry.Set("workers", run.workers);
    entry.Set("block_rows", run.block_rows);
    entry.Set("preprocess_seconds", run.seconds);
    results.Append(std::move(entry));
  }
  doc.Set("results", std::move(results));
  doc.Set("bit_identical", equivalent);

  std::ofstream out("BENCH_preprocess_kernels.json");
  out << doc.Dump(2) << "\n";
  std::printf("wrote BENCH_preprocess_kernels.json\n");
  return equivalent ? 0 : 1;
}
