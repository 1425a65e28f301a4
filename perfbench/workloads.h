#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: the HTTP run once more (its latencies anchor the
  /// transport and wait metrics), then an in-process replay with spans.
  bool trace = false;
  /// Scratch space for generated files and the span file.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  size_t attempted = 0;
  /// Non-2xx responses and transport errors. Gate misses fail the run.
  size_t failed = 0;
  /// End-to-end metrics (untraced runs only).
  std::vector<Metric> metrics;
  /// Sample counts and other context, printed beside the result.
  foresight::JsonValue detail = foresight::JsonValue::Object();
  /// Traced runs: where the spans and counters were written.
  std::string span_file;
};

extern const char* const kWorkloads[3];

/// Runs one workload; an error status means a failed operation, set-up or
/// correctness gate, and no metrics may be reported.
foresight::StatusOr<RunResult> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
