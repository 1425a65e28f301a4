// Shared pieces of the benches that write BENCH_*.json: flag parsing,
// failure exits, the best-of-N timer, the comparable profile document, the
// wire-identity probe, and the one result shape every BENCH file has:
//
//   {"bench": name, "environment": BenchEnvironmentJson(...),
//    "workloads": [{"label", "end_to_end": {...}, "gates": {name: bool}}]}
//
// A bench's exit code is nonzero exactly when one of its gates is false (or
// when a call it measures fails, which exits before anything is recorded).

#ifndef FORESIGHT_BENCH_BENCH_HARNESS_H_
#define FORESIGHT_BENCH_BENCH_HARNESS_H_

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/profile.h"
#include "util/json.h"
#include "util/status.h"
#include "util/timer.h"

namespace foresight {

/// The flags a bench accepts.
struct BenchFlags {
  bool smoke = false;    ///< --smoke: quick correctness gates, no JSON.
  bool stretch = false;  ///< --stretch: opt-in oversized workloads.
};

/// Parses the `accepted` subset of {--smoke, --stretch}. Any other argument
/// prints usage and exits 2, so a mistyped flag never runs the full bench.
BenchFlags ParseBenchFlags(int argc, char** argv,
                           std::initializer_list<std::string_view> accepted);

/// Prints `what` and `status` to stderr and exits 1 unless `status` is OK, so
/// a failed call is never timed, compared or recorded as finished work.
void ExitIfError(const Status& status, std::string_view what);

template <typename T>
T ValueOrExit(StatusOr<T> result, std::string_view what) {
  ExitIfError(result.status(), what);
  return std::move(*result);
}

/// Best-of-N wall time: the smallest of the times it sees, which is the
/// statistic every bench reports.
class BestTime {
 public:
  /// Runs `fn` once and keeps its wall time if it is the best so far.
  template <typename Fn>
  void Time(Fn&& fn) {
    WallTimer timer;
    fn();
    Add(timer.ElapsedMillis());
  }
  void Add(double ms) { ms_ = std::min(ms_, ms); }

  double ms() const { return ms_; }
  double seconds() const { return ms_ / 1e3; }

 private:
  double ms_ = std::numeric_limits<double>::infinity();
};

/// The profile document without `preprocess_seconds`, its one wall-clock
/// field: two profiles of the same rows must match byte for byte.
std::string ComparableProfileJson(const TableProfile& profile);

/// Outcome of ProbeWireIdentity.
struct WireProbe {
  size_t queries = 0;
  bool identical = true;
};

/// Runs every class registered on `a` at top-10 in sketch and exact mode on
/// both engines and compares the results as WireResultV1 bytes. Each
/// mismatch is printed under `label`; a failed query exits.
WireProbe ProbeWireIdentity(const InsightEngine& a, const InsightEngine& b,
                            std::string_view label);

/// One entry of a BENCH file's `workloads`.
struct BenchWorkload {
  std::string label;
  JsonValue end_to_end = JsonValue::Object();
  JsonValue gates = JsonValue::Object();  ///< Gate name -> bool.
};

/// Collects workloads and writes them as BENCH_<bench>.json.
class BenchReport {
 public:
  /// `max_workers_requested` is the largest worker count any measurement
  /// used (see BenchEnvironmentJson).
  BenchReport(std::string bench, size_t max_workers_requested)
      : bench_(std::move(bench)),
        max_workers_requested_(max_workers_requested) {}

  void Add(BenchWorkload workload) {
    workloads_.push_back(std::move(workload));
  }

  /// Prints every false gate, writes BENCH_<bench>.json into the working
  /// directory unless `smoke`, and returns the exit code: 1 when a gate is
  /// false, else 0.
  int Finish(bool smoke) const;

 private:
  std::string bench_;
  size_t max_workers_requested_;
  std::vector<BenchWorkload> workloads_;
};

}  // namespace foresight

#endif  // FORESIGHT_BENCH_BENCH_HARNESS_H_
