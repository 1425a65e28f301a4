// The repository benchmark program (see README.md). Usage:
//
//   foresight_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       --work-dir DIR
//
// Untraced runs print the end-to-end metrics as the last line of stdout.
// Traced runs write the span file into DIR and name it in that line instead;
// summarize_trace.py turns it into the per-layer metrics. Any failed
// operation or correctness gate exits 1 without a result line.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/bench_env.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Pins the process, before it starts any thread, to the last CPU it may
/// use (CPU 0 tends to take more interrupts), and returns that CPU (-1 if
/// pinning failed). On a shared virtual
/// machine a hand-off between threads on different vCPUs can wait on the
/// host scheduler to wake the target vCPU; unpinned, the read metrics of
/// ten runs swung with host load by up to 3x. On one CPU a hand-off is a
/// context switch.
int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: foresight_perfbench --workload "
               "carousel_hot|drilldown_cold|append_stream --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.work_dir.empty() ||
      !(options.seconds > 0.0)) {
    return Usage();
  }

  foresight::JsonValue env = foresight::BenchEnvironmentJson(2);
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr,
                 "foresight_perfbench: refusing to measure a%s build (%s)\n",
                 kSanitized ? " sanitizer" : "n unoptimized",
                 env.Get("build_type")->as_string().c_str());
    return 1;
  }

  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "foresight_perfbench: cannot pin to one CPU\n");
    return 1;
  }
  foresight::StatusOr<RunResult> run = RunWorkload(options);
  if (!run.ok()) {
    std::fprintf(stderr, "foresight_perfbench: %s failed: %s\n",
                 options.workload.c_str(), run.status().ToString().c_str());
    return 1;
  }

  foresight::JsonValue detail = run->detail;
  detail.Set("workload", options.workload);
  detail.Set("seed", static_cast<size_t>(options.seed));
  detail.Set("seconds", options.seconds);
  detail.Set("pinned_cpu", cpu);
  detail.Set("env", std::move(env));
  foresight::JsonValue detail_line = foresight::JsonValue::Object();
  detail_line.Set("detail", std::move(detail));
  std::printf("%s\n", detail_line.Dump().c_str());

  foresight::JsonValue metrics = foresight::JsonValue::Object();
  for (const Metric& metric : run->metrics) {
    foresight::JsonValue entry = foresight::JsonValue::Object();
    entry.Set("value", metric.value);
    entry.Set("unit", metric.unit);
    metrics.Set(metric.name, std::move(entry));
  }
  foresight::JsonValue result = foresight::JsonValue::Object();
  result.Set("correct", true);
  result.Set("attempted", run->attempted);
  result.Set("failed", run->failed);
  result.Set("metrics", std::move(metrics));
  if (options.trace) result.Set("span_file", run->span_file);
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
