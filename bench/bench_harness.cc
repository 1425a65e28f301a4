#include "bench_harness.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "serve/wire.h"
#include "util/bench_env.h"

namespace foresight {

BenchFlags ParseBenchFlags(int argc, char** argv,
                           std::initializer_list<std::string_view> accepted) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (std::find(accepted.begin(), accepted.end(), arg) == accepted.end()) {
      std::string usage;
      for (std::string_view flag : accepted) {
        usage += " [" + std::string(flag) + "]";
      }
      std::fprintf(stderr, "unknown flag: %s\nusage: %s%s\n", argv[i],
                   argv[0], usage.c_str());
      std::exit(2);
    }
    flags.smoke = flags.smoke || arg == "--smoke";
    flags.stretch = flags.stretch || arg == "--stretch";
  }
  return flags;
}

void ExitIfError(const Status& status, std::string_view what) {
  if (status.ok()) return;
  std::fprintf(stderr, "%.*s failed: %s\n", static_cast<int>(what.size()),
               what.data(), status.ToString().c_str());
  std::exit(1);
}

std::string ComparableProfileJson(const TableProfile& profile) {
  JsonValue json = profile.ToJson();
  json.Remove("preprocess_seconds");
  return json.Dump();
}

WireProbe ProbeWireIdentity(const InsightEngine& a, const InsightEngine& b,
                            std::string_view label) {
  WireProbe probe;
  for (const std::string& class_name : a.registry().names()) {
    for (ExecutionMode mode : {ExecutionMode::kSketch, ExecutionMode::kExact}) {
      InsightQuery query;
      query.class_name = class_name;
      query.top_k = 10;
      query.mode = mode;
      const std::string what = std::string(label) + " probe " + class_name;
      const std::string wire_a =
          WireResultV1(ValueOrExit(a.Execute(query), what)).Dump();
      const std::string wire_b =
          WireResultV1(ValueOrExit(b.Execute(query), what)).Dump();
      ++probe.queries;
      if (wire_a != wire_b) {
        probe.identical = false;
        std::printf("IDENTITY FAILURE (%.*s): class %s, mode %d: wire "
                    "results differ\n", static_cast<int>(label.size()),
                    label.data(), class_name.c_str(), static_cast<int>(mode));
      }
    }
  }
  return probe;
}

int BenchReport::Finish(bool smoke) const {
  bool pass = true;
  JsonValue workloads = JsonValue::Array();
  for (const BenchWorkload& workload : workloads_) {
    for (const auto& [name, value] : workload.gates.items()) {
      if (value.as_bool()) continue;
      pass = false;
      std::printf("GATE FAILED: %s: %s\n", workload.label.c_str(),
                  name.c_str());
    }
    JsonValue entry = JsonValue::Object();
    entry.Set("label", workload.label);
    entry.Set("end_to_end", workload.end_to_end);
    entry.Set("gates", workload.gates);
    workloads.Append(std::move(entry));
  }
  std::printf("all gates hold: %s\n", pass ? "yes" : "NO");
  if (!smoke) {
    JsonValue doc = JsonValue::Object();
    doc.Set("bench", bench_);
    doc.Set("environment", BenchEnvironmentJson(max_workers_requested_));
    doc.Set("workloads", std::move(workloads));
    const std::string path = "BENCH_" + bench_ + ".json";
    std::ofstream(path) << doc.Dump(2) << "\n";
    std::printf("wrote %s\n", path.c_str());
  }
  return pass ? 0 : 1;
}

}  // namespace foresight
