#include "util/trace.h"

#include "util/metrics.h"

namespace foresight {

const char* QueryStageName(QueryStage stage) {
  switch (stage) {
    case QueryStage::kResolve:
      return "resolve";
    case QueryStage::kCacheLookup:
      return "cache_lookup";
    case QueryStage::kEnumerate:
      return "enumerate";
    case QueryStage::kEvaluate:
      return "evaluate";
    case QueryStage::kAssemble:
      return "assemble";
  }
  return "unknown";
}

JsonValue QueryTrace::ToJson() const {
  JsonValue stages = JsonValue::Object();
  for (size_t i = 0; i < kNumQueryStages; ++i) {
    stages.Set(QueryStageName(static_cast<QueryStage>(i)),
               JsonValue(stage_ms[i]));
  }
  JsonValue root = JsonValue::Object();
  root.Set("total_ms", JsonValue(total_ms));
  root.Set("stages", std::move(stages));
  return root;
}

void AccumulateTrace(const QueryTrace& trace, MetricsRegistry& registry) {
  for (size_t i = 0; i < kNumQueryStages; ++i) {
    if (trace.stage_ms[i] == 0.0) continue;
    std::string name = "engine.stage.";
    name += QueryStageName(static_cast<QueryStage>(i));
    name += "_ms";
    registry.histogram(name).Record(trace.stage_ms[i]);
  }
}

}  // namespace foresight
