#ifndef FORESIGHT_UTIL_TRACE_H_
#define FORESIGHT_UTIL_TRACE_H_

#include <array>
#include <cstddef>
#include <string>

#include "util/json.h"
#include "util/timer.h"

namespace foresight {

class MetricsRegistry;

/// The five pipeline stages of one insight query, in serving order. The
/// serving layer owns kCacheLookup; the engine owns the other four.
enum class QueryStage : size_t {
  kResolve = 0,     ///< Validation + default resolution (ResolveQuery).
  kCacheLookup,     ///< QuerySession cache probe (zero when unserved).
  kEnumerate,       ///< Candidate enumeration + structural filters.
  kEvaluate,        ///< Metric evaluation over the candidate set.
  kAssemble,        ///< Score filters, ranking, top-k, result build.
};

inline constexpr size_t kNumQueryStages = 5;

/// Stable lowercase stage name ("resolve", "cache_lookup", ...), used for
/// metric names and trace export.
const char* QueryStageName(QueryStage stage);

/// Per-query stage timings, accumulated by StageSpan and attached to
/// InsightQueryResult telemetry. Timings are observability only: they are
/// wall-clock derived and MUST never feed ranking or any other result
/// payload. All-zero when the engine was built with collect_metrics = false.
///
/// On a QuerySession cache hit, the engine-side stage timings describe the
/// call that originally computed the payload, while kCacheLookup (and the
/// result's elapsed_ms) describe the serving call.
struct QueryTrace {
  std::array<double, kNumQueryStages> stage_ms{};
  /// End-to-end latency of the call, mirroring InsightQueryResult::elapsed_ms.
  double total_ms = 0.0;

  double stage(QueryStage s) const { return stage_ms[static_cast<size_t>(s)]; }

  /// {"total_ms": t, "stages": {"resolve": ms, ...}} with all five stages
  /// always present.
  JsonValue ToJson() const;
};

/// RAII span: adds the wall time between construction and destruction to one
/// stage of a QueryTrace. A null trace disables the span entirely — no clock
/// is read — which is how collect_metrics = false stays clock-free.
class StageSpan {
 public:
  StageSpan(QueryTrace* trace, QueryStage stage) : trace_(trace), stage_(stage) {
    if (trace_ != nullptr) timer_.Restart();
  }
  ~StageSpan() {
    if (trace_ != nullptr) {
      trace_->stage_ms[static_cast<size_t>(stage_)] += timer_.ElapsedMillis();
    }
  }
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  QueryTrace* trace_;
  QueryStage stage_;
  // determinism-ok: observability span; timings never feed ranking
  WallTimer timer_{kDeferredStart};
};

/// Folds one query's stage timings into the registry's per-stage latency
/// histograms ("engine.stage.<stage>_ms"). Stages that never ran (0 ms) are
/// skipped, so histograms reflect work actually done.
void AccumulateTrace(const QueryTrace& trace, MetricsRegistry& registry);

}  // namespace foresight

#endif  // FORESIGHT_UTIL_TRACE_H_
