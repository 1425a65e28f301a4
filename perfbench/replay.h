#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset_registry.h"
#include "core/engine.h"
#include "core/session.h"
#include "load.h"
#include "util/json.h"
#include "util/status.h"

namespace perfbench {

/// Spans of the traced run, kept in memory and written out at the end. A
/// span covers one call into a layer; its name's first component names the
/// layer ("serve.decode" -> serve). Roots named "request.*" are replayed
/// requests, "shadow.*" roots are measurement-only work outside any request,
/// and spans with request id 0 are set-up.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  uint64_t Open(const char* name, uint64_t parent, uint64_t request) {
    spans_.push_back({parent, request, name, Now(), -1});
    return spans_.size();
  }
  void Close(uint64_t id) { spans_[id - 1].t1 = Now(); }
  /// Names a span whose kind is known only after its call returned.
  void Rename(uint64_t id, const char* name) { spans_[id - 1].name = name; }
  /// A span with given times: the engine stages read from a QueryTrace.
  void Add(const char* name, uint64_t parent, uint64_t request, int64_t t0,
           int64_t t1) {
    spans_.push_back({parent, request, name, t0, t1});
  }
  int64_t start_of(uint64_t id) const { return spans_[id - 1].t0; }
  double millis_of(uint64_t id) const {
    return static_cast<double>(spans_[id - 1].t1 - spans_[id - 1].t0) * 1e-6;
  }

  /// One JSON line `header`, then one line per span:
  /// [id, parent, request, name, start_ns, end_ns].
  foresight::Status Write(const std::string& path,
                          const foresight::JsonValue& header) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    uint64_t parent;
    uint64_t request;
    const char* name;
    int64_t t0;
    int64_t t1;
  };
  Clock::time_point epoch_;
  std::vector<Span> spans_;  ///< Span id = index + 1.
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t parent = 0,
             uint64_t request = 0)
      : log_(log), id_(log.Open(name, parent, request)) {}
  ~ScopedSpan() { log_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  uint64_t id_;
};

/// What a replayed request runs against: the objects the server resolves.
/// Queries without a `dataset` use `session`; with one, `registry`.
/// Appends without a `dataset` go to `table`/`engine` (the default dataset).
/// `shadow_table`/`shadow_profile` (optional) replay every append through
/// DataTable::AppendRows and Preprocessor::AppendToProfile, the two calls a
/// dataset append chains, to split its cost.
struct ReplayTarget {
  const foresight::QuerySession* session = nullptr;
  foresight::DatasetRegistry* registry = nullptr;
  foresight::DataTable* table = nullptr;
  foresight::InsightEngine* engine = nullptr;
  foresight::DataTable* shadow_table = nullptr;
  foresight::TableProfile* shadow_profile = nullptr;
  foresight::ThreadPool* shadow_pool = nullptr;
};

/// Counts read from the return values of replayed calls.
struct ReplayCounters {
  size_t requests = 0;
  size_t reads = 0;
  size_t misses = 0;            ///< Session results computed by the engine.
  size_t candidates = 0;        ///< Candidates over those misses.
  size_t pairs_total = 0;       ///< Prune planner, queries and overviews.
  size_t pairs_refined = 0;
  size_t response_bytes = 0;    ///< Serialized HTTP responses, reads only.
  size_t appends = 0;
  size_t appends_merged = 0;

  foresight::JsonValue ToJson() const;
};

/// A read request decoded the way the server decodes it.
struct DecodedRead {
  std::vector<foresight::InsightQuery> queries;  ///< Query or batch.
  std::string overview_class;                     ///< Overview only.
  foresight::PairwiseOverviewOptions overview;
  std::string dataset;
};
foresight::StatusOr<DecodedRead> DecodeRead(Request::Kind kind,
                                            const std::string& target,
                                            const std::string& body);

/// Replays `request` through the public calls HttpServer chains for it:
/// ParseRequest, the JSON decoders, the session or engine call, and the wire
/// encoders down to SerializeResponse. Records a "request.*" root with one
/// child per call; a session call gets its engine stages as children, read
/// from the QueryTrace on each computed result.
foresight::Status ReplayRequest(const Request& request,
                                const ReplayTarget& target, uint64_t id,
                                SpanLog& log, ReplayCounters& counters);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
