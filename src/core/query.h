#ifndef FORESIGHT_CORE_QUERY_H_
#define FORESIGHT_CORE_QUERY_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/insight.h"
#include "util/json.h"
#include "util/status.h"
#include "util/trace.h"

namespace foresight {

class InsightClassRegistry;
class DataTable;

/// Which computation path serves a query.
enum class ExecutionMode {
  kExact,   ///< Full-data metrics.
  kSketch,  ///< Sketch/sample estimates (§3).
  kAuto,    ///< Engine default (sketch when a profile is available).
};

/// Stable v1 wire name of an execution mode: "exact", "sketch", or "auto".
const char* ExecutionModeName(ExecutionMode mode);

/// Parses a v1 wire mode name; InvalidArgument for anything else.
StatusOr<ExecutionMode> ParseExecutionMode(std::string_view name);

/// An insight query (§2.1): "A basic insight query returns the visualizations
/// for the highest-ranked feature tuples according to the insight metric
/// selected", optionally with fixed attributes and strength filters.
struct InsightQuery {
  /// Registry name of the insight class to query (required).
  std::string class_name;
  /// Ranking metric; empty selects the class default.
  std::string metric;
  /// Number of top-ranked insights to return.
  size_t top_k = 10;
  /// Attribute names that must ALL appear in each returned tuple, e.g. fixing
  /// x = x0 and ranking over pairs (x0, y). Empty = unconstrained.
  std::vector<std::string> fixed_attributes;
  /// Metadata constraints (§2.1 future work, implemented here): every
  /// attribute of each returned tuple must carry ALL of these semantic tags
  /// (e.g. {"currency"} to rank only money-valued attributes). Tags are
  /// attached via DataTable::TagColumn. Empty = unconstrained.
  std::vector<std::string> required_tags;
  /// Inclusive bounds on the strength score (e.g. |rho| in [0.5, 0.8] "to
  /// filter out trivially very high correlations").
  std::optional<double> min_score;
  std::optional<double> max_score;
  ExecutionMode mode = ExecutionMode::kAuto;

  /// Context-free validation: non-empty class_name, min_score <= max_score.
  Status Validate() const;

  /// Full validation against an engine's registry and table: everything
  /// Validate() checks plus unknown class, unsupported metric, and unknown
  /// fixed attributes. The single source of the error messages that the one
  /// query path (InsightEngine::Execute is a batch of one, and QuerySession
  /// routes through it) reports, so every entry point fails identically for
  /// the same bad query.
  Status Validate(const InsightClassRegistry& registry,
                  const DataTable& table) const;

  /// Canonical cache key for the QuerySession result cache. Two queries that
  /// must produce identical results map to the same key: fixed attributes and
  /// required tags are sorted (order-insensitive), and the caller supplies
  /// the default-resolved metric and the kAuto-resolved execution mode so
  /// `metric = ""` / `mode = kAuto` alias their explicit spellings.
  std::string CacheKey(const std::string& resolved_metric,
                       ExecutionMode resolved_mode) const;

  /// v1 wire encoding (DESIGN.md "Wire API v1"):
  ///   {"class": "...", "top_k": N, "mode": "exact|sketch|auto",
  ///    "metric"?: "...", "fixed_attributes"?: [...],
  ///    "required_tags"?: [...], "min_score"?: x, "max_score"?: x}
  /// `class`, `top_k`, and `mode` are always emitted; empty metric, empty
  /// attribute/tag lists, and unset score bounds are omitted.
  /// FromJson(ToJson()) is the identity.
  JsonValue ToJson() const;

  /// Strict v1 decoder — the single JSON entry point shared by the HTTP
  /// server, the fuzz harnesses, and the tests (no ad-hoc parsing in
  /// handlers). Rejects with InvalidArgument: non-object documents, unknown
  /// fields (typos must not silently run a default query), wrong field
  /// types, non-integral / negative / > 1e9 top_k, unknown mode names, and
  /// anything the context-free Validate() rejects. Field semantics are
  /// frozen: additions to the v1 schema may only be new optional fields.
  static StatusOr<InsightQuery> FromJson(const JsonValue& json);
};

/// Telemetry of the sketch-first prune planner (DESIGN.md "Sketch-first
/// pruning"). All-zero with used == false when the planner did not run
/// (ineligible query or no profile). Counts are a pure function of the query
/// and profile — deterministic across worker counts, and the same whether
/// the query ran alone or as a batch member.
struct PruneTelemetry {
  bool used = false;          ///< The estimate→prune→refine pipeline ran.
  size_t pairs_total = 0;     ///< Candidate pairs the planner bounded.
  size_t pairs_pruned = 0;    ///< Pairs whose score upper bound missed top-k.
  size_t pairs_refined = 0;   ///< Pairs evaluated with the exact metric.
  size_t pairs_unsafe = 0;    ///< Pairs with no valid bound (always refined).
};

/// Query outcome: ranked insights plus execution telemetry.
struct InsightQueryResult {
  std::vector<Insight> insights;  ///< Sorted by descending score.
  /// Candidates the query CONSIDERED (post structural filters). When the
  /// prune planner ran (prune.used), sketch bounds eliminated some of these
  /// without exact evaluation — prune.pairs_refined counts the exact
  /// evaluations — but this field still reports the full considered count so
  /// it is comparable across pruned and exhaustive executions.
  size_t candidates_evaluated = 0;
  /// Candidates whose metric evaluated to a non-finite raw value (undefined —
  /// e.g. kurtosis of a constant column) and were excluded from ranking.
  size_t undefined_excluded = 0;
  /// End-to-end latency of the call that produced this result. On a
  /// QuerySession cache hit this is the measured hit-path latency (resolve +
  /// lookup + copy), never a stale or zero value.
  double elapsed_ms = 0.0;
  /// The kAuto-resolved mode that computed the insights; preserved verbatim
  /// when the result is served from the cache.
  ExecutionMode mode_used = ExecutionMode::kExact;
  /// True when a QuerySession served this result from its cache.
  bool cache_hit = false;
  /// Cache shard the result's key maps to (set by QuerySession on both the
  /// hit and the store-after-miss path; deterministic across platforms).
  size_t cache_shard = 0;
  /// Per-stage timing breakdown (observability only; all-zero when the engine
  /// runs with collect_metrics = false). On a QuerySession cache hit the
  /// engine stages describe the original computing call and kCacheLookup
  /// describes this serving call — see QueryTrace.
  QueryTrace trace;
  /// Sketch-first prune planner telemetry (used == false when it didn't run).
  PruneTelemetry prune;
};

}  // namespace foresight

#endif  // FORESIGHT_CORE_QUERY_H_
