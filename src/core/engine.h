#ifndef FORESIGHT_CORE_ENGINE_H_
#define FORESIGHT_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/insight_class.h"
#include "core/profile.h"
#include "core/query.h"
#include "data/table.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace foresight {

/// Engine construction options.
struct EngineOptions {
  /// Build a sketch profile at construction (enables the approximate path).
  bool build_profile = true;
  PreprocessOptions preprocess;
  /// Collect observability data: a MetricsRegistry (counters, gauges, latency
  /// histograms — see DumpMetrics) plus per-query stage traces on every
  /// InsightQueryResult. When false the engine reads no wall clocks at all:
  /// elapsed_ms and traces stay zero. Ranked output is bit-identical either
  /// way (gated by test); only telemetry differs.
  bool collect_metrics = true;
  /// Registry to use; when empty (default) the 12 built-in classes are used.
  /// It is fixed for the engine's life: to plug in a class, register it on a
  /// registry built here (e.g. from InsightClassRegistry::CreateDefault()).
  std::optional<InsightClassRegistry> registry;
  /// Total threads for preprocessing, candidate evaluation and pairwise
  /// overviews (the paper's §5 future work: "parallel search methods that
  /// speed up insight queries"). The engine always owns one persistent
  /// ThreadPool of this size, fixed for its life; 0 (the default) resolves to
  /// std::thread::hardware_concurrency(), and 1 is a pool that spawns no
  /// threads and runs everything inline. Results are bit-identical to serial
  /// execution regardless of worker count.
  size_t num_workers = 0;
};

/// Outcome of InsightEngine::AppendPartition.
struct AppendStats {
  size_t rows_before = 0;
  size_t rows_appended = 0;
  size_t num_rows = 0;  ///< Rows after the append.
  /// True when the profile grew by delta-merge; false when the append forced
  /// a full re-preprocess (e.g. the auto-resolved hyperplane width changed at
  /// the new row count). Either way the profile matches the appended table.
  bool delta_merged = false;
  double seconds = 0.0;  ///< Wall-clock cost of the append (telemetry).
};

/// Options for InsightEngine::ComputePairwiseOverview.
struct PairwiseOverviewOptions {
  /// Ranking metric; empty selects the class default.
  std::string metric;
  ExecutionMode mode = ExecutionMode::kAuto;
  /// Sketch-first pruning threshold for EXACT-mode overviews: cells whose
  /// score upper bound is provably below this threshold keep their full-k
  /// sketch estimate (marked kSketch in cell_provenance) instead of being
  /// refined exactly. 0 (default) disables pruning — every cell is exact.
  /// Cells at or above the threshold are guaranteed exact, so the overview's
  /// strong entries are bit-identical to the exhaustive exact matrix.
  double refine_min_score = 0.0;
};

/// Pairwise overview (§2.1: "an insight may optionally have one or more
/// associated overview visualizations that display the values of the insight
/// metric over all tuples in the insight class"). For the linear-relationship
/// class this is Figure 2's correlation heatmap; the same container serves
/// any arity-2 numeric insight class (Spearman, NMI, ...).
struct CorrelationOverview {
  std::string class_name;   ///< Insight class the matrix belongs to.
  std::string metric_name;  ///< Ranking metric whose raw values fill it.
  std::vector<std::string> attribute_names;  ///< Numeric columns, table order.
  std::vector<size_t> column_indices;
  /// Row-major d x d matrix of raw metric values (signed for correlations).
  std::vector<double> matrix;
  /// Provenance of the requested execution mode. When the prune planner ran
  /// (prune.used), individual cells may differ — cell_provenance is then the
  /// per-cell authority.
  Provenance provenance = Provenance::kExact;
  /// Per-cell provenance, row-major d x d, filled ONLY when the prune
  /// planner ran (empty otherwise): kExact for refined cells, kSketch for
  /// cells served by their full-k signature estimate.
  std::vector<Provenance> cell_provenance;
  /// Prune planner telemetry (used == false for exhaustive overviews).
  PruneTelemetry prune;

  double at(size_t i, size_t j) const {
    return matrix[i * attribute_names.size() + j];
  }
};

/// A fully validated, default-resolved insight query: the class pointer, the
/// concrete metric (class default applied), the kAuto-resolved execution
/// mode, and fixed-attribute names resolved to column indices. Produced by
/// InsightEngine::ResolveQuery; the QuerySession serving layer uses it to
/// build canonical cache keys without re-running validation.
struct ResolvedQuery {
  const InsightClass* insight_class = nullptr;
  std::string metric;
  ExecutionMode mode = ExecutionMode::kExact;
  std::vector<size_t> fixed_indices;
};

/// Export format for InsightEngine::DumpMetrics.
enum class MetricsFormat {
  kJson,        ///< MetricsRegistry::ToJson().Dump() — structured snapshot.
  kPrometheus,  ///< Prometheus text exposition format.
};

/// The insight recommendation engine: enumerates candidate tuples per class,
/// evaluates ranking metrics (exactly or from sketches), and serves ranked,
/// filtered insight queries.
class InsightEngine {
 public:
  /// Builds an engine over `table` (must outlive the engine). Preprocesses a
  /// sketch profile unless options disable it.
  static StatusOr<InsightEngine> Create(const DataTable& table,
                                        EngineOptions options = {});

  /// Builds an engine over `table` adopting an existing profile (e.g. one
  /// restored via Preprocessor::LoadProfile or a binary snapshot), skipping
  /// preprocessing. The profile must have been built from (or loaded against)
  /// the same table. `options.build_profile`/`options.preprocess` are ignored
  /// (the adopted profile takes their place); registry, metrics, and worker
  /// count apply exactly as in Create() — so a multi-dataset registry can
  /// attach hundreds of engines without each one spinning up a hardware-sized
  /// thread pool.
  static StatusOr<InsightEngine> CreateFromProfile(const DataTable& table,
                                                   TableProfile profile,
                                                   EngineOptions options = {});

  InsightEngine(InsightEngine&&) = default;
  InsightEngine& operator=(InsightEngine&&) = default;

  const DataTable& table() const { return *table_; }
  const InsightClassRegistry& registry() const { return registry_; }
  bool has_profile() const { return profile_.has_value(); }
  const TableProfile& profile() const { return *profile_; }

  /// Monotonic invalidation epoch for the QuerySession result cache: the
  /// table schema's mutation counter, which table tag/column changes and row
  /// appends (AppendPartition) bump, so a cached result can never outlive
  /// the state that produced it. The registry is fixed at construction.
  uint64_t serving_epoch() const;

  /// Appends `delta`'s rows to `table` — which must be the very table this
  /// engine serves, passed mutably by its owner — and brings the profile up
  /// to date by delta-merge: only the new rows are sketched (through the
  /// panel-blocked kernels) and merged into the existing per-column sketches,
  /// bit-identical to a from-scratch Preprocess of the full table with
  /// partition boundaries replaying the append history (the contract on
  /// Preprocessor::AppendToProfile). When the delta cannot merge — the
  /// auto-resolved hyperplane width changed at the new row count — the
  /// profile is rebuilt from scratch instead (delta_merged = false in the
  /// returned stats); correct either way, just not incremental.
  ///
  /// The serving epoch advances via the schema's mutation counter, so cached
  /// query results invalidate precisely. On-disk snapshots of the old profile
  /// become stale by their row-count prelude: Preprocessor::LoadProfile and
  /// snapshot loaders reject them against the grown table, and the dataset
  /// registry falls back to rebuild (see `foresight_snapshot refresh`).
  ///
  /// NOT safe to run concurrently with queries on this engine or its table —
  /// the serving layer holds each dataset's append/query SharedMutex
  /// exclusively around this call (queries hold it shared).
  StatusOr<AppendStats> AppendPartition(DataTable& table,
                                        const DataTable& delta);

  /// Validates `query` and resolves its defaults (metric, kAuto mode, fixed
  /// attribute indices). Every serving path — Execute, ExecuteBatch, and the
  /// QuerySession — funnels through this, so they reject identical queries
  /// with identical errors.
  StatusOr<ResolvedQuery> ResolveQuery(const InsightQuery& query) const;

  /// Executes an insight query (§2.1): a batch of one (see ExecuteBatch).
  StatusOr<InsightQueryResult> Execute(const InsightQuery& query) const;

  /// Executes a batch of queries, sharing work across them — the one query
  /// path, which Execute() also takes. Queries are grouped by (class,
  /// metric, mode); each group enumerates its candidate set once, runs the
  /// sketch-first prune planner for every member PruneEligible accepts, and
  /// evaluates the union of the candidates some member still needs once on
  /// the engine pool; then per-query filters/top-k are applied. N
  /// overlapping queries cost ~1 enumeration + 1 evaluation sweep instead of
  /// N, and the results are bit-identical to N independent Execute() calls
  /// (each tuple's metric evaluation is a pure function of (tuple, metric,
  /// mode)). All queries are validated up front; the first invalid query
  /// (in batch order) fails the whole batch. An evaluation failure reports
  /// the error of the lowest candidate index in the group's enumeration
  /// order. Only calls to this method count in engine.batches_total and
  /// engine.batch_ms.
  StatusOr<std::vector<InsightQueryResult>> ExecuteBatch(
      std::span<const InsightQuery> queries) const;

  /// Convenience: top-k of a class with the default metric.
  StatusOr<std::vector<Insight>> TopInsights(
      const std::string& class_name, size_t k,
      ExecutionMode mode = ExecutionMode::kAuto) const;

  /// Evaluates one specific tuple (used by the explorer for neighborhoods).
  StatusOr<Insight> EvaluateTuple(const std::string& class_name,
                                  const AttributeTuple& tuple,
                                  const std::string& metric = "",
                                  ExecutionMode mode = ExecutionMode::kAuto) const;

  /// Generalized overview: the metric values of ANY arity-2 numeric insight
  /// class over all attribute pairs (§2.1's per-class overview
  /// visualizations). This is the single overview entry point (the former
  /// ComputeCorrelationOverview alias and the metric/mode convenience
  /// overloads are gone — see DESIGN.md "API deprecations"); Figure 2's
  /// correlation heatmap is ComputePairwiseOverview("linear_relationship").
  /// Default-constructed options select the class default metric, kAuto
  /// mode, and no sketch-first cell pruning (refine_min_score = 0).
  StatusOr<CorrelationOverview> ComputePairwiseOverview(
      const std::string& class_name,
      const PairwiseOverviewOptions& options = {}) const;

  /// Resolved worker-thread count used by every parallel path (>= 1), fixed
  /// at construction by EngineOptions::num_workers.
  size_t num_workers() const { return pool_->num_threads(); }

  /// The engine-owned pool; never null. A one-worker engine's pool spawns no
  /// threads and runs every ParallelFor inline. Shared by preprocessing,
  /// queries, overviews, and the HTTP front-end's job drain.
  ThreadPool* thread_pool() const { return pool_.get(); }

  /// The engine's metrics registry — nullptr when the engine was built with
  /// collect_metrics = false. Components layered on top (QuerySession) attach
  /// their own metrics here so one DumpMetrics covers the whole stack. The
  /// shared_ptr keeps the registry alive for late exporters even if the
  /// engine is destroyed first.
  const std::shared_ptr<MetricsRegistry>& metrics() const { return metrics_; }
  bool collect_metrics() const { return metrics_ != nullptr; }

  /// Serializes the current metrics snapshot — engine, query-cache (when a
  /// QuerySession is attached), thread-pool, and panel-cache metrics — in the
  /// requested format. "{}" / "" when metrics are disabled.
  std::string DumpMetrics(MetricsFormat format = MetricsFormat::kJson) const;

 private:
  /// Takes the registry, metrics and worker count from `options` (the
  /// registry is moved out); the profile is the factories' job.
  InsightEngine(const DataTable& table, EngineOptions& options);

  /// Resolves kAuto and validates the requested mode is available.
  StatusOr<ExecutionMode> ResolveMode(ExecutionMode mode) const;

  StatusOr<double> Evaluate(const InsightClass& insight_class,
                            const AttributeTuple& tuple,
                            const std::string& metric,
                            ExecutionMode mode) const;

  Insight BuildInsight(const InsightClass& insight_class,
                       const AttributeTuple& tuple, const std::string& metric,
                       double raw_value, ExecutionMode mode) const;

  /// Execute and ExecuteBatch without the batch metrics.
  StatusOr<std::vector<InsightQueryResult>> RunQueries(
      std::span<const InsightQuery> queries) const;

  /// Evaluates item i for each i in `positions` (ascending) into
  /// (*raw_values)[i] of `size` values (0 where not evaluated); `tuple_at(i)`
  /// yields item i's tuple. Runs on the pool with serial-identical
  /// first-error semantics. The one evaluator: queries read their enumerated
  /// candidates, and overviews build each cell's tuple on the worker.
  template <typename TupleAt>
  Status EvaluateCandidates(const InsightClass& insight_class,
                            const std::string& metric, ExecutionMode mode,
                            std::span<const size_t> positions, size_t size,
                            const TupleAt& tuple_at,
                            std::vector<double>* raw_values) const;

  /// True when `query`/`resolved` qualify for the sketch-first prune planner:
  /// profile present, exact mode, an arity-2 class that supports bounded
  /// estimation for the metric, no max_score (an upper score filter breaks
  /// the top-k threshold argument — see DESIGN.md), and more candidates than
  /// top_k.
  bool PruneEligible(const InsightQuery& query, const ResolvedQuery& resolved,
                     size_t num_candidates) const;

  /// Folds prune telemetry into the registry (pairwise_* counters). Caller
  /// has already checked metrics are enabled.
  void RecordPruneMetrics(const PruneTelemetry& telemetry) const;

  /// Applies score-range filters and ranks the top k over the candidates at
  /// `positions` (the query's own candidates in enumeration order), then
  /// builds Insight records for those k only; `raw_values` is indexed like
  /// `candidates`.
  InsightQueryResult AssembleResult(
      const InsightQuery& query, const ResolvedQuery& resolved,
      const std::vector<AttributeTuple>& candidates,
      std::span<const size_t> positions,
      const std::vector<double>& raw_values) const;

  /// Folds one finished query's telemetry (count, candidates, per-class
  /// evaluations, latency, stage histograms) into the registry. Caller has
  /// already checked metrics are enabled.
  void RecordQueryMetrics(const InsightClass& insight_class,
                          const InsightQueryResult& result) const;

  /// Publishes the one-shot preprocessing telemetry (preprocess latency,
  /// profile footprint, panel-cache counters) after a profile is installed.
  void RecordProfileMetrics() const;

  const DataTable* table_;
  InsightClassRegistry registry_;
  std::optional<TableProfile> profile_;
  /// The options the profile was (or would be) built with; AppendPartition
  /// reuses them for delta ingestion and for the full-rebuild fallback.
  PreprocessOptions preprocess_options_;
  /// Declared before pool_, which is built with it.
  std::shared_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace foresight

#endif  // FORESIGHT_CORE_ENGINE_H_
