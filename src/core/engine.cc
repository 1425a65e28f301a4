#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>

#include "util/first_error.h"
#include "util/timer.h"
#include "util/trace.h"

namespace foresight {

namespace {

/// Chunk size that splits `items` into a few chunks per worker (dynamic
/// load balancing without excessive claiming overhead).
size_t BalancedGrain(size_t items, size_t workers) {
  return std::max<size_t>(1, items / (workers * 4));
}

/// The structural (pre-evaluation) query filters: fixed attributes (§2.1)
/// and metadata-tag constraints (§2.1 future work). Pure per-tuple predicate,
/// so applying it before or after metric evaluation selects the same tuples —
/// which is what lets a query group evaluate a shared candidate union once.
bool TupleMatches(const DataTable& table, const AttributeTuple& tuple,
                  const std::vector<size_t>& fixed_indices,
                  const std::vector<std::string>& required_tags) {
  for (size_t fixed : fixed_indices) {
    if (!tuple.Contains(fixed)) return false;
  }
  for (size_t index : tuple.indices) {
    const ColumnSpec& spec = table.schema().column(index);
    for (const std::string& tag : required_tags) {
      if (!spec.HasTag(tag)) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Sketch-first prune planner (DESIGN.md "Sketch-first pruning").
//
// Estimate → prune → refine: every planned pair is bounded once from its
// full sketch signature, pairs provably below the top-k threshold are
// dropped, and only the survivors reach the exact metric kernels. Pruning is
// sound per pair with probability >= 1 - kPairDelta: a pair is dropped only
// when its score UPPER bound falls strictly below a threshold T chosen so
// that at least top_k other pairs have SAFE score LOWER bounds >= T — so the
// dropped pair cannot displace any of them from the exact top-k (see the
// design doc for the full argument, including why max_score disqualifies a
// query). Each pair's bound is computed exactly once, so kPairDelta is also
// the per-pair failure probability.

/// Per-pair failure probability of a score bound. At 5e-10 even a
/// 10^6-pair workload keeps the any-pair failure probability below ~1e-3,
/// and the cost is only a ~1.7x wider epsilon than delta = 1e-3.
constexpr double kPairDelta = 5e-10;

/// Absorbs floating-point rounding between the bound math and the exact
/// kernels: a pair is pruned only when score_hi + kBoundSlack < T, so ties
/// and hairline cases always refine.
constexpr double kBoundSlack = 1e-9;

struct PrunePlan {
  /// Tuple indices to evaluate exactly, ascending (enumeration order).
  std::vector<size_t> refine;
  /// Sketch bound per planned position; overviews fill pruned cells with
  /// its estimate.
  std::vector<SketchScoreBound> bounds;
  std::vector<char> pruned;  ///< Per planned position; 1 = dropped.
  PruneTelemetry telemetry;
};

/// k-th largest element of `values` (1-based k); -inf when there are fewer
/// than k values (no threshold contribution).
double KthLargest(std::vector<double> values, size_t k) {
  if (k == 0 || values.size() < k) {
    return -std::numeric_limits<double>::infinity();
  }
  std::nth_element(values.begin(),
                   values.begin() + static_cast<ptrdiff_t>(k - 1),
                   values.end(), std::greater<double>());
  return values[k - 1];
}

/// Plans over the tuples at `positions` (ascending indices into `tuples`).
/// The threshold is either the caller-fixed score floor (overviews) or the
/// k-th largest score LOWER bound among SAFE pairs, strengthened by
/// min_score: every pair it prunes is provably (w.h.p.) outside the exact
/// top-k. Because the k pairs defining the threshold have
/// score_hi >= score_lo >= T, they are never pruned themselves.
PrunePlan PlanPairwisePrune(const InsightClass& insight_class,
                            const TableProfile& profile,
                            const std::vector<AttributeTuple>& tuples,
                            std::span<const size_t> positions,
                            const std::string& metric, size_t top_k,
                            std::optional<double> min_score,
                            std::optional<double> fixed_threshold) {
  PrunePlan plan;
  const size_t n = positions.size();
  plan.pruned.assign(n, 0);
  plan.telemetry.used = true;
  plan.telemetry.pairs_total = n;
  insight_class.EstimateScoreBounds(profile, tuples, positions, metric,
                                    kPairDelta, plan.bounds);

  double threshold;
  if (fixed_threshold.has_value()) {
    threshold = *fixed_threshold;
  } else {
    // Only SAFE lower bounds may raise the threshold: unsafe bounds are
    // vacuous by contract (insight_class.h), and an unsafe pair's sketch can
    // agree spuriously (e.g. two constant columns share an all-set signature
    // while their exact Pearson is the 0.0 sentinel). Since unsafe pairs are
    // never pruned, excluding them loses no pruning power — it only keeps
    // the threshold honest.
    std::vector<double> lows;
    lows.reserve(n);
    for (const SketchScoreBound& bound : plan.bounds) {
      if (bound.safe) lows.push_back(bound.score_lo);
    }
    threshold = KthLargest(std::move(lows), top_k);
    if (min_score.has_value()) threshold = std::max(threshold, *min_score);
  }
  for (size_t r = 0; r < n; ++r) {
    const SketchScoreBound& bound = plan.bounds[r];
    if (!bound.safe) ++plan.telemetry.pairs_unsafe;
    if (bound.safe && bound.score_hi + kBoundSlack < threshold) {
      plan.pruned[r] = 1;
    } else {
      plan.refine.push_back(positions[r]);
    }
  }
  plan.telemetry.pairs_refined = plan.refine.size();
  plan.telemetry.pairs_pruned = n - plan.refine.size();
  return plan;
}

}  // namespace

InsightEngine::InsightEngine(const DataTable& table, EngineOptions& options)
    : table_(&table),
      registry_(options.registry.has_value()
                    ? std::move(*options.registry)
                    : InsightClassRegistry::CreateDefault()),
      metrics_(options.collect_metrics ? std::make_shared<MetricsRegistry>()
                                       : nullptr),
      pool_(std::make_unique<ThreadPool>(options.num_workers, metrics_)) {}

StatusOr<InsightEngine> InsightEngine::Create(const DataTable& table,
                                              EngineOptions options) {
  InsightEngine engine(table, options);
  engine.preprocess_options_ = options.preprocess;
  if (options.build_profile) {
    FORESIGHT_ASSIGN_OR_RETURN(
        TableProfile profile,
        Preprocessor::Profile(table, options.preprocess, engine.pool_.get()));
    engine.profile_.emplace(std::move(profile));
    if (engine.metrics_ != nullptr) engine.RecordProfileMetrics();
  }
  return engine;
}

uint64_t InsightEngine::serving_epoch() const {
  return table_->schema().version();
}

StatusOr<InsightEngine> InsightEngine::CreateFromProfile(
    const DataTable& table, TableProfile profile, EngineOptions options) {
  if (&profile.table() != &table) {
    return Status::InvalidArgument(
        "profile was not built from (or loaded against) this table");
  }
  InsightEngine engine(table, options);
  // Future appends and rebuild fallbacks must reproduce the adopted profile's
  // sketch geometry, not whatever options.preprocess carried.
  engine.preprocess_options_ = options.preprocess;
  engine.preprocess_options_.sketch = profile.config();
  engine.profile_.emplace(std::move(profile));
  if (engine.metrics_ != nullptr) engine.RecordProfileMetrics();
  return engine;
}

StatusOr<AppendStats> InsightEngine::AppendPartition(DataTable& table,
                                                     const DataTable& delta) {
  if (&table != table_) {
    return Status::InvalidArgument(
        "AppendPartition requires the engine's own table");
  }
  // determinism-ok: append timing is reporting-only telemetry
  WallTimer timer;
  AppendStats stats;
  stats.rows_before = table_->num_rows();
  stats.rows_appended = delta.num_rows();
  FORESIGHT_RETURN_IF_ERROR(table.AppendRows(delta));
  stats.num_rows = table_->num_rows();
  stats.delta_merged = true;
  if (profile_.has_value() && delta.num_rows() > 0) {
    Status merged = Preprocessor::AppendToProfile(
        *table_, stats.rows_before, preprocess_options_, &*profile_,
        pool_.get());
    if (!merged.ok()) {
      // Any merge failure (FailedPrecondition when the auto-resolved
      // hyperplane width changed, or anything else) leaves the profile in its
      // pre-append state; fall back to the always-correct full rebuild so the
      // engine never serves a profile that disagrees with the table.
      stats.delta_merged = false;
      FORESIGHT_ASSIGN_OR_RETURN(
          TableProfile rebuilt,
          Preprocessor::Profile(*table_, preprocess_options_, pool_.get()));
      profile_ = std::move(rebuilt);
    }
  }
  // AppendRows bumped the schema's mutation counter, which feeds
  // serving_epoch(): cached query results invalidate without further help.
  stats.seconds = timer.ElapsedSeconds();
  if (metrics_ != nullptr) {
    metrics_->counter("engine.appends_total").Increment();
    metrics_->counter("engine.append_rows_total").Increment(delta.num_rows());
    metrics_->histogram("engine.append_ms").Record(stats.seconds * 1e3);
    if (profile_.has_value()) RecordProfileMetrics();
  }
  return stats;
}

StatusOr<ExecutionMode> InsightEngine::ResolveMode(ExecutionMode mode) const {
  if (mode == ExecutionMode::kAuto) {
    return profile_.has_value() ? ExecutionMode::kSketch : ExecutionMode::kExact;
  }
  if (mode == ExecutionMode::kSketch && !profile_.has_value()) {
    return Status::FailedPrecondition(
        "sketch mode requested but no profile was built");
  }
  return mode;
}

StatusOr<double> InsightEngine::Evaluate(const InsightClass& insight_class,
                                         const AttributeTuple& tuple,
                                         const std::string& metric,
                                         ExecutionMode mode) const {
  if (mode == ExecutionMode::kSketch && insight_class.SupportsSketch()) {
    return insight_class.EvaluateSketch(*profile_, tuple, metric);
  }
  return insight_class.EvaluateExact(*table_, tuple, metric);
}

Insight InsightEngine::BuildInsight(const InsightClass& insight_class,
                                    const AttributeTuple& tuple,
                                    const std::string& metric,
                                    double raw_value,
                                    ExecutionMode mode) const {
  Insight insight;
  insight.class_name = insight_class.name();
  insight.metric_name = metric;
  insight.attributes = tuple;
  for (size_t index : tuple.indices) {
    insight.attribute_names.push_back(table_->column_name(index));
  }
  insight.raw_value = raw_value;
  insight.score = insight_class.Score(raw_value);
  insight.provenance = (mode == ExecutionMode::kSketch &&
                        insight_class.SupportsSketch())
                           ? Provenance::kSketch
                           : Provenance::kExact;
  insight.description = insight_class.Describe(insight);
  return insight;
}

StatusOr<ResolvedQuery> InsightEngine::ResolveQuery(
    const InsightQuery& query) const {
  FORESIGHT_RETURN_IF_ERROR(query.Validate(registry_, *table_));
  ResolvedQuery resolved;
  resolved.insight_class = registry_.Find(query.class_name);
  resolved.metric = query.metric.empty()
                        ? resolved.insight_class->metric_names().front()
                        : query.metric;
  FORESIGHT_ASSIGN_OR_RETURN(resolved.mode, ResolveMode(query.mode));
  for (const std::string& name : query.fixed_attributes) {
    FORESIGHT_ASSIGN_OR_RETURN(size_t index, table_->ColumnIndex(name));
    resolved.fixed_indices.push_back(index);
  }
  return resolved;
}

template <typename TupleAt>
Status InsightEngine::EvaluateCandidates(
    const InsightClass& insight_class, const std::string& metric,
    ExecutionMode mode, std::span<const size_t> positions, size_t size,
    const TupleAt& tuple_at, std::vector<double>* raw_values) const {
  // Raw values land at their item's index and a failure reports the lowest
  // failing position, so the outcome is identical to serial execution
  // regardless of worker count (§5 future work).
  raw_values->assign(size, 0.0);
  FirstError first_error;
  pool_->ParallelFor(
      0, positions.size(), BalancedGrain(positions.size(), num_workers()),
      [&](size_t chunk_begin, size_t chunk_end) {
        for (size_t k = chunk_begin; k < chunk_end; ++k) {
          if (first_error.ShadowedAt(k)) return;
          const size_t i = positions[k];
          StatusOr<double> raw =
              Evaluate(insight_class, tuple_at(i), metric, mode);
          if (!raw.ok()) {
            first_error.Record(k, raw.status());
            return;
          }
          (*raw_values)[i] = *raw;
        }
      });
  if (first_error.has_error()) return first_error.status();
  return Status::OK();
}

bool InsightEngine::PruneEligible(const InsightQuery& query,
                                  const ResolvedQuery& resolved,
                                  size_t num_candidates) const {
  return profile_.has_value() && resolved.mode == ExecutionMode::kExact &&
         resolved.insight_class->arity() == 2 &&
         // An upper score filter breaks the top-k threshold argument: with
         // strong pairs filtered OUT by max_score, a pair below the sketch
         // threshold could still make the final ranking. Bypass entirely.
         !query.max_score.has_value() &&
         // With top_k >= the candidate count nothing can be pruned anyway.
         query.top_k > 0 && num_candidates > query.top_k &&
         resolved.insight_class->SupportsSketchPruning(*profile_,
                                                       resolved.metric);
}

void InsightEngine::RecordPruneMetrics(const PruneTelemetry& telemetry) const {
  MetricsRegistry& registry = *metrics_;
  registry.counter("engine.pairwise_pruned_total")
      .Increment(telemetry.pairs_pruned);
  registry.counter("engine.pairwise_refined_total")
      .Increment(telemetry.pairs_refined);
  registry.counter("engine.pairwise_unsafe_total")
      .Increment(telemetry.pairs_unsafe);
}

InsightQueryResult InsightEngine::AssembleResult(
    const InsightQuery& query, const ResolvedQuery& resolved,
    const std::vector<AttributeTuple>& candidates,
    std::span<const size_t> positions,
    const std::vector<double>& raw_values) const {
  const InsightClass& insight_class = *resolved.insight_class;
  InsightQueryResult result;
  result.mode_used = resolved.mode;
  result.candidates_evaluated = positions.size();
  // Filter and rank (score, candidate) pairs; only the k kept become
  // Insight records, so an all-pairs query describes k tuples, not all.
  struct Ranked {
    double score;
    size_t index;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(positions.size());
  for (size_t i : positions) {
    if (!std::isfinite(raw_values[i])) {
      // The metric is undefined for this tuple (e.g. kurtosis of a constant
      // column evaluates to the NaN sentinel). A NaN score would break the
      // strict weak ordering below — UB in nth_element/sort — so undefined
      // values are excluded from ranking and counted instead.
      ++result.undefined_excluded;
      continue;
    }
    double score = insight_class.Score(raw_values[i]);
    if (query.min_score.has_value() && score < *query.min_score) continue;
    if (query.max_score.has_value() && score > *query.max_score) continue;
    ranked.push_back({score, i});
  }

  // Rank by descending score (ties: attribute order for determinism). The
  // ordering is total (distinct tuples have distinct attribute indices), so
  // selecting the top k with nth_element and then sorting just those k gives
  // exactly the prefix a full sort would — in O(c + k log k) instead of
  // O(c log c) when top_k << candidates.
  auto stronger = [&candidates](const Ranked& a, const Ranked& b) {
    if (a.score != b.score) return a.score > b.score;
    return candidates[a.index].indices < candidates[b.index].indices;
  };
  if (ranked.size() > query.top_k) {
    std::nth_element(ranked.begin(), ranked.begin() + query.top_k,
                     ranked.end(), stronger);
    ranked.resize(query.top_k);
  }
  std::sort(ranked.begin(), ranked.end(), stronger);
  // Sized exactly: these results are retained long-term by the QuerySession
  // cache, and its byte accounting charges capacity, not size.
  result.insights.reserve(ranked.size());
  for (const Ranked& r : ranked) {
    result.insights.push_back(BuildInsight(insight_class, candidates[r.index],
                                           resolved.metric, raw_values[r.index],
                                           resolved.mode));
  }
  return result;
}

void InsightEngine::RecordQueryMetrics(const InsightClass& insight_class,
                                       const InsightQueryResult& result) const {
  MetricsRegistry& registry = *metrics_;
  registry.counter("engine.queries_total").Increment();
  registry.counter("engine.candidates_evaluated_total")
      .Increment(result.candidates_evaluated);
  registry.counter("engine.undefined_excluded_total")
      .Increment(result.undefined_excluded);
  registry.counter("engine.evaluations." + insight_class.name())
      .Increment(result.candidates_evaluated);
  registry.histogram("engine.execute_ms").Record(result.elapsed_ms);
  AccumulateTrace(result.trace, registry);
}

void InsightEngine::RecordProfileMetrics() const {
  MetricsRegistry& registry = *metrics_;
  registry.histogram("engine.preprocess_ms")
      .Record(profile_->preprocess_seconds() * 1e3);
  registry.gauge("engine.profile_bytes")
      .Set(static_cast<double>(profile_->EstimateMemoryBytes()));
  const RandomPanelCache::Stats& panel = profile_->panel_stats();
  registry.counter("panel_cache.acquires_total").Increment(panel.acquires);
  registry.counter("panel_cache.hits_total").Increment(panel.hits);
  registry.counter("panel_cache.generations_total").Increment(panel.generations);
  registry.counter("panel_cache.regenerations_total")
      .Increment(panel.regenerations);
}

std::string InsightEngine::DumpMetrics(MetricsFormat format) const {
  if (metrics_ == nullptr) {
    return format == MetricsFormat::kJson ? "{}" : "";
  }
  return format == MetricsFormat::kJson ? metrics_->ToJson().Dump(2)
                                        : metrics_->ToPrometheusText();
}

StatusOr<InsightQueryResult> InsightEngine::Execute(
    const InsightQuery& query) const {
  FORESIGHT_ASSIGN_OR_RETURN(std::vector<InsightQueryResult> results,
                             RunQueries({&query, 1}));
  return std::move(results.front());
}

StatusOr<std::vector<InsightQueryResult>> InsightEngine::ExecuteBatch(
    std::span<const InsightQuery> queries) const {
  // determinism-ok: batch latency telemetry, gated on collect_metrics.
  WallTimer timer{kDeferredStart};
  if (metrics_ != nullptr) timer.Restart();
  FORESIGHT_ASSIGN_OR_RETURN(std::vector<InsightQueryResult> results,
                             RunQueries(queries));
  if (metrics_ != nullptr) {
    metrics_->counter("engine.batches_total").Increment();
    metrics_->histogram("engine.batch_ms").Record(timer.ElapsedMillis());
  }
  return results;
}

StatusOr<std::vector<InsightQueryResult>> InsightEngine::RunQueries(
    std::span<const InsightQuery> queries) const {
  // determinism-ok: per-query latency telemetry, gated on collect_metrics.
  WallTimer timer{kDeferredStart};
  const bool collect = metrics_ != nullptr;
  if (collect) timer.Restart();
  // Per-query traces. Shared group stages (enumerate, evaluate) are measured
  // once per group and copied to every member — each query's trace reports
  // the cost of the work that produced its result, not a 1/N attribution.
  std::vector<QueryTrace> traces(collect ? queries.size() : 0);
  auto trace_of = [&](size_t q) -> QueryTrace* {
    return collect ? &traces[q] : nullptr;
  };
  // Validate and resolve everything up front: the first invalid query (in
  // batch order) fails the batch before any evaluation work starts.
  std::vector<ResolvedQuery> resolved;
  resolved.reserve(queries.size());
  for (const InsightQuery& query : queries) {
    StageSpan span(trace_of(resolved.size()), QueryStage::kResolve);
    FORESIGHT_ASSIGN_OR_RETURN(ResolvedQuery r, ResolveQuery(query));
    resolved.push_back(std::move(r));
  }

  // Group queries that can share enumeration + evaluation: same class, same
  // resolved metric, same resolved mode. Groups keep first-appearance order.
  struct Member {
    size_t query;
    // The member's candidates as positions in the group's one enumerated
    // vector, in enumeration order: every position for an unfiltered member
    // (`all` below), else `owned` — its structural matches, and only the
    // planner's survivors once the member has been planned.
    std::span<const size_t> kept;
    std::vector<size_t> owned;
    PruneTelemetry prune;
  };
  std::vector<std::vector<Member>> groups;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto same = [&](const std::vector<Member>& group) {
      const ResolvedQuery& lead = resolved[group.front().query];
      return lead.insight_class == resolved[q].insight_class &&
             lead.metric == resolved[q].metric && lead.mode == resolved[q].mode;
    };
    auto it = std::find_if(groups.begin(), groups.end(), same);
    if (it == groups.end()) it = groups.emplace(groups.end());
    it->push_back(Member{q, {}, {}, {}});
  }

  std::vector<InsightQueryResult> results(queries.size());
  for (std::vector<Member>& group : groups) {
    const ResolvedQuery& lead = resolved[group.front().query];
    const InsightClass& insight_class = *lead.insight_class;
    // Shared stages are timed once into a group-local trace and copied to
    // every member below.
    QueryTrace group_trace;
    QueryTrace* group_tp = collect ? &group_trace : nullptr;
    std::vector<AttributeTuple> candidates;
    std::vector<size_t> all;
    {
      StageSpan span(group_tp, QueryStage::kEnumerate);
      candidates = insight_class.EnumerateCandidates(*table_);
      all.resize(candidates.size());
      std::iota(all.begin(), all.end(), size_t{0});
      for (Member& member : group) {
        const ResolvedQuery& r = resolved[member.query];
        const std::vector<std::string>& tags =
            queries[member.query].required_tags;
        member.kept = all;
        if (r.fixed_indices.empty() && tags.empty()) continue;
        for (size_t i : all) {
          if (TupleMatches(*table_, candidates[i], r.fixed_indices, tags)) {
            member.owned.push_back(i);
          }
        }
        member.kept = member.owned;
      }
    }
    // Plan every eligible member, then evaluate the union of the candidates
    // some member still needs once, in enumeration order on the pool.
    std::vector<double> raw_values;
    {
      StageSpan span(group_tp, QueryStage::kEvaluate);
      // determinism-ok: prune-stage latency telemetry, gated on collect_metrics
      WallTimer prune_timer{kDeferredStart};
      bool planned = false;
      for (Member& member : group) {
        const InsightQuery& query = queries[member.query];
        if (!PruneEligible(query, resolved[member.query], member.kept.size())) {
          continue;
        }
        if (collect) prune_timer.Restart();
        PrunePlan plan = PlanPairwisePrune(
            insight_class, *profile_, candidates, member.kept, lead.metric,
            query.top_k, query.min_score, /*fixed_threshold=*/std::nullopt);
        if (collect) {
          metrics_->histogram("engine.prune.estimate_ms")
              .Record(prune_timer.ElapsedMillis());
          RecordPruneMetrics(plan.telemetry);
        }
        member.prune = plan.telemetry;
        member.owned = std::move(plan.refine);
        member.kept = member.owned;
        planned = true;
      }
      // A lone member's positions already are the union.
      std::span<const size_t> evaluate = group.front().kept;
      std::vector<size_t> union_positions;
      if (group.size() > 1) {
        std::vector<char> needed(candidates.size(), 0);
        for (const Member& member : group) {
          for (size_t i : member.kept) needed[i] = 1;
        }
        for (size_t i = 0; i < needed.size(); ++i) {
          if (needed[i]) union_positions.push_back(i);
        }
        evaluate = union_positions;
      }
      if (planned && collect) prune_timer.Restart();
      FORESIGHT_RETURN_IF_ERROR(EvaluateCandidates(
          insight_class, lead.metric, lead.mode, evaluate, candidates.size(),
          [&](size_t i) -> const AttributeTuple& { return candidates[i]; },
          &raw_values));
      if (planned && collect) {
        metrics_->histogram("engine.prune.refine_ms")
            .Record(prune_timer.ElapsedMillis());
      }
    }
    // Per-query epilogue: score filters + top-k over that query's own
    // positions — exactly the candidates a lone query would evaluate.
    for (const Member& member : group) {
      const size_t q = member.query;
      {
        StageSpan span(trace_of(q), QueryStage::kAssemble);
        results[q] = AssembleResult(queries[q], resolved[q], candidates,
                                    member.kept, raw_values);
      }
      if (member.prune.used) {
        results[q].prune = member.prune;
        // Report the full considered-candidate count (see query.h): the
        // planner eliminated some pairs without exact evaluation, but the
        // query examined them all, and this keeps the field comparable with
        // exhaustive runs.
        results[q].candidates_evaluated = member.prune.pairs_total;
      }
      if (collect) {
        traces[q].stage_ms[static_cast<size_t>(QueryStage::kEnumerate)] +=
            group_trace.stage(QueryStage::kEnumerate);
        traces[q].stage_ms[static_cast<size_t>(QueryStage::kEvaluate)] +=
            group_trace.stage(QueryStage::kEvaluate);
        results[q].elapsed_ms = timer.ElapsedMillis();
        traces[q].total_ms = results[q].elapsed_ms;
        results[q].trace = traces[q];
        RecordQueryMetrics(insight_class, results[q]);
      }
    }
  }
  return results;
}

StatusOr<std::vector<Insight>> InsightEngine::TopInsights(
    const std::string& class_name, size_t k, ExecutionMode mode) const {
  InsightQuery query;
  query.class_name = class_name;
  query.top_k = k;
  query.mode = mode;
  FORESIGHT_ASSIGN_OR_RETURN(InsightQueryResult result, Execute(query));
  return std::move(result.insights);
}

StatusOr<Insight> InsightEngine::EvaluateTuple(const std::string& class_name,
                                               const AttributeTuple& tuple,
                                               const std::string& metric,
                                               ExecutionMode mode) const {
  const InsightClass* insight_class = registry_.Find(class_name);
  if (insight_class == nullptr) {
    return Status::NotFound("unknown insight class: " + class_name);
  }
  std::string resolved_metric =
      metric.empty() ? insight_class->metric_names().front() : metric;
  FORESIGHT_ASSIGN_OR_RETURN(ExecutionMode resolved_mode, ResolveMode(mode));
  FORESIGHT_ASSIGN_OR_RETURN(
      double raw, Evaluate(*insight_class, tuple, resolved_metric, resolved_mode));
  return BuildInsight(*insight_class, tuple, resolved_metric, raw,
                      resolved_mode);
}

StatusOr<CorrelationOverview> InsightEngine::ComputePairwiseOverview(
    const std::string& class_name,
    const PairwiseOverviewOptions& options) const {
  const InsightClass* insight_class = registry_.Find(class_name);
  if (insight_class == nullptr) {
    return Status::NotFound("unknown insight class: " + class_name);
  }
  if (insight_class->arity() != 2) {
    return Status::InvalidArgument(
        "pairwise overviews require an arity-2 insight class");
  }
  // A NaN threshold would silently disable pruning, and +inf would serve
  // every safe cell of an exact overview from its sketch estimate.
  if (!std::isfinite(options.refine_min_score) ||
      options.refine_min_score < 0.0) {
    return Status::InvalidArgument("refine_min_score must be finite and >= 0");
  }
  std::string resolved_metric = options.metric.empty()
                                    ? insight_class->metric_names().front()
                                    : options.metric;
  FORESIGHT_ASSIGN_OR_RETURN(ExecutionMode resolved_mode,
                             ResolveMode(options.mode));

  CorrelationOverview overview;
  overview.class_name = class_name;
  overview.metric_name = resolved_metric;
  overview.column_indices = table_->NumericColumnIndices();
  for (size_t index : overview.column_indices) {
    overview.attribute_names.push_back(table_->column_name(index));
  }
  size_t d = overview.column_indices.size();
  overview.matrix.assign(d * d, 0.0);
  overview.provenance = resolved_mode == ExecutionMode::kSketch
                            ? Provenance::kSketch
                            : Provenance::kExact;

  // Symmetric metric: evaluate only the diagonal + upper triangle —
  // d*(d+1)/2 cells instead of d*d — in row-scan order (so error reporting
  // matches a serial scan), then mirror. The diagonal is the metric of an
  // attribute with itself (1 for correlation and NMI-style metrics).
  std::vector<std::pair<size_t, size_t>> cells;
  cells.reserve(d * (d + 1) / 2);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i; j < d; ++j) cells.emplace_back(i, j);
  }
  auto cell_tuple = [&](size_t c) {
    return AttributeTuple{{overview.column_indices[cells[c].first],
                           overview.column_indices[cells[c].second]}};
  };
  // Cells to evaluate with the metric (all of them when not pruning).
  std::vector<size_t> work(cells.size());
  std::iota(work.begin(), work.end(), size_t{0});

  // Sketch-first pruning (exact mode only): cells whose score upper bound is
  // provably below refine_min_score keep their sketch estimate; every cell
  // that could reach the threshold is refined exactly. Diagonal and
  // null/constant-touched cells are unsafe by contract and always refine.
  const bool prune = options.refine_min_score > 0.0 &&
                     profile_.has_value() &&
                     resolved_mode == ExecutionMode::kExact &&
                     insight_class->SupportsSketchPruning(*profile_,
                                                          resolved_metric);
  // determinism-ok: prune-stage latency telemetry, gated on collect_metrics
  WallTimer timer{kDeferredStart};
  const bool time_prune = prune && metrics_ != nullptr;
  PrunePlan plan;
  if (prune) {
    if (time_prune) timer.Restart();
    std::vector<AttributeTuple> cell_tuples;
    cell_tuples.reserve(cells.size());
    for (size_t c = 0; c < cells.size(); ++c) {
      cell_tuples.push_back(cell_tuple(c));
    }
    plan = PlanPairwisePrune(*insight_class, *profile_, cell_tuples, work,
                             resolved_metric, /*top_k=*/0,
                             /*min_score=*/std::nullopt,
                             options.refine_min_score);
    if (time_prune) {
      metrics_->histogram("engine.prune.estimate_ms")
          .Record(timer.ElapsedMillis());
      RecordPruneMetrics(plan.telemetry);
      timer.Restart();
    }
    work = std::move(plan.refine);
    overview.prune = plan.telemetry;
    overview.cell_provenance.assign(d * d, Provenance::kExact);
  }
  // Each cell's tuple is built where it is evaluated, on the worker.
  std::vector<double> values;
  FORESIGHT_RETURN_IF_ERROR(EvaluateCandidates(*insight_class, resolved_metric,
                                               resolved_mode, work,
                                               cells.size(), cell_tuple,
                                               &values));
  if (time_prune) {
    metrics_->histogram("engine.prune.refine_ms").Record(timer.ElapsedMillis());
  }
  for (size_t c = 0; c < cells.size(); ++c) {
    const auto [i, j] = cells[c];
    const bool estimated = prune && plan.pruned[c];
    const double value = estimated ? plan.bounds[c].estimate : values[c];
    overview.matrix[i * d + j] = value;
    overview.matrix[j * d + i] = value;
    if (estimated) {
      overview.cell_provenance[i * d + j] = Provenance::kSketch;
      overview.cell_provenance[j * d + i] = Provenance::kSketch;
    }
  }
  return overview;
}

}  // namespace foresight
