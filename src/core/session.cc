#include "core/session.h"

#include <string>
#include <utility>

#include "util/timer.h"
#include "util/trace.h"

namespace foresight {

namespace {

constexpr size_t kCacheLookupIdx =
    static_cast<size_t>(QueryStage::kCacheLookup);

}  // namespace

QuerySession::QuerySession(const InsightEngine& engine,
                           QueryCacheOptions cache)
    : engine_(&engine), cache_(cache) {
  metrics_ = engine.metrics();
  if (metrics_ == nullptr) return;
  // The cache already maintains exact per-shard counters under its shard
  // mutexes; callback metrics surface them at export time instead of double
  // bookkeeping on the lookup hot path.
  auto add = [&](const char* name, CallbackKind kind,
                 std::function<double()> fn) {
    callback_tokens_.emplace_back(
        name, metrics_->RegisterCallback(name, kind, std::move(fn)));
  };
  add("query_cache.hits_total", CallbackKind::kCounter,
      [this] { return static_cast<double>(cache_.stats().hits); });
  add("query_cache.misses_total", CallbackKind::kCounter,
      [this] { return static_cast<double>(cache_.stats().misses); });
  add("query_cache.evictions_total", CallbackKind::kCounter,
      [this] { return static_cast<double>(cache_.stats().evictions); });
  add("query_cache.invalidations_total", CallbackKind::kCounter,
      [this] { return static_cast<double>(cache_.stats().invalidations); });
  add("query_cache.entries", CallbackKind::kGauge,
      [this] { return static_cast<double>(cache_.stats().entries); });
  add("query_cache.bytes", CallbackKind::kGauge,
      [this] { return static_cast<double>(cache_.stats().bytes); });
}

QuerySession::~QuerySession() {
  if (metrics_ == nullptr) return;
  for (const auto& [name, token] : callback_tokens_) {
    metrics_->RemoveCallback(name, token);
  }
}

StatusOr<InsightQueryResult> QuerySession::Execute(
    const InsightQuery& query) const {
  FORESIGHT_ASSIGN_OR_RETURN(std::vector<InsightQueryResult> results,
                             Serve({&query, 1}, /*batch=*/false));
  return std::move(results.front());
}

StatusOr<std::vector<InsightQueryResult>> QuerySession::ExecuteBatch(
    std::span<const InsightQuery> queries) const {
  return Serve(queries, /*batch=*/true);
}

StatusOr<std::vector<InsightQueryResult>> QuerySession::Serve(
    std::span<const InsightQuery> queries, bool batch) const {
  const bool collect = engine_->collect_metrics();
  // determinism-ok: serving latency telemetry, gated on collect_metrics.
  WallTimer timer{kDeferredStart};
  if (collect) timer.Restart();
  const uint64_t epoch = engine_->serving_epoch();
  std::vector<InsightQueryResult> results(queries.size());
  struct Miss {
    size_t query;
    std::string key;
    double lookup_ms;
  };
  std::vector<Miss> misses;
  for (size_t q = 0; q < queries.size(); ++q) {
    FORESIGHT_ASSIGN_OR_RETURN(ResolvedQuery resolved,
                               engine_->ResolveQuery(queries[q]));
    std::string key = queries[q].CacheKey(resolved.metric, resolved.mode);
    QueryTrace lookup_trace;
    std::optional<InsightQueryResult> cached;
    {
      StageSpan span(collect ? &lookup_trace : nullptr,
                     QueryStage::kCacheLookup);
      cached = cache_.Lookup(key, epoch);
    }
    const double lookup_ms = lookup_trace.stage_ms[kCacheLookupIdx];
    if (collect) {
      metrics_->histogram("engine.stage.cache_lookup_ms").Record(lookup_ms);
    }
    if (!cached.has_value()) {
      misses.push_back({q, std::move(key), lookup_ms});
      continue;
    }
    cached->cache_hit = true;
    cached->cache_shard = cache_.ShardOf(key);
    if (collect) {
      // End-to-end hit latency (resolve + lookup + copy), not the stale
      // compute time — and mode_used stays the resolved mode it was stored
      // with, so cached and computed results are indistinguishable modulo
      // the cache telemetry. The engine-side stage timings keep describing
      // the call that computed the payload; only the lookup stage and the
      // totals describe this serving call.
      cached->trace.stage_ms[kCacheLookupIdx] = lookup_ms;
      cached->elapsed_ms = timer.ElapsedMillis();
      cached->trace.total_ms = cached->elapsed_ms;
      metrics_->histogram("session.hit_ms").Record(cached->elapsed_ms);
    }
    results[q] = std::move(*cached);
  }
  if (misses.empty()) return results;
  // A lone Execute() miss goes to InsightEngine::Execute, so
  // engine.batches_total keeps counting only ExecuteBatch calls.
  std::vector<InsightQueryResult> computed;
  if (batch) {
    std::vector<InsightQuery> miss_queries;
    miss_queries.reserve(misses.size());
    for (const Miss& miss : misses) miss_queries.push_back(queries[miss.query]);
    FORESIGHT_ASSIGN_OR_RETURN(computed, engine_->ExecuteBatch(miss_queries));
  } else {
    FORESIGHT_ASSIGN_OR_RETURN(InsightQueryResult result,
                               engine_->Execute(queries[misses.front().query]));
    computed.push_back(std::move(result));
  }
  for (size_t m = 0; m < misses.size(); ++m) {
    const Miss& miss = misses[m];
    computed[m].cache_hit = false;
    computed[m].cache_shard = cache_.ShardOf(miss.key);
    // Inserted before the lookup stage is folded in, so the cached entry
    // keeps the pure compute-path trace.
    cache_.Insert(miss.key, epoch, computed[m]);
    if (collect) {
      computed[m].trace.stage_ms[kCacheLookupIdx] += miss.lookup_ms;
      computed[m].elapsed_ms = timer.ElapsedMillis();
      computed[m].trace.total_ms = computed[m].elapsed_ms;
    }
    results[miss.query] = std::move(computed[m]);
  }
  return results;
}

}  // namespace foresight
