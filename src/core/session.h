#ifndef FORESIGHT_CORE_SESSION_H_
#define FORESIGHT_CORE_SESSION_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/query_cache.h"

namespace foresight {

/// The serving layer in front of InsightEngine (the paper frames insight
/// queries as an interactive, high-traffic workload: the demo repeatedly
/// issues top-k queries over the same profiled table). A QuerySession
/// answers repeated queries from a sharded LRU result cache and overlapping
/// query batches from shared candidate work, instead of re-enumerating and
/// re-evaluating every candidate on every call — the same query-reuse idea
/// as SeeDB's shared scans and Zenvisage's reuse layer.
///
/// Thread safety: Execute/ExecuteBatch are const and safe to call
/// concurrently (the cache is internally mutex-striped); the HTTP server's
/// workers and every exploration session sharing one QuerySession serve
/// through it at once. Staleness safety: every cache entry is keyed to the
/// engine's serving epoch, which engine/table mutations bump, so a stale
/// result can never be served. `engine` must outlive the session.
class QuerySession {
 public:
  /// When the engine collects metrics, the session registers callback metrics
  /// on the engine's registry (query_cache.* counters and occupancy gauges)
  /// that pull from this session's cache at export time; they are
  /// deregistered in the destructor. The session is therefore pinned in
  /// memory (no copy/move). `cache` sizes the result cache.
  explicit QuerySession(const InsightEngine& engine,
                        QueryCacheOptions cache = {});
  ~QuerySession();

  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  const InsightEngine& engine() const { return *engine_; }

  /// Executes `query`: a batch of one (see ExecuteBatch). A query identical
  /// after canonicalization (attribute/tag order, default metric, kAuto mode
  /// all normalize away) and answered under the current engine epoch is
  /// served from the cache. The returned result reports `cache_hit`, its
  /// `cache_shard`, and the end-to-end latency of THIS call (on a hit:
  /// resolve + lookup + copy).
  StatusOr<InsightQueryResult> Execute(const InsightQuery& query) const;

  /// Batched execution: answers what it can from the cache, forwards the
  /// misses to InsightEngine::ExecuteBatch (one enumeration + one evaluation
  /// sweep per overlapping group), and caches every computed result.
  /// Bit-identical to calling Execute() per query, in order.
  StatusOr<std::vector<InsightQueryResult>> ExecuteBatch(
      std::span<const InsightQuery> queries) const;

  QueryCacheStats cache_stats() const { return cache_.stats(); }
  void ClearCache() { cache_.Clear(); }

 private:
  /// The one serving path: resolve + cache lookup per query, misses to the
  /// engine's ExecuteBatch (`batch`) or Execute (a lone Execute() miss).
  StatusOr<std::vector<InsightQueryResult>> Serve(
      std::span<const InsightQuery> queries, bool batch) const;

  const InsightEngine* engine_;
  /// Logically the session is a read-through view of the engine; the cache
  /// mutates under the hood (it is internally synchronized).
  mutable QueryCache cache_;
  /// Shares ownership of the engine's registry so the destructor can always
  /// deregister the callbacks below, even if the engine died first.
  std::shared_ptr<MetricsRegistry> metrics_;
  std::vector<std::pair<std::string, uint64_t>> callback_tokens_;
};

}  // namespace foresight

#endif  // FORESIGHT_CORE_SESSION_H_
