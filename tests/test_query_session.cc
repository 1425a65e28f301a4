#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explorer.h"
#include "data/generators.h"

namespace foresight {

/// Options-form builder for the single ComputePairwiseOverview entry point
/// (the metric/mode convenience overloads were removed in PR 7).
PairwiseOverviewOptions OverviewOptions(ExecutionMode mode,
                                        std::string metric = "") {
  PairwiseOverviewOptions options;
  options.metric = std::move(metric);
  options.mode = mode;
  return options;
}
namespace {

/// Field-by-field equality of two results' payloads (everything except the
/// cache/latency telemetry, which legitimately differs between serving paths).
/// Prune telemetry is a pure function of query and profile, so it must match
/// too: a batch member prunes exactly as the lone query does.
void ExpectSamePayload(const InsightQueryResult& a, const InsightQueryResult& b,
                       const std::string& label) {
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated) << label;
  EXPECT_EQ(a.mode_used, b.mode_used) << label;
  EXPECT_EQ(a.prune.used, b.prune.used) << label;
  EXPECT_EQ(a.prune.pairs_total, b.prune.pairs_total) << label;
  EXPECT_EQ(a.prune.pairs_pruned, b.prune.pairs_pruned) << label;
  EXPECT_EQ(a.prune.pairs_refined, b.prune.pairs_refined) << label;
  EXPECT_EQ(a.prune.pairs_unsafe, b.prune.pairs_unsafe) << label;
  ASSERT_EQ(a.insights.size(), b.insights.size()) << label;
  for (size_t i = 0; i < a.insights.size(); ++i) {
    const Insight& x = a.insights[i];
    const Insight& y = b.insights[i];
    EXPECT_EQ(x.class_name, y.class_name) << label << " #" << i;
    EXPECT_EQ(x.metric_name, y.metric_name) << label << " #" << i;
    EXPECT_EQ(x.attributes.indices, y.attributes.indices) << label << " #" << i;
    // Bit-identity, not approximate agreement.
    EXPECT_EQ(x.raw_value, y.raw_value) << label << " #" << i;
    EXPECT_EQ(x.score, y.score) << label << " #" << i;
    EXPECT_EQ(x.provenance, y.provenance) << label << " #" << i;
    EXPECT_EQ(x.description, y.description) << label << " #" << i;
  }
}

class QuerySessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = MakeOecdLike(800, 11);
    EngineOptions options;
    options.preprocess.sketch.hyperplane_bits = 256;
    auto engine = InsightEngine::Create(table_, std::move(options));
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_.emplace(std::move(*engine));
  }

  InsightQuery LinearQuery(size_t top_k = 5) const {
    InsightQuery query;
    query.class_name = "linear_relationship";
    query.top_k = top_k;
    query.mode = ExecutionMode::kExact;
    return query;
  }

  DataTable table_;
  std::optional<InsightEngine> engine_;
};

TEST_F(QuerySessionTest, HitAndMissAccounting) {
  QuerySession session(*engine_);
  InsightQuery query = LinearQuery();

  auto cold = session.Execute(query);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->cache_hit);

  auto warm = session.Execute(query);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->cache_shard, cold->cache_shard);
  ExpectSamePayload(*cold, *warm, "cold vs warm");

  QueryCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);

  // The engine's own result matches what the session served.
  auto direct = engine_->Execute(query);
  ASSERT_TRUE(direct.ok());
  ExpectSamePayload(*direct, *warm, "direct vs warm");
}

TEST_F(QuerySessionTest, CacheHitLatencyAndModeAreReal) {
  QuerySession session(*engine_);
  InsightQuery query = LinearQuery();
  query.mode = ExecutionMode::kAuto;  // Resolves to sketch (profile built).

  ASSERT_TRUE(session.Execute(query).ok());
  auto hit = session.Execute(query);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  // The §2-satellite bugfix: elapsed reflects this call's end-to-end time
  // (never 0), and mode_used is the resolved mode, not the query's kAuto.
  EXPECT_GT(hit->elapsed_ms, 0.0);
  EXPECT_EQ(hit->mode_used, ExecutionMode::kSketch);
}

TEST_F(QuerySessionTest, CacheKeyCanonicalization) {
  InsightQuery a;
  a.class_name = "linear_relationship";
  a.metric = "pearson";
  a.mode = ExecutionMode::kExact;
  a.fixed_attributes = {"WorkingLongHours", "TimeDevotedToLeisure"};
  a.required_tags = {"alpha", "beta"};
  a.min_score = 0.25;

  InsightQuery b = a;
  std::reverse(b.fixed_attributes.begin(), b.fixed_attributes.end());
  std::reverse(b.required_tags.begin(), b.required_tags.end());
  b.metric = "";  // Default metric of linear_relationship is pearson.
  b.mode = ExecutionMode::kAuto;

  // a spells everything explicitly; b relies on defaults + different member
  // order. Canonicalization maps both to one key.
  EXPECT_EQ(a.CacheKey("pearson", ExecutionMode::kExact),
            b.CacheKey("pearson", ExecutionMode::kExact));

  // Distinct queries stay distinct.
  InsightQuery c = a;
  c.top_k = a.top_k + 1;
  EXPECT_NE(a.CacheKey("pearson", ExecutionMode::kExact),
            c.CacheKey("pearson", ExecutionMode::kExact));
  EXPECT_NE(a.CacheKey("pearson", ExecutionMode::kExact),
            a.CacheKey("pearson", ExecutionMode::kSketch));
  EXPECT_NE(a.CacheKey("pearson", ExecutionMode::kExact),
            a.CacheKey("pearson_projection", ExecutionMode::kExact));
}

TEST_F(QuerySessionTest, OrderInsensitiveQueryIsAHit) {
  ASSERT_TRUE(table_.TagColumn("WorkingLongHours", "scenario").ok());
  ASSERT_TRUE(table_.TagColumn("TimeDevotedToLeisure", "scenario").ok());
  ASSERT_TRUE(table_.TagColumn("WorkingLongHours", "numeric_kpi").ok());
  ASSERT_TRUE(table_.TagColumn("TimeDevotedToLeisure", "numeric_kpi").ok());
  QuerySession session(*engine_);

  InsightQuery first = LinearQuery(8);
  first.required_tags = {"scenario", "numeric_kpi"};
  first.metric = "pearson";
  ASSERT_TRUE(session.Execute(first).ok());

  InsightQuery shuffled = first;
  std::reverse(shuffled.required_tags.begin(), shuffled.required_tags.end());
  shuffled.metric = "";  // Class default == "pearson".
  auto result = session.Execute(shuffled);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->cache_hit);
}

TEST_F(QuerySessionTest, EvictionAccountingUnderTinyBudget) {
  QueryCacheOptions options;
  options.num_shards = 1;   // Deterministic: every key shares a shard.
  // Large enough for any single result (oversized entries are skipped, not
  // stored), small enough that 40 of them cannot all stay resident.
  options.max_bytes = 32768;
  QuerySession session(*engine_, options);

  size_t distinct = 0;
  for (size_t k = 1; k <= 40; ++k) {
    auto result = session.Execute(LinearQuery(k));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->cache_shard, 0u);
    ++distinct;
  }
  QueryCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.misses, distinct);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, options.max_bytes);
  EXPECT_LT(stats.entries, distinct);
  // LRU: the most recent query must still be resident.
  auto recent = session.Execute(LinearQuery(40));
  ASSERT_TRUE(recent.ok());
  EXPECT_TRUE(recent->cache_hit);
}

TEST_F(QuerySessionTest, TagChangeInvalidates) {
  QuerySession session(*engine_);
  InsightQuery query = LinearQuery();
  ASSERT_TRUE(session.Execute(query).ok());

  // Tagging mutates the schema (version bump) -> epoch change. A re-tag of
  // an existing tag is a no-op and must NOT invalidate.
  ASSERT_TRUE(table_.TagColumn("AirPollution", "environment").ok());
  auto after_tag = session.Execute(query);
  ASSERT_TRUE(after_tag.ok());
  EXPECT_FALSE(after_tag->cache_hit);

  ASSERT_TRUE(table_.TagColumn("AirPollution", "environment").ok());
  auto after_noop = session.Execute(query);
  ASSERT_TRUE(after_noop.ok());
  EXPECT_TRUE(after_noop->cache_hit);
}

TEST_F(QuerySessionTest, ValidateMatchesExecuteErrors) {
  std::vector<InsightQuery> bad(5);
  bad[0].class_name = "";  // Empty class name.
  bad[1].class_name = "no_such_class";
  bad[2].class_name = "skew";
  bad[2].metric = "pearson";  // Not a skew metric.
  bad[3].class_name = "skew";
  bad[3].min_score = 0.9;
  bad[3].max_score = 0.1;
  bad[4].class_name = "linear_relationship";
  bad[4].fixed_attributes = {"NoSuchColumn"};

  QuerySession session(*engine_);
  for (size_t i = 0; i < bad.size(); ++i) {
    Status validate = bad[i].Validate(engine_->registry(), engine_->table());
    EXPECT_FALSE(validate.ok()) << i;
    // One validator, identical errors on every serving path.
    Status direct = engine_->Execute(bad[i]).status();
    Status served = session.Execute(bad[i]).status();
    Status batched = engine_->ExecuteBatch({&bad[i], 1}).status();
    EXPECT_EQ(validate, direct) << i;
    EXPECT_EQ(validate, served) << i;
    EXPECT_EQ(validate, batched) << i;
  }
  EXPECT_EQ(bad[0].Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad[1].Validate(engine_->registry(), engine_->table()).code(),
            StatusCode::kNotFound);
}

/// The 16-query overlapping workload the acceptance bench uses, downsized.
std::vector<InsightQuery> OverlappingWorkload() {
  std::vector<InsightQuery> queries;
  for (size_t i = 0; i < 8; ++i) {
    InsightQuery query;
    query.class_name = "linear_relationship";
    query.mode = ExecutionMode::kExact;
    query.top_k = 3 + i;
    if (i % 2 == 1) query.fixed_attributes = {"WorkingLongHours"};
    if (i % 4 >= 2) {
      query.min_score = 0.05 * static_cast<double>(i);
      query.max_score = 0.95;
    }
    queries.push_back(std::move(query));
  }
  for (size_t i = 0; i < 4; ++i) {
    InsightQuery query;
    query.class_name = i % 2 == 0 ? "dispersion" : "skew";
    query.mode = ExecutionMode::kExact;
    query.top_k = 4 + i;
    queries.push_back(std::move(query));
  }
  InsightQuery sketch_query;
  sketch_query.class_name = "linear_relationship";
  sketch_query.mode = ExecutionMode::kSketch;
  sketch_query.top_k = 6;
  queries.push_back(std::move(sketch_query));
  InsightQuery monotonic;
  monotonic.class_name = "monotonic_relationship";
  monotonic.metric = "kendall";
  monotonic.mode = ExecutionMode::kExact;
  monotonic.top_k = 5;
  queries.push_back(std::move(monotonic));
  return queries;
}

TEST_F(QuerySessionTest, ExecuteBatchBitIdenticalToSequential) {
  for (size_t workers : {size_t{1}, size_t{8}}) {
    EngineOptions options;
    options.preprocess.sketch.hyperplane_bits = 256;
    options.num_workers = workers;
    auto engine = InsightEngine::Create(table_, std::move(options));
    ASSERT_TRUE(engine.ok()) << engine.status();
    std::vector<InsightQuery> queries = OverlappingWorkload();
    auto batch = engine->ExecuteBatch(queries);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(batch->size(), queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      auto single = engine->Execute(queries[q]);
      ASSERT_TRUE(single.ok()) << single.status();
      ExpectSamePayload(*single, (*batch)[q],
                        "workers=" + std::to_string(workers) + " query #" +
                            std::to_string(q));
    }
  }
}

TEST_F(QuerySessionTest, SessionBatchCachesAndServesHits) {
  QuerySession session(*engine_);
  std::vector<InsightQuery> queries = OverlappingWorkload();

  auto cold = session.ExecuteBatch(queries);
  ASSERT_TRUE(cold.ok()) << cold.status();
  for (const InsightQueryResult& result : *cold) {
    EXPECT_FALSE(result.cache_hit);
  }

  // Every batch result is individually addressable afterwards...
  auto single = session.Execute(queries[0]);
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE(single->cache_hit);
  ExpectSamePayload((*cold)[0], *single, "batch vs single");

  // ...and a repeated batch is served entirely from cache, bit-identically.
  auto warm = session.ExecuteBatch(queries);
  ASSERT_TRUE(warm.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_TRUE((*warm)[q].cache_hit) << q;
    ExpectSamePayload((*cold)[q], (*warm)[q], "warm batch #" + std::to_string(q));
  }
}

// The former ComputeCorrelationOverview alias is gone (DESIGN.md "API
// deprecations"): default-constructed options must select the class default
// metric, so the one remaining entry point still serves Figure 2 verbatim.
TEST_F(QuerySessionTest, DefaultOverviewOptionsSelectClassDefaultMetric) {
  auto defaulted = engine_->ComputePairwiseOverview("linear_relationship");
  auto explicit_metric = engine_->ComputePairwiseOverview(
      "linear_relationship", OverviewOptions(ExecutionMode::kAuto, "pearson"));
  ASSERT_TRUE(defaulted.ok());
  ASSERT_TRUE(explicit_metric.ok());
  EXPECT_EQ(defaulted->class_name, explicit_metric->class_name);
  EXPECT_EQ(defaulted->metric_name, "pearson");
  EXPECT_EQ(defaulted->attribute_names, explicit_metric->attribute_names);
  EXPECT_EQ(defaulted->matrix, explicit_metric->matrix);
}

TEST_F(QuerySessionTest, ExplorerSharesTheSessionCache) {
  QuerySession session(*engine_);
  ExplorationSession explorer(session);
  auto first = explorer.InitialCarousels();
  ASSERT_TRUE(first.ok()) << first.status();
  QueryCacheStats after_first = session.cache_stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_GT(after_first.misses, 0u);

  auto second = explorer.InitialCarousels();
  ASSERT_TRUE(second.ok());
  QueryCacheStats after_second = session.cache_stats();
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GE(after_second.hits, after_first.misses);
  ASSERT_EQ(first->size(), second->size());
  for (size_t c = 0; c < first->size(); ++c) {
    ASSERT_EQ((*first)[c].insights.size(), (*second)[c].insights.size());
    for (size_t i = 0; i < (*first)[c].insights.size(); ++i) {
      EXPECT_EQ((*first)[c].insights[i].score, (*second)[c].insights[i].score);
    }
  }
}

}  // namespace
}  // namespace foresight
