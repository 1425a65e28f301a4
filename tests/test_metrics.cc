// Tests for the observability layer: MetricsRegistry primitives, per-query
// stage tracing, engine-wide DumpMetrics coverage, and — most importantly —
// the guarantee that enabling metrics never changes ranked output.

#include "util/metrics.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/session.h"
#include "data/generators.h"
#include "util/trace.h"

namespace foresight {
namespace {

// ---------------------------------------------------------------------------
// Primitives.

TEST(CounterTest, IncrementsAccumulate) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10.0);
  g.Add(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
}

TEST(LatencyHistogramTest, RecordsIntoCorrectBuckets) {
  // Bounds are sorted and deduplicated at construction.
  LatencyHistogram h({10.0, 1.0, 10.0, 100.0});
  ASSERT_EQ(h.bucket_bounds(), (std::vector<double>{1.0, 10.0, 100.0}));
  h.Record(0.5);    // <= 1
  h.Record(1.0);    // <= 1 (bounds are inclusive upper edges)
  h.Record(7.0);    // <= 10
  h.Record(99.0);   // <= 100
  h.Record(5000.0); // overflow
  std::vector<uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow.
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 7.0 + 99.0 + 5000.0);
}

TEST(LatencyHistogramTest, DefaultBucketsArePowersOfFour) {
  std::vector<double> bounds = DefaultLatencyBucketsMs();
  ASSERT_FALSE(bounds.empty());
  EXPECT_DOUBLE_EQ(bounds.front(), 0.001);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 4.0);
  }
}

// ---------------------------------------------------------------------------
// Registry.

TEST(MetricsRegistryTest, GetOrCreateReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(&registry.gauge("g"), &registry.gauge("g"));
  EXPECT_EQ(&registry.histogram("h"), &registry.histogram("h"));
}

TEST(MetricsRegistryTest, CallbackTokenPreventsStaleRemoval) {
  MetricsRegistry registry;
  uint64_t first = registry.RegisterCallback("cache.entries",
                                             CallbackKind::kGauge,
                                             [] { return 1.0; });
  // A successor replaces the metric; the old owner's token goes stale.
  uint64_t second = registry.RegisterCallback("cache.entries",
                                              CallbackKind::kGauge,
                                              [] { return 2.0; });
  EXPECT_NE(first, second);
  registry.RemoveCallback("cache.entries", first);  // Stale: must be a no-op.
  JsonValue after_stale = registry.ToJson();
  const JsonValue* value = after_stale.Get("gauges")->Get("cache.entries");
  ASSERT_NE(value, nullptr);
  EXPECT_DOUBLE_EQ(value->as_number(), 2.0);
  registry.RemoveCallback("cache.entries", second);  // Current: removes.
  JsonValue after_current = registry.ToJson();
  EXPECT_EQ(after_current.Get("gauges")->Get("cache.entries"), nullptr);
}

TEST(MetricsRegistryTest, JsonExportShape) {
  MetricsRegistry registry;
  registry.counter("events_total").Increment(3);
  registry.gauge("depth").Set(1.5);
  registry.histogram("lat_ms", {1.0, 10.0}).Record(4.0);
  registry.RegisterCallback("cb_total", CallbackKind::kCounter,
                            [] { return 9.0; });
  JsonValue json = registry.ToJson();
  ASSERT_TRUE(json.is_object());
  EXPECT_DOUBLE_EQ(json.Get("counters")->Get("events_total")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(json.Get("counters")->Get("cb_total")->as_number(), 9.0);
  EXPECT_DOUBLE_EQ(json.Get("gauges")->Get("depth")->as_number(), 1.5);
  const JsonValue* hist = json.Get("histograms")->Get("lat_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Get("count")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(hist->Get("sum")->as_number(), 4.0);
  const JsonValue* buckets = hist->Get("buckets");
  ASSERT_TRUE(buckets->is_array());
  ASSERT_EQ(buckets->size(), 3u);  // Two bounds + inf.
  EXPECT_EQ(buckets->at(2).Get("le")->as_string(), "inf");
}

TEST(MetricsRegistryTest, PrometheusExportSanitizesAndCumulates) {
  MetricsRegistry registry;
  registry.counter("query_cache.hits_total").Increment(2);
  LatencyHistogram& h = registry.histogram("lat_ms", {1.0, 10.0});
  h.Record(0.5);
  h.Record(5.0);
  std::string text = registry.ToPrometheusText();
  // '.' becomes '_' and the configured prefix is applied.
  EXPECT_NE(text.find("foresight_query_cache_hits_total 2"), std::string::npos);
  // Cumulative buckets: le="10" includes the le="1" observation.
  EXPECT_NE(text.find("foresight_lat_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("foresight_lat_ms_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("foresight_lat_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("foresight_lat_ms_count 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracing.

TEST(QueryTraceTest, StageSpanAccumulatesAndNullTraceIsInert) {
  QueryTrace trace;
  {
    StageSpan span(&trace, QueryStage::kEvaluate);
    // Do a trivial amount of work; elapsed time is >= 0 regardless.
  }
  {
    StageSpan span(&trace, QueryStage::kEvaluate);
  }
  EXPECT_GE(trace.stage(QueryStage::kEvaluate), 0.0);
  EXPECT_DOUBLE_EQ(trace.stage(QueryStage::kResolve), 0.0);
  // Null trace: constructible and destructible without touching anything.
  { StageSpan inert(nullptr, QueryStage::kResolve); }
}

TEST(QueryTraceTest, JsonHasAllFiveStages) {
  QueryTrace trace;
  trace.stage_ms[static_cast<size_t>(QueryStage::kEnumerate)] = 1.25;
  trace.total_ms = 2.0;
  JsonValue json = trace.ToJson();
  EXPECT_DOUBLE_EQ(json.Get("total_ms")->as_number(), 2.0);
  const JsonValue* stages = json.Get("stages");
  ASSERT_NE(stages, nullptr);
  for (const char* name :
       {"resolve", "cache_lookup", "enumerate", "evaluate", "assemble"}) {
    ASSERT_NE(stages->Get(name), nullptr) << name;
  }
  EXPECT_DOUBLE_EQ(stages->Get("enumerate")->as_number(), 1.25);
}

TEST(QueryTraceTest, AccumulateSkipsZeroStages) {
  MetricsRegistry registry;
  QueryTrace trace;
  trace.stage_ms[static_cast<size_t>(QueryStage::kEvaluate)] = 3.0;
  AccumulateTrace(trace, registry);
  EXPECT_EQ(registry.histogram("engine.stage.evaluate_ms").count(), 1u);
  EXPECT_EQ(registry.histogram("engine.stage.resolve_ms").count(), 0u);
}

// ---------------------------------------------------------------------------
// Engine integration.

class MetricsEngineTest : public ::testing::Test {
 protected:
  // The engine keeps a reference to the table, so the fixture owns it.
  MetricsEngineTest() : table_(MakeOecdLike(800, 5)) {}

  InsightEngine MakeEngine(bool collect_metrics) {
    EngineOptions options;
    options.collect_metrics = collect_metrics;
    options.num_workers = 2;
    auto engine = InsightEngine::Create(table_, std::move(options));
    EXPECT_TRUE(engine.ok()) << engine.status();
    return std::move(*engine);
  }

  DataTable table_;
};

TEST_F(MetricsEngineTest, DumpCoversEveryInstrumentedComponent) {
  InsightEngine engine = MakeEngine(true);
  QuerySession session(engine);

  InsightQuery query;
  query.class_name = "linear_relationship";
  query.top_k = 5;
  ASSERT_TRUE(session.Execute(query).ok());
  ASSERT_TRUE(session.Execute(query).ok());  // Cache hit.

  auto json = JsonValue::Parse(engine.DumpMetrics(MetricsFormat::kJson));
  ASSERT_TRUE(json.ok()) << json.status();
  const JsonValue* counters = json->Get("counters");
  const JsonValue* gauges = json->Get("gauges");
  const JsonValue* histograms = json->Get("histograms");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(histograms, nullptr);

  // Engine.
  EXPECT_DOUBLE_EQ(counters->Get("engine.queries_total")->as_number(), 1.0);
  ASSERT_NE(counters->Get("engine.candidates_evaluated_total"), nullptr);
  ASSERT_NE(gauges->Get("engine.profile_bytes"), nullptr);
  ASSERT_NE(histograms->Get("engine.execute_ms"), nullptr);
  ASSERT_NE(histograms->Get("engine.preprocess_ms"), nullptr);
  ASSERT_NE(histograms->Get("engine.stage.evaluate_ms"), nullptr);
  ASSERT_NE(histograms->Get("engine.stage.cache_lookup_ms"), nullptr);
  // Query cache (callback metrics via the session).
  EXPECT_DOUBLE_EQ(counters->Get("query_cache.hits_total")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(counters->Get("query_cache.misses_total")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(gauges->Get("query_cache.entries")->as_number(), 1.0);
  EXPECT_GT(gauges->Get("query_cache.bytes")->as_number(), 0.0);
  // Thread pool.
  EXPECT_DOUBLE_EQ(gauges->Get("thread_pool.threads")->as_number(), 2.0);
  ASSERT_NE(counters->Get("thread_pool.parallel_fors_total"), nullptr);
  // Panel cache (preprocessing uses the blocked panel kernels by default).
  ASSERT_NE(counters->Get("panel_cache.acquires_total"), nullptr);
  ASSERT_NE(counters->Get("panel_cache.hits_total"), nullptr);

  // The same names appear in the Prometheus exposition.
  std::string prom = engine.DumpMetrics(MetricsFormat::kPrometheus);
  for (const char* needle :
       {"foresight_engine_queries_total", "foresight_query_cache_hits_total",
        "foresight_thread_pool_threads", "foresight_panel_cache_acquires_total",
        "foresight_engine_stage_evaluate_ms_bucket"}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << needle;
  }
}

TEST_F(MetricsEngineTest, SessionDetachesItsCallbacksOnDestruction) {
  InsightEngine engine = MakeEngine(true);
  {
    QuerySession session(engine);
    InsightQuery query;
    query.class_name = "dispersion";
    ASSERT_TRUE(session.Execute(query).ok());
    auto json = JsonValue::Parse(engine.DumpMetrics());
    ASSERT_TRUE(json.ok());
    ASSERT_NE(json->Get("counters")->Get("query_cache.misses_total"), nullptr);
  }
  // After the session dies its callbacks must be gone, not dangling.
  auto json = JsonValue::Parse(engine.DumpMetrics());
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Get("counters")->Get("query_cache.misses_total"), nullptr);
}

TEST_F(MetricsEngineTest, ExecutePopulatesFiveStageTrace) {
  InsightEngine engine = MakeEngine(true);
  QuerySession session(engine);
  InsightQuery query;
  query.class_name = "linear_relationship";
  query.top_k = 5;

  auto miss = session.Execute(query);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->cache_hit);
  EXPECT_GT(miss->trace.stage(QueryStage::kEvaluate), 0.0);
  EXPECT_GT(miss->trace.stage(QueryStage::kEnumerate), 0.0);
  EXPECT_GT(miss->trace.total_ms, 0.0);
  EXPECT_DOUBLE_EQ(miss->trace.total_ms, miss->elapsed_ms);

  auto hit = session.Execute(query);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  // Engine-side stages describe the computing call; the lookup stage and
  // totals describe this serving call.
  EXPECT_GT(hit->trace.stage(QueryStage::kCacheLookup), 0.0);
  EXPECT_GT(hit->trace.stage(QueryStage::kEvaluate), 0.0);
}

TEST_F(MetricsEngineTest, MetricsOffMeansNoTelemetryAndEmptyDump) {
  InsightEngine engine = MakeEngine(false);
  EXPECT_FALSE(engine.collect_metrics());
  EXPECT_EQ(engine.DumpMetrics(MetricsFormat::kJson), "{}");
  EXPECT_EQ(engine.DumpMetrics(MetricsFormat::kPrometheus), "");
  InsightQuery query;
  query.class_name = "skew";
  auto result = engine.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->elapsed_ms, 0.0);
  for (size_t i = 0; i < kNumQueryStages; ++i) {
    EXPECT_DOUBLE_EQ(result->trace.stage_ms[i], 0.0);
  }
}

// The acceptance gate: the ranked payload of every query must be bit-identical
// whether metrics are collected or not. Telemetry fields (elapsed_ms, trace)
// are explicitly NOT payload.
TEST_F(MetricsEngineTest, RankedOutputBitIdenticalWithAndWithoutMetrics) {
  InsightEngine with = MakeEngine(true);
  InsightEngine without = MakeEngine(false);
  for (const char* class_name :
       {"linear_relationship", "skew", "heavy_tails", "dispersion",
        "outliers", "multimodality"}) {
    for (ExecutionMode mode : {ExecutionMode::kExact, ExecutionMode::kSketch}) {
      InsightQuery query;
      query.class_name = class_name;
      query.top_k = 12;
      query.mode = mode;
      auto a = with.Execute(query);
      auto b = without.Execute(query);
      ASSERT_TRUE(a.ok()) << class_name;
      ASSERT_TRUE(b.ok()) << class_name;
      ASSERT_EQ(a->candidates_evaluated, b->candidates_evaluated);
      ASSERT_EQ(a->undefined_excluded, b->undefined_excluded);
      ASSERT_EQ(a->mode_used, b->mode_used);
      ASSERT_EQ(a->insights.size(), b->insights.size()) << class_name;
      for (size_t i = 0; i < a->insights.size(); ++i) {
        const Insight& x = a->insights[i];
        const Insight& y = b->insights[i];
        EXPECT_EQ(x.class_name, y.class_name);
        EXPECT_EQ(x.metric_name, y.metric_name);
        EXPECT_EQ(x.attributes.indices, y.attributes.indices);
        // Bit-identical, not approximately equal.
        EXPECT_EQ(x.raw_value, y.raw_value) << class_name << " #" << i;
        EXPECT_EQ(x.score, y.score) << class_name << " #" << i;
      }
    }
  }
}

}  // namespace
}  // namespace foresight
