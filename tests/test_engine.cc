#include "core/engine.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "stats/correlation.h"
#include "util/random.h"

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

class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new DataTable(MakeOecdLike(4000, 21));
    EngineOptions options;
    options.preprocess.sketch.hyperplane_bits = 768;
    auto engine = InsightEngine::Create(*table_, std::move(options));
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = new InsightEngine(std::move(*engine));
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete table_;
    engine_ = nullptr;
    table_ = nullptr;
  }

  static DataTable* table_;
  static InsightEngine* engine_;
};

DataTable* EngineTest::table_ = nullptr;
InsightEngine* EngineTest::engine_ = nullptr;

TEST_F(EngineTest, TopCorrelationFindsPlantedPair) {
  auto top = engine_->TopInsights("linear_relationship", 3,
                                  ExecutionMode::kExact);
  ASSERT_TRUE(top.ok());
  ASSERT_GE(top->size(), 1u);
  const Insight& best = (*top)[0];
  // The strongest planted correlation is WorkingLongHours <-> Leisure (-0.85)
  // or LifeSatisfaction <-> SelfReportedHealth; either way the winner must be
  // one of the planted strong pairs with |rho| > 0.7.
  EXPECT_GT(best.score, 0.7);
  EXPECT_EQ(best.attribute_names.size(), 2u);
  EXPECT_EQ(best.provenance, Provenance::kExact);
  EXPECT_FALSE(best.description.empty());
}

TEST_F(EngineTest, SketchModeAgreesOnTopPair) {
  auto exact = engine_->TopInsights("linear_relationship", 5,
                                    ExecutionMode::kExact);
  auto sketch = engine_->TopInsights("linear_relationship", 5,
                                     ExecutionMode::kSketch);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ((*sketch)[0].provenance, Provenance::kSketch);
  // Precision@3: at least 2 of the exact top-3 appear in the sketch top-5.
  int hits = 0;
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < sketch->size(); ++j) {
      if ((*exact)[i].attributes == (*sketch)[j].attributes) ++hits;
    }
  }
  EXPECT_GE(hits, 2);
}

TEST_F(EngineTest, RanksAreDescending) {
  for (const char* class_name :
       {"dispersion", "skew", "heavy_tails", "linear_relationship"}) {
    auto top = engine_->TopInsights(class_name, 10, ExecutionMode::kExact);
    ASSERT_TRUE(top.ok()) << class_name;
    for (size_t i = 1; i < top->size(); ++i) {
      EXPECT_GE((*top)[i - 1].score, (*top)[i].score) << class_name;
    }
  }
}

TEST_F(EngineTest, FixedAttributeRestrictsTuples) {
  // §2.1: fix x = WorkingLongHours and rank only pairs containing it.
  InsightQuery query;
  query.class_name = "linear_relationship";
  query.fixed_attributes = {"WorkingLongHours"};
  query.top_k = 100;
  query.mode = ExecutionMode::kExact;
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok());
  size_t work = *table_->ColumnIndex("WorkingLongHours");
  EXPECT_EQ(result->insights.size(),
            table_->NumericColumnIndices().size() - 1);
  for (const Insight& insight : result->insights) {
    EXPECT_TRUE(insight.attributes.Contains(work));
  }
  // The most correlated attribute with WorkingLongHours is Leisure.
  EXPECT_NE(std::find(result->insights[0].attribute_names.begin(),
                      result->insights[0].attribute_names.end(),
                      "TimeDevotedToLeisure"),
            result->insights[0].attribute_names.end());
}

TEST_F(EngineTest, MetricRangeFiltersScores) {
  // §2.1: rank only pairs with |rho| in [0.3, 0.75] to filter out trivially
  // very high correlations.
  InsightQuery query;
  query.class_name = "linear_relationship";
  query.min_score = 0.3;
  query.max_score = 0.75;
  query.top_k = 1000;
  query.mode = ExecutionMode::kExact;
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->insights.empty());
  for (const Insight& insight : result->insights) {
    EXPECT_GE(insight.score, 0.3);
    EXPECT_LE(insight.score, 0.75);
  }
  // The planted |rho| ~ 0.85 pair is excluded.
  for (const Insight& insight : result->insights) {
    bool is_planted_pair =
        insight.attributes.Contains(*table_->ColumnIndex("WorkingLongHours")) &&
        insight.attributes.Contains(*table_->ColumnIndex("TimeDevotedToLeisure"));
    EXPECT_FALSE(is_planted_pair);
  }
}

TEST_F(EngineTest, TopKTruncates) {
  InsightQuery query;
  query.class_name = "dispersion";
  query.top_k = 3;
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->insights.size(), 3u);
  EXPECT_GT(result->candidates_evaluated, 3u);
}

TEST_F(EngineTest, SecondaryMetricSelectable) {
  InsightQuery query;
  query.class_name = "monotonic_relationship";
  query.metric = "kendall";
  query.top_k = 2;
  query.mode = ExecutionMode::kExact;
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->insights.empty());
  EXPECT_EQ(result->insights[0].metric_name, "kendall");
}

TEST_F(EngineTest, ErrorsOnBadQueries) {
  InsightQuery unknown_class;
  unknown_class.class_name = "no_such_class";
  EXPECT_EQ(engine_->Execute(unknown_class).status().code(),
            StatusCode::kNotFound);

  InsightQuery bad_metric;
  bad_metric.class_name = "skew";
  bad_metric.metric = "pearson";
  EXPECT_EQ(engine_->Execute(bad_metric).status().code(),
            StatusCode::kInvalidArgument);

  InsightQuery bad_range;
  bad_range.class_name = "skew";
  bad_range.min_score = 0.9;
  bad_range.max_score = 0.1;
  EXPECT_EQ(engine_->Execute(bad_range).status().code(),
            StatusCode::kInvalidArgument);

  InsightQuery bad_attribute;
  bad_attribute.class_name = "linear_relationship";
  bad_attribute.fixed_attributes = {"NoSuchColumn"};
  EXPECT_EQ(engine_->Execute(bad_attribute).status().code(),
            StatusCode::kNotFound);
}

TEST_F(EngineTest, EvaluateTupleMatchesQueryResults) {
  size_t work = *table_->ColumnIndex("WorkingLongHours");
  size_t leisure = *table_->ColumnIndex("TimeDevotedToLeisure");
  auto insight = engine_->EvaluateTuple("linear_relationship",
                                        AttributeTuple{{work, leisure}}, "",
                                        ExecutionMode::kExact);
  ASSERT_TRUE(insight.ok());
  PairedValues pairs = ExtractPairedValid(table_->column(work).AsNumeric(),
                                          table_->column(leisure).AsNumeric());
  EXPECT_NEAR(insight->raw_value, PearsonCorrelation(pairs.x, pairs.y), 1e-12);
  EXPECT_LT(insight->raw_value, 0.0);
  EXPECT_DOUBLE_EQ(insight->score, std::abs(insight->raw_value));
}

TEST_F(EngineTest, CorrelationOverviewIsSymmetricWithUnitDiagonal) {
  auto overview = engine_->ComputePairwiseOverview(
      "linear_relationship", OverviewOptions(ExecutionMode::kExact));
  ASSERT_TRUE(overview.ok());
  size_t d = overview->attribute_names.size();
  EXPECT_EQ(d, table_->NumericColumnIndices().size());
  for (size_t i = 0; i < d; ++i) {
    EXPECT_DOUBLE_EQ(overview->at(i, i), 1.0);
    for (size_t j = 0; j < d; ++j) {
      EXPECT_DOUBLE_EQ(overview->at(i, j), overview->at(j, i));
      EXPECT_LE(std::abs(overview->at(i, j)), 1.0);
    }
  }
}

TEST_F(EngineTest, SketchOverviewTracksExact) {
  auto exact = engine_->ComputePairwiseOverview(
      "linear_relationship", OverviewOptions(ExecutionMode::kExact));
  auto sketch = engine_->ComputePairwiseOverview(
      "linear_relationship", OverviewOptions(ExecutionMode::kSketch));
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch->provenance, Provenance::kSketch);
  size_t d = exact->attribute_names.size();
  double total_error = 0.0;
  size_t strong_sign_matches = 0, strong_total = 0;
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i + 1; j < d; ++j) {
      total_error += std::abs(exact->at(i, j) - sketch->at(i, j));
      if (std::abs(exact->at(i, j)) > 0.3) {
        ++strong_total;
        if (exact->at(i, j) * sketch->at(i, j) > 0) ++strong_sign_matches;
      }
    }
  }
  double mean_error = total_error / static_cast<double>(d * (d - 1) / 2);
  EXPECT_LT(mean_error, 0.08);
  EXPECT_EQ(strong_sign_matches, strong_total);  // Signs of strong rho agree.
}

TEST_F(EngineTest, NoProfileMeansExactAutoAndSketchFails) {
  EngineOptions options;
  options.build_profile = false;
  auto engine = InsightEngine::Create(*table_, std::move(options));
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->has_profile());
  auto result = engine->TopInsights("skew", 2);  // kAuto -> exact.
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0].provenance, Provenance::kExact);
  EXPECT_EQ(engine->TopInsights("skew", 2, ExecutionMode::kSketch)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, CustomClassPluginIsQueryable) {
  // The extensibility contract (§2.2): plug in a new insight class.
  class RangeClass final : public InsightClass {
   public:
    std::string name() const override { return "value_range"; }
    std::string display_name() const override { return "Value Range"; }
    size_t arity() const override { return 1; }
    std::vector<std::string> metric_names() const override { return {"range"}; }
    std::vector<AttributeTuple> EnumerateCandidates(
        const DataTable& table) const override {
      std::vector<AttributeTuple> tuples;
      for (size_t c : table.NumericColumnIndices()) {
        tuples.push_back(AttributeTuple{{c}});
      }
      return tuples;
    }
    StatusOr<double> EvaluateExact(const DataTable& table,
                                   const AttributeTuple& tuple,
                                   const std::string&) const override {
      const auto& col = table.column(tuple.indices[0]).AsNumeric();
      std::vector<double> v = col.ValidValues();
      if (v.empty()) return 0.0;
      auto [lo, hi] = std::minmax_element(v.begin(), v.end());
      return *hi - *lo;
    }
    VisualizationKind visualization() const override {
      return VisualizationKind::kHistogram;
    }
  };

  InsightClassRegistry registry = InsightClassRegistry::CreateDefault();
  ASSERT_TRUE(registry.Register(std::make_unique<RangeClass>()).ok());
  EngineOptions options;
  options.build_profile = false;
  options.registry = std::move(registry);
  auto engine = InsightEngine::Create(*table_, std::move(options));
  ASSERT_TRUE(engine.ok());
  auto top = engine->TopInsights("value_range", 1);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 1u);
  EXPECT_GT((*top)[0].score, 0.0);
}

TEST_F(EngineTest, QueryTelemetryIsPopulated) {
  InsightQuery query;
  query.class_name = "linear_relationship";
  query.top_k = 5;
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok());
  size_t d = table_->NumericColumnIndices().size();
  EXPECT_EQ(result->candidates_evaluated, d * (d - 1) / 2);
  EXPECT_GE(result->elapsed_ms, 0.0);
}

// Regression tests for the NaN-rank bug: shape metrics are undefined (0/0)
// on zero- or denormal-variance columns. Before the fix the NaN leaked into
// the ranking and poisoned the deterministic top-k comparator; now such
// candidates are excluded and counted in `undefined_excluded`.
class NaNExclusionTest : public ::testing::Test {
 protected:
  static DataTable MakeTable() {
    Rng rng(11);
    DataTable table;
    const size_t n = 600;
    std::vector<double> normal(n), skewed(n), constant(n, 7.5), denormal(n);
    for (size_t i = 0; i < n; ++i) {
      normal[i] = rng.Normal(10.0, 2.0);
      skewed[i] = rng.LogNormal(0.0, 0.8);
      // variance > 0 but variance^2 underflows to 0 -> kurtosis = 0/0.
      denormal[i] = (i % 2 == 0) ? 0.0 : 1e-160;
    }
    EXPECT_TRUE(table.AddNumericColumn("normal", normal).ok());
    EXPECT_TRUE(table.AddNumericColumn("skewed", skewed).ok());
    EXPECT_TRUE(table.AddNumericColumn("constant", constant).ok());
    EXPECT_TRUE(table.AddNumericColumn("denormal", denormal).ok());
    return table;
  }
};

TEST_F(NaNExclusionTest, UndefinedShapeMetricsNeverRanked) {
  DataTable table = MakeTable();
  auto engine = InsightEngine::Create(table, EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (const char* class_name :
       {"skew", "heavy_tails", "dispersion", "multimodality"}) {
    for (ExecutionMode mode : {ExecutionMode::kExact, ExecutionMode::kSketch}) {
      InsightQuery query;
      query.class_name = class_name;
      query.top_k = 10;
      query.mode = mode;
      auto result = engine->Execute(query);
      ASSERT_TRUE(result.ok()) << class_name;
      for (const Insight& insight : result->insights) {
        EXPECT_TRUE(std::isfinite(insight.raw_value))
            << class_name << "/" << insight.attribute_names[0];
        EXPECT_TRUE(std::isfinite(insight.score))
            << class_name << "/" << insight.attribute_names[0];
      }
    }
  }
}

TEST_F(NaNExclusionTest, ConstantAndDenormalColumnsCountedAsExcluded) {
  DataTable table = MakeTable();
  auto engine = InsightEngine::Create(table, EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (const char* class_name : {"skew", "heavy_tails"}) {
    InsightQuery query;
    query.class_name = class_name;
    query.top_k = 10;
    query.mode = ExecutionMode::kExact;
    auto result = engine->Execute(query);
    ASSERT_TRUE(result.ok()) << class_name;
    // Both the constant and the denormal-variance column are undefined.
    EXPECT_EQ(result->undefined_excluded, 2u) << class_name;
    EXPECT_EQ(result->insights.size(), 2u) << class_name;
    for (const Insight& insight : result->insights) {
      EXPECT_NE(insight.attribute_names[0], "constant") << class_name;
      EXPECT_NE(insight.attribute_names[0], "denormal") << class_name;
    }
  }
}

TEST_F(NaNExclusionTest, TwoRowTableHasDefinedShape) {
  // A two-row column has positive representable variance: shape metrics are
  // defined (skewness exactly 0, kurtosis exactly 1) and must be ranked.
  DataTable table;
  ASSERT_TRUE(table.AddNumericColumn("pair", {1.0, 2.0}).ok());
  ASSERT_TRUE(table.AddNumericColumn("other", {5.0, -3.0}).ok());
  EngineOptions options;
  options.build_profile = false;  // 2 rows is below any sketching regime.
  auto engine = InsightEngine::Create(table, std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (const char* class_name : {"skew", "heavy_tails"}) {
    InsightQuery query;
    query.class_name = class_name;
    query.top_k = 10;
    query.mode = ExecutionMode::kExact;
    auto result = engine->Execute(query);
    ASSERT_TRUE(result.ok()) << class_name;
    EXPECT_EQ(result->undefined_excluded, 0u) << class_name;
    EXPECT_EQ(result->insights.size(), 2u) << class_name;
    for (const Insight& insight : result->insights) {
      EXPECT_TRUE(std::isfinite(insight.raw_value)) << class_name;
    }
  }
}

}  // namespace
}  // namespace foresight
