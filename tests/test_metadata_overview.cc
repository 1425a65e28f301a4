// Tests for metadata-tag constraints (§2.1 future work) and the generalized
// per-class overview visualizations (§2.1).

#include <cmath>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "data/generators.h"
#include "viz/charts.h"

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

TEST(SchemaTagsTest, TagAndQueryColumns) {
  DataTable table;
  ASSERT_TRUE(table.AddNumericColumn("price", {1, 2, 3}).ok());
  ASSERT_TRUE(table.AddNumericColumn("age", {4, 5, 6}).ok());
  ASSERT_TRUE(table.TagColumn("price", "currency").ok());
  ASSERT_TRUE(table.TagColumn("price", "currency").ok());  // Idempotent.
  ASSERT_TRUE(table.TagColumn("price", "important").ok());
  EXPECT_EQ(table.TagColumn("ghost", "x").code(), StatusCode::kNotFound);

  EXPECT_EQ(table.ColumnsWithTag("currency"), (std::vector<size_t>{0}));
  EXPECT_TRUE(table.ColumnsWithTag("nope").empty());
  const ColumnSpec& spec = table.schema().column(0);
  EXPECT_TRUE(spec.HasTag("currency"));
  EXPECT_TRUE(spec.HasTag("important"));
  EXPECT_EQ(spec.tags.size(), 2u);
  EXPECT_FALSE(table.schema().column(1).HasTag("currency"));
}

class MetadataQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new DataTable(MakeImdbLike(2000, 61));
    EngineOptions options;
    options.preprocess.sketch.hyperplane_bits = 256;
    auto engine = InsightEngine::Create(*table_, std::move(options));
    ASSERT_TRUE(engine.ok());
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

DataTable* MetadataQueryTest::table_ = nullptr;
InsightEngine* MetadataQueryTest::engine_ = nullptr;

TEST_F(MetadataQueryTest, GeneratorsPlantTags) {
  // IMDB analogue tags budget/gross/profit as currency, title_year as date.
  EXPECT_EQ(table_->ColumnsWithTag("currency").size(), 3u);
  EXPECT_EQ(table_->ColumnsWithTag("date").size(), 1u);
}

TEST_F(MetadataQueryTest, RequiredTagsRestrictTuples) {
  InsightQuery query;
  query.class_name = "linear_relationship";
  query.required_tags = {"currency"};
  query.top_k = 100;
  query.mode = ExecutionMode::kExact;
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok());
  // Exactly C(3,2) = 3 currency pairs.
  EXPECT_EQ(result->candidates_evaluated, 3u);
  for (const Insight& insight : result->insights) {
    for (size_t index : insight.attributes.indices) {
      EXPECT_TRUE(table_->schema().column(index).HasTag("currency"))
          << insight.Key();
    }
  }
}

TEST_F(MetadataQueryTest, TagsComposeWithFixedAndRange) {
  InsightQuery query;
  query.class_name = "linear_relationship";
  query.required_tags = {"currency"};
  query.fixed_attributes = {"profit"};
  query.top_k = 10;
  query.mode = ExecutionMode::kExact;
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates_evaluated, 2u);  // (profit,budget),(profit,gross)
  for (const Insight& insight : result->insights) {
    EXPECT_TRUE(insight.attributes.Contains(*table_->ColumnIndex("profit")));
  }
}

TEST_F(MetadataQueryTest, UnknownTagYieldsNoCandidates) {
  InsightQuery query;
  query.class_name = "skew";
  query.required_tags = {"no_such_tag"};
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->insights.empty());
  EXPECT_EQ(result->candidates_evaluated, 0u);
}

class OverviewTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new DataTable(MakeOecdLike(2000, 62));
    EngineOptions options;
    options.preprocess.sketch.hyperplane_bits = 512;
    auto engine = InsightEngine::Create(*table_, std::move(options));
    ASSERT_TRUE(engine.ok());
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

DataTable* OverviewTest::table_ = nullptr;
InsightEngine* OverviewTest::engine_ = nullptr;

TEST_F(OverviewTest, PairwiseOverviewGeneralizesBeyondPearson) {
  auto spearman = engine_->ComputePairwiseOverview(
      "monotonic_relationship", OverviewOptions(ExecutionMode::kExact));
  ASSERT_TRUE(spearman.ok());
  EXPECT_EQ(spearman->metric_name, "spearman");
  size_t d = spearman->attribute_names.size();
  ASSERT_EQ(d, 24u);
  size_t work = 0, leisure = 0;
  for (size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(spearman->at(i, i), 1.0, 1e-9);
    if (spearman->attribute_names[i] == "WorkingLongHours") work = i;
    if (spearman->attribute_names[i] == "TimeDevotedToLeisure") leisure = i;
  }
  EXPECT_LT(spearman->at(work, leisure), -0.7);  // Monotone too.

  auto nmi = engine_->ComputePairwiseOverview(
      "general_dependence", OverviewOptions(ExecutionMode::kExact));
  ASSERT_TRUE(nmi.ok());
  // NMI is non-negative and the planted pair is strongly dependent.
  EXPECT_GT(nmi->at(work, leisure), 0.2);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      EXPECT_GE(nmi->at(i, j), 0.0);
    }
  }
}

TEST_F(OverviewTest, PairwiseOverviewRejectsWrongArity) {
  EXPECT_EQ(engine_->ComputePairwiseOverview("skew").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_->ComputePairwiseOverview("nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(OverviewTest, OverviewChartsForEveryClassArity) {
  // Arity-2: heatmap spec with d*d cells.
  auto heatmap = BuildOverviewChart(*engine_, "monotonic_relationship",
                                    ExecutionMode::kExact);
  ASSERT_TRUE(heatmap.ok());
  EXPECT_EQ(heatmap->Get("data")->Get("values")->size(), 24u * 24u);

  // Arity-1: bar spec over attributes.
  auto bars = BuildOverviewChart(*engine_, "skew", ExecutionMode::kExact, 10);
  ASSERT_TRUE(bars.ok());
  EXPECT_LE(bars->Get("data")->Get("values")->size(), 10u);
  EXPECT_GT(bars->Get("data")->Get("values")->size(), 0u);

  // Arity-3: defined as unimplemented, not a crash.
  EXPECT_EQ(BuildOverviewChart(*engine_, "segmentation").status().code(),
            StatusCode::kUnimplemented);
}

TEST_F(OverviewTest, AsciiOverviews) {
  auto heatmap = RenderOverviewAscii(*engine_, "linear_relationship",
                                     ExecutionMode::kExact);
  ASSERT_TRUE(heatmap.ok());
  EXPECT_NE(heatmap->find('#'), std::string::npos);  // Diagonal cells.
  auto bars = RenderOverviewAscii(*engine_, "heavy_tails",
                                  ExecutionMode::kExact, 8);
  ASSERT_TRUE(bars.ok());
  EXPECT_NE(bars->find("AirPollution"), std::string::npos);  // Heavy tail.
}

}  // namespace
}  // namespace foresight
