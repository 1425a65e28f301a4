#include "core/explorer.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"

namespace foresight {
namespace {

class ExplorerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new DataTable(MakeOecdLike(3000, 23));
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

DataTable* ExplorerTest::table_ = nullptr;
InsightEngine* ExplorerTest::engine_ = nullptr;

TEST_F(ExplorerTest, InitialCarouselsCoverAllClasses) {
  ExplorationSession session(*engine_);
  auto carousels = session.InitialCarousels();
  ASSERT_TRUE(carousels.ok());
  EXPECT_EQ(carousels->size(), 12u);  // One carousel per class (Figure 1).
  for (const Carousel& carousel : *carousels) {
    EXPECT_FALSE(carousel.display_name.empty());
    EXPECT_LE(carousel.insights.size(), session.options().carousel_size);
    for (size_t i = 1; i < carousel.insights.size(); ++i) {
      EXPECT_GE(carousel.insights[i - 1].score, carousel.insights[i].score);
    }
  }
}

TEST_F(ExplorerTest, FocusIsIdempotentAndUnfocusable) {
  ExplorationSession session(*engine_);
  auto top = engine_->TopInsights("linear_relationship", 1);
  ASSERT_TRUE(top.ok());
  ASSERT_FALSE(top->empty());
  session.Focus((*top)[0]);
  session.Focus((*top)[0]);
  EXPECT_EQ(session.focused().size(), 1u);
  session.Unfocus((*top)[0].Key());
  EXPECT_TRUE(session.focused().empty());
  session.Unfocus("nonexistent");  // No-op.
}

TEST_F(ExplorerTest, SimilarityFollowsPaperDefinition) {
  ExplorationSession session(*engine_);
  auto top = engine_->TopInsights("linear_relationship", 10,
                                  ExecutionMode::kExact);
  ASSERT_TRUE(top.ok());
  ASSERT_GE(top->size(), 3u);
  const Insight& a = (*top)[0];
  // Self-similarity is maximal.
  double self = session.Similarity(a, a);
  for (size_t i = 1; i < top->size(); ++i) {
    EXPECT_LE(session.Similarity(a, (*top)[i]), self + 1e-12);
  }
  // An insight sharing one attribute is more similar than a disjoint one
  // with the same score gap. Build synthetic insights to control both.
  Insight shares = a;
  shares.attributes.indices[1] = 999;  // One shared, one different.
  shares.attribute_names[1] = "other";
  Insight disjoint = a;
  disjoint.attributes.indices = {997, 998};
  disjoint.attribute_names = {"p", "q"};
  EXPECT_GT(session.Similarity(a, shares), session.Similarity(a, disjoint));
}

TEST_F(ExplorerTest, FocusReordersTowardNeighborhood) {
  ExplorationOptions options;
  options.carousel_size = 8;
  options.focus_boost = 0.8;
  // Isolate the structural half of the similarity (shared attributes) and
  // widen the pool so attribute-sharing pairs are reachable even when their
  // base correlation is weak.
  options.attribute_weight = 1.0;
  options.score_weight = 0.0;
  options.pool_factor = 40;
  ExplorationSession session(*engine_, options);

  // Focus on the strongest correlation insight; pairs sharing one of its
  // attributes should rise in the recommended correlation carousel.
  auto top = engine_->TopInsights("linear_relationship", 1);
  ASSERT_TRUE(top.ok());
  const Insight& focus = (*top)[0];
  session.Focus(focus);
  auto recs = session.Recommendations();
  ASSERT_TRUE(recs.ok());
  const Carousel* correlation_carousel = nullptr;
  for (const Carousel& c : *recs) {
    if (c.class_name == "linear_relationship") correlation_carousel = &c;
  }
  ASSERT_NE(correlation_carousel, nullptr);
  ASSERT_GE(correlation_carousel->insights.size(), 3u);
  // With attribute-only similarity, a 0.8 boost, and a pool covering all
  // pairs, every recommended insight must share an attribute with the focus
  // (its similarity edge, 0.8/3, exceeds the max base-score edge, 0.2).
  for (const Insight& insight : correlation_carousel->insights) {
    EXPECT_GT(AttributeJaccard(insight.attributes, focus.attributes), 0.0)
        << insight.Key();
  }
}

TEST_F(ExplorerTest, EmptyFocusRecommendationsEqualInitial) {
  ExplorationSession session(*engine_);
  auto initial = session.InitialCarousels();
  auto recs = session.Recommendations();
  ASSERT_TRUE(initial.ok());
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(initial->size(), recs->size());
  for (size_t c = 0; c < initial->size(); ++c) {
    ASSERT_EQ((*initial)[c].insights.size(), (*recs)[c].insights.size());
    for (size_t i = 0; i < (*initial)[c].insights.size(); ++i) {
      EXPECT_EQ((*initial)[c].insights[i].Key(), (*recs)[c].insights[i].Key());
    }
  }
}

TEST_F(ExplorerTest, SaveAndLoadRoundTripsFocusState) {
  ExplorationOptions options;
  options.carousel_size = 7;
  options.focus_boost = 0.33;
  ExplorationSession session(*engine_, options);
  auto top = engine_->TopInsights("linear_relationship", 2);
  ASSERT_TRUE(top.ok());
  for (const Insight& insight : *top) session.Focus(insight);

  JsonValue state = session.SaveState();
  // The state is valid JSON that round-trips through text.
  auto reparsed = JsonValue::Parse(state.Dump());
  ASSERT_TRUE(reparsed.ok());

  auto restored = ExplorationSession::LoadState(*engine_, *reparsed);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->options().carousel_size, 7u);
  EXPECT_DOUBLE_EQ(restored->options().focus_boost, 0.33);
  ASSERT_EQ(restored->focused().size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(restored->focused()[i].Key(), session.focused()[i].Key());
    // Scores are re-evaluated against the same data: identical.
    EXPECT_NEAR(restored->focused()[i].score, session.focused()[i].score,
                0.15);
  }
}

TEST_F(ExplorerTest, LoadStateRejectsMalformedInput) {
  EXPECT_FALSE(
      ExplorationSession::LoadState(*engine_, JsonValue(3.0)).ok());
  auto bad_focus = JsonValue::Parse(R"({"focus": "not_an_array"})");
  ASSERT_TRUE(bad_focus.ok());
  EXPECT_FALSE(ExplorationSession::LoadState(*engine_, *bad_focus).ok());
  auto bad_class = JsonValue::Parse(
      R"({"focus": [{"class": "nope", "attributes": ["WorkingLongHours"]}]})");
  ASSERT_TRUE(bad_class.ok());
  EXPECT_FALSE(ExplorationSession::LoadState(*engine_, *bad_class).ok());
  auto bad_attribute = JsonValue::Parse(
      R"({"focus": [{"class": "skew", "attributes": ["NoSuchColumn"]}]})");
  ASSERT_TRUE(bad_attribute.ok());
  EXPECT_FALSE(ExplorationSession::LoadState(*engine_, *bad_attribute).ok());
  // Counts must be non-negative whole numbers, not wrapped or truncated.
  for (const char* size : {"-1", "2.5"}) {
    auto bad_size = JsonValue::Parse(
        std::string(R"({"options": {"carousel_size": )") + size + "}}");
    ASSERT_TRUE(bad_size.ok()) << size;
    EXPECT_FALSE(ExplorationSession::LoadState(*engine_, *bad_size).ok())
        << size;
  }
}

TEST_F(ExplorerTest, LoadStateWithEmptyObjectYieldsDefaultSession) {
  auto empty = JsonValue::Parse("{}");
  ASSERT_TRUE(empty.ok());
  auto session = ExplorationSession::LoadState(*engine_, *empty);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session->focused().empty());
}

TEST_F(ExplorerTest, InitialCarouselsMatchEachClassExecute) {
  for (size_t workers : {size_t{1}, size_t{8}}) {
    EngineOptions options;
    options.preprocess.sketch.hyperplane_bits = 512;
    options.num_workers = workers;
    auto engine = InsightEngine::Create(*table_, std::move(options));
    ASSERT_TRUE(engine.ok()) << engine.status();
    ExplorationSession session(*engine);
    auto carousels = session.InitialCarousels();
    ASSERT_TRUE(carousels.ok()) << carousels.status();
    const std::vector<std::string> names = engine->registry().names();
    ASSERT_EQ(carousels->size(), names.size());
    for (size_t c = 0; c < names.size(); ++c) {
      SCOPED_TRACE("workers " + std::to_string(workers) + " class " +
                   names[c]);
      InsightQuery query;
      query.class_name = names[c];
      query.top_k = session.options().carousel_size;
      auto expected = engine->Execute(query);
      ASSERT_TRUE(expected.ok()) << expected.status();
      const Carousel& carousel = (*carousels)[c];
      EXPECT_EQ(carousel.class_name, names[c]);
      ASSERT_EQ(carousel.insights.size(), expected->insights.size());
      for (size_t i = 0; i < carousel.insights.size(); ++i) {
        const Insight& got = carousel.insights[i];
        const Insight& want = expected->insights[i];
        EXPECT_EQ(got.metric_name, want.metric_name) << "#" << i;
        EXPECT_EQ(got.attributes.indices, want.attributes.indices) << "#" << i;
        EXPECT_EQ(got.raw_value, want.raw_value) << "#" << i;
        EXPECT_EQ(got.score, want.score) << "#" << i;
      }
    }
  }
}

/// Insight class whose evaluation fails for every candidate, with a distinct
/// message per candidate, so a test can tell WHICH error was reported.
class FailingClass final : public InsightClass {
 public:
  std::string name() const override { return "failing_class"; }
  std::string display_name() const override { return "Failing"; }
  size_t arity() const override { return 1; }
  std::vector<std::string> metric_names() const override { return {"fail"}; }
  std::vector<AttributeTuple> EnumerateCandidates(
      const DataTable& table) const override {
    std::vector<AttributeTuple> tuples;
    for (size_t c : table.NumericColumnIndices()) {
      tuples.push_back(AttributeTuple{{c}});
    }
    return tuples;
  }
  StatusOr<double> EvaluateExact(const DataTable&, const AttributeTuple& tuple,
                                 const std::string&) const override {
    return Status::Internal("candidate " + std::to_string(tuple.indices[0]) +
                            " exploded");
  }
  VisualizationKind visualization() const override {
    return VisualizationKind::kHistogram;
  }
};

TEST_F(ExplorerTest, FailingClassReportsItsLowestIndexError) {
  const Status expected = Status::Internal(
      "candidate " + std::to_string(table_->NumericColumnIndices().front()) +
      " exploded");
  for (size_t workers : {size_t{1}, size_t{8}}) {
    InsightClassRegistry registry = InsightClassRegistry::CreateDefault();
    ASSERT_TRUE(registry.Register(std::make_unique<FailingClass>()).ok());
    EngineOptions options;
    options.build_profile = false;
    options.num_workers = workers;
    options.registry = std::move(registry);
    auto engine = InsightEngine::Create(*table_, std::move(options));
    ASSERT_TRUE(engine.ok()) << engine.status();
    // Thread timing varies; the reported error must not.
    for (int repeat = 0; repeat < 5; ++repeat) {
      ExplorationSession session(*engine);
      EXPECT_EQ(session.InitialCarousels().status(), expected)
          << "workers " << workers << " repeat " << repeat;
    }
  }
}

}  // namespace
}  // namespace foresight
