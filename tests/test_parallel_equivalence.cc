// Parallel execution must be BIT-IDENTICAL to serial: same insights (order,
// scores, provenance), same serialized profile JSON, same overview matrices,
// and the same reported error when a query fails — regardless of worker
// count or thread timing.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/explorer.h"
#include "core/profile.h"
#include "data/generators.h"
#include "util/thread_pool.h"

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

/// Profile JSON with the one legitimately nondeterministic field (wall-clock
/// preprocessing time) zeroed, so the rest can be compared byte for byte.
std::string ComparableProfileJson(const TableProfile& profile) {
  JsonValue json = profile.ToJson();
  json.Set("preprocess_seconds", 0.0);
  return json.Dump();
}

void ExpectSameInsights(const std::vector<Insight>& serial,
                        const std::vector<Insight>& parallel,
                        const std::string& label) {
  ASSERT_EQ(serial.size(), parallel.size()) << label;
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(label + " insight #" + std::to_string(i));
    EXPECT_EQ(serial[i].class_name, parallel[i].class_name);
    EXPECT_EQ(serial[i].metric_name, parallel[i].metric_name);
    EXPECT_EQ(serial[i].attributes.indices, parallel[i].attributes.indices);
    EXPECT_EQ(serial[i].attribute_names, parallel[i].attribute_names);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(serial[i].raw_value, parallel[i].raw_value);
    EXPECT_EQ(serial[i].score, parallel[i].score);
    EXPECT_EQ(serial[i].provenance, parallel[i].provenance);
    EXPECT_EQ(serial[i].description, parallel[i].description);
  }
}

class ParallelEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Mixed numeric + categorical table, wide enough to exercise chunking.
    table_ = new DataTable(MakeBenchmarkTable(3000, 24, 4, 17));
    EngineOptions serial_options;
    serial_options.num_workers = 1;
    serial_options.preprocess.sketch.hyperplane_bits = 256;
    auto serial = InsightEngine::Create(*table_, std::move(serial_options));
    ASSERT_TRUE(serial.ok()) << serial.status();
    serial_ = new InsightEngine(std::move(*serial));

    EngineOptions parallel_options;
    parallel_options.num_workers = 8;
    parallel_options.preprocess.sketch.hyperplane_bits = 256;
    auto parallel = InsightEngine::Create(*table_, std::move(parallel_options));
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    parallel_ = new InsightEngine(std::move(*parallel));
  }
  static void TearDownTestSuite() {
    delete parallel_;
    delete serial_;
    delete table_;
    parallel_ = nullptr;
    serial_ = nullptr;
    table_ = nullptr;
  }

  static DataTable* table_;
  static InsightEngine* serial_;
  static InsightEngine* parallel_;
};

DataTable* ParallelEquivalenceTest::table_ = nullptr;
InsightEngine* ParallelEquivalenceTest::serial_ = nullptr;
InsightEngine* ParallelEquivalenceTest::parallel_ = nullptr;

TEST_F(ParallelEquivalenceTest, EngineUsesRequestedWorkerCounts) {
  EXPECT_EQ(serial_->num_workers(), 1u);
  // A one-worker engine still owns a pool: one thread, nothing spawned.
  ASSERT_NE(serial_->thread_pool(), nullptr);
  EXPECT_EQ(serial_->thread_pool()->num_threads(), 1u);
  EXPECT_EQ(parallel_->num_workers(), 8u);
  ASSERT_NE(parallel_->thread_pool(), nullptr);
  EXPECT_EQ(parallel_->thread_pool()->num_threads(), 8u);
}

TEST_F(ParallelEquivalenceTest, ProfileJsonIsIdentical) {
  // Both engines preprocessed the same table (serial vs 8 workers); the
  // serialized profiles must match byte for byte.
  EXPECT_EQ(ComparableProfileJson(serial_->profile()),
            ComparableProfileJson(parallel_->profile()));
}

TEST_F(ParallelEquivalenceTest, PartitionedProfileJsonIsIdentical) {
  PreprocessOptions options;
  options.sketch.hyperplane_bits = 256;
  const size_t n = table_->num_rows();
  options.partition_boundaries = {n / 3, 2 * n / 3, n};
  auto serial = Preprocessor::Profile(*table_, options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ThreadPool pool(8);
  auto parallel = Preprocessor::Profile(*table_, options, &pool);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(ComparableProfileJson(*serial), ComparableProfileJson(*parallel));
}

TEST_F(ParallelEquivalenceTest, QueryResultsIdenticalAcrossAllClasses) {
  for (ExecutionMode mode : {ExecutionMode::kExact, ExecutionMode::kSketch}) {
    for (const std::string& class_name : serial_->registry().names()) {
      InsightQuery query;
      query.class_name = class_name;
      query.top_k = 15;
      query.mode = mode;
      auto serial = serial_->Execute(query);
      auto parallel = parallel_->Execute(query);
      ASSERT_EQ(serial.ok(), parallel.ok()) << class_name;
      if (!serial.ok()) continue;
      EXPECT_EQ(serial->candidates_evaluated, parallel->candidates_evaluated);
      EXPECT_EQ(serial->mode_used, parallel->mode_used);
      std::string label = class_name + (mode == ExecutionMode::kExact
                                            ? "/exact"
                                            : "/sketch");
      ExpectSameInsights(serial->insights, parallel->insights, label);
    }
  }
}

TEST_F(ParallelEquivalenceTest, FilteredQueryIdentical) {
  InsightQuery query;
  query.class_name = "linear_relationship";
  query.top_k = 50;
  query.min_score = 0.05;
  query.max_score = 0.9;
  query.mode = ExecutionMode::kExact;
  auto serial = serial_->Execute(query);
  auto parallel = parallel_->Execute(query);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectSameInsights(serial->insights, parallel->insights, "filtered");
}

TEST_F(ParallelEquivalenceTest, OverviewMatricesIdenticalBothModes) {
  for (ExecutionMode mode : {ExecutionMode::kExact, ExecutionMode::kSketch}) {
    auto serial = serial_->ComputePairwiseOverview(
      "linear_relationship", OverviewOptions(mode));
    auto parallel = parallel_->ComputePairwiseOverview(
      "linear_relationship", OverviewOptions(mode));
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(serial->attribute_names, parallel->attribute_names);
    EXPECT_EQ(serial->column_indices, parallel->column_indices);
    EXPECT_EQ(serial->provenance, parallel->provenance);
    ASSERT_EQ(serial->matrix.size(), parallel->matrix.size());
    for (size_t i = 0; i < serial->matrix.size(); ++i) {
      EXPECT_EQ(serial->matrix[i], parallel->matrix[i]) << "cell " << i;
    }
  }
}

TEST_F(ParallelEquivalenceTest, CarouselsIdentical) {
  ExplorationSession serial_session(*serial_);
  ExplorationSession parallel_session(*parallel_);
  auto serial = serial_session.InitialCarousels();
  auto parallel = parallel_session.InitialCarousels();
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ASSERT_EQ(serial->size(), parallel->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ((*serial)[i].class_name, (*parallel)[i].class_name);
    ExpectSameInsights((*serial)[i].insights, (*parallel)[i].insights,
                       "carousel " + (*serial)[i].class_name);
  }
}

/// Insight class whose evaluation fails for every candidate except the first,
/// with a distinct message per candidate — used to pin down WHICH error a
/// parallel run reports.
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
    if (tuple.indices[0] == 0) return 1.0;  // Only the first candidate is OK.
    return Status::Internal("candidate " + std::to_string(tuple.indices[0]) +
                            " exploded");
  }
  VisualizationKind visualization() const override {
    return VisualizationKind::kHistogram;
  }
};

TEST_F(ParallelEquivalenceTest, ParallelErrorMatchesSerialFirstError) {
  // Regression for the old per-query-thread path, which reported whichever
  // worker LOST the race (errors.front() by completion order). The reported
  // error must be the lowest candidate index, i.e. what serial returns.
  auto options_with_failing_class = [](size_t workers) {
    InsightClassRegistry registry = InsightClassRegistry::CreateDefault();
    EXPECT_TRUE(registry.Register(std::make_unique<FailingClass>()).ok());
    EngineOptions options;
    options.build_profile = false;
    options.num_workers = workers;
    options.registry = std::move(registry);
    return options;
  };
  auto serial_engine =
      InsightEngine::Create(*table_, options_with_failing_class(1));
  ASSERT_TRUE(serial_engine.ok());
  InsightQuery query;
  query.class_name = "failing_class";
  query.mode = ExecutionMode::kExact;
  Status expected = serial_engine->Execute(query).status();
  ASSERT_FALSE(expected.ok());

  auto parallel_engine =
      InsightEngine::Create(*table_, options_with_failing_class(8));
  ASSERT_TRUE(parallel_engine.ok());
  // Thread timing varies; the answer must not. Repeat to catch races.
  for (int repeat = 0; repeat < 25; ++repeat) {
    Status status = parallel_engine->Execute(query).status();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status, expected) << "repeat " << repeat;
  }
}

}  // namespace
}  // namespace foresight
