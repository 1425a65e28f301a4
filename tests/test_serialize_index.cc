// Tests for sketch/profile serialization, engine-from-profile, and parallel
// query evaluation (§5 future work).

#include <algorithm>
#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "data/generators.h"
#include "sketch/serialize.h"
#include "util/random.h"

namespace foresight {
namespace {

// ---------- Individual sketch round-trips ----------

TEST(SerializeTest, MomentsRoundTrip) {
  Rng rng(1);
  RunningMoments moments;
  for (int i = 0; i < 5000; ++i) moments.Add(rng.LogNormal(1.0, 0.7));
  auto restored = MomentsFromJson(MomentsToJson(moments));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->count(), moments.count());
  EXPECT_DOUBLE_EQ(restored->mean(), moments.mean());
  EXPECT_DOUBLE_EQ(restored->variance(), moments.variance());
  EXPECT_DOUBLE_EQ(restored->skewness(), moments.skewness());
  EXPECT_DOUBLE_EQ(restored->kurtosis(), moments.kurtosis());
  EXPECT_DOUBLE_EQ(restored->min(), moments.min());
  EXPECT_DOUBLE_EQ(restored->max(), moments.max());
}

TEST(SerializeTest, KllRoundTripPreservesQuantiles) {
  Rng rng(2);
  KllSketch sketch(200);
  for (int i = 0; i < 50000; ++i) sketch.Update(rng.Normal());
  auto restored = KllFromJson(KllToJson(sketch));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->count(), sketch.count());
  EXPECT_EQ(restored->RetainedItems(), sketch.RetainedItems());
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_DOUBLE_EQ(restored->Quantile(q), sketch.Quantile(q));
  }
  // The restored sketch keeps working as a stream summary.
  KllSketch continuing = std::move(*restored);
  for (int i = 0; i < 1000; ++i) continuing.Update(100.0);
  EXPECT_GT(continuing.Quantile(0.999), 10.0);
}

TEST(SerializeTest, SpaceSavingRoundTrip) {
  Rng rng(5);
  SpaceSavingSketch sketch(32);
  for (int i = 0; i < 20000; ++i) {
    sketch.Update("v" + std::to_string(rng.Zipf(500, 1.3)));
  }
  auto restored = SpaceSavingFromJson(SpaceSavingToJson(sketch));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->total_count(), sketch.total_count());
  auto original_top = sketch.TopK(10);
  auto restored_top = restored->TopK(10);
  ASSERT_EQ(original_top.size(), restored_top.size());
  for (size_t i = 0; i < original_top.size(); ++i) {
    EXPECT_EQ(original_top[i].item, restored_top[i].item);
    EXPECT_EQ(original_top[i].estimated_count, restored_top[i].estimated_count);
    EXPECT_EQ(original_top[i].error, restored_top[i].error);
  }
}

TEST(SerializeTest, EntropyRoundTrip) {
  EntropySketch sketch(128, 9);
  for (int i = 0; i < 40; ++i) {
    sketch.Update("item" + std::to_string(i), 100 + i);
  }
  auto restored = EntropyFromJson(EntropyToJson(sketch));
  ASSERT_TRUE(restored.ok());
  EXPECT_DOUBLE_EQ(restored->EstimateEntropy(), sketch.EstimateEntropy());
}

TEST(SerializeTest, MalformedInputsRejected) {
  JsonValue empty = JsonValue::Object();
  EXPECT_FALSE(MomentsFromJson(empty).ok());
  EXPECT_FALSE(KllFromJson(empty).ok());
  EXPECT_FALSE(SpaceSavingFromJson(empty).ok());
  EXPECT_FALSE(EntropyFromJson(empty).ok());
}

// ---------- Profile persistence and engine-from-profile ----------

class ProfilePersistenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new DataTable(MakeOecdLike(3000, 51));
    PreprocessOptions options;
    options.sketch.hyperplane_bits = 512;
    auto profile = Preprocessor::Profile(*table_, options);
    ASSERT_TRUE(profile.ok());
    profile_json_ = new JsonValue(profile->ToJson());
  }
  static void TearDownTestSuite() {
    delete profile_json_;
    delete table_;
    profile_json_ = nullptr;
    table_ = nullptr;
  }

  static DataTable* table_;
  static JsonValue* profile_json_;
};

DataTable* ProfilePersistenceTest::table_ = nullptr;
JsonValue* ProfilePersistenceTest::profile_json_ = nullptr;

TEST_F(ProfilePersistenceTest, RoundTripsThroughText) {
  std::string text = profile_json_->Dump();
  auto reparsed = JsonValue::Parse(text);
  ASSERT_TRUE(reparsed.ok());
  auto restored = Preprocessor::LoadProfile(*table_, *reparsed);
  ASSERT_TRUE(restored.ok()) << restored.status();

  // Restored sketches answer identically to the originals.
  PreprocessOptions options;
  options.sketch.hyperplane_bits = 512;
  auto original = Preprocessor::Profile(*table_, options);
  ASSERT_TRUE(original.ok());
  for (size_t c : table_->NumericColumnIndices()) {
    const auto& a = original->numeric_sketch(c);
    const auto& b = restored->numeric_sketch(c);
    EXPECT_DOUBLE_EQ(a.moments.mean(), b.moments.mean());
    EXPECT_DOUBLE_EQ(a.moments.kurtosis(), b.moments.kurtosis());
    EXPECT_EQ(BitSignature::HammingDistance(a.signature, b.signature), 0u);
    EXPECT_DOUBLE_EQ(a.quantiles.Quantile(0.5), b.quantiles.Quantile(0.5));
  }
  for (size_t c : table_->CategoricalColumnIndices()) {
    const auto& a = original->categorical_sketch(c);
    const auto& b = restored->categorical_sketch(c);
    EXPECT_DOUBLE_EQ(a.entropy.EstimateEntropy(), b.entropy.EstimateEntropy());
    EXPECT_EQ(a.heavy_hitters.total_count(), b.heavy_hitters.total_count());
  }
  EXPECT_EQ(original->sampled_rows(), restored->sampled_rows());
}

TEST_F(ProfilePersistenceTest, EngineFromRestoredProfileServesQueries) {
  auto restored = Preprocessor::LoadProfile(*table_, *profile_json_);
  ASSERT_TRUE(restored.ok());
  auto engine =
      InsightEngine::CreateFromProfile(*table_, std::move(*restored));
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->has_profile());
  auto top = engine->TopInsights("linear_relationship", 3,
                                 ExecutionMode::kSketch);
  ASSERT_TRUE(top.ok());
  ASSERT_FALSE(top->empty());
  EXPECT_GT((*top)[0].score, 0.5);  // The planted strong pair survives.
}

TEST_F(ProfilePersistenceTest, RejectsMismatchedTable) {
  DataTable other = MakeOecdLike(100, 52);  // Different row count.
  EXPECT_FALSE(Preprocessor::LoadProfile(other, *profile_json_).ok());
  DataTable imdb = MakeImdbLike(3000, 53);  // Same rows, wrong columns.
  EXPECT_FALSE(Preprocessor::LoadProfile(imdb, *profile_json_).ok());
  EXPECT_FALSE(
      Preprocessor::LoadProfile(*table_, JsonValue::Object()).ok());
  // Row numbers and the row count must be whole and in range: a fractional
  // or negative value is rejected, never truncated or wrapped.
  for (double bad_row : {0.5, -1.0}) {
    JsonValue doc = *profile_json_;
    const JsonValue& rows = *doc.Get("sampled_rows");
    std::vector<double> values;
    for (size_t i = 0; i < rows.size(); ++i) {
      values.push_back(rows.at(i).as_number());
    }
    values[0] = bad_row;
    doc.Set("sampled_rows", JsonValue::PackedNumberArray(std::move(values)));
    EXPECT_FALSE(Preprocessor::LoadProfile(*table_, doc).ok()) << bad_row;
  }
  JsonValue negative_rows = *profile_json_;
  negative_rows.Set("num_rows", -1.0);
  EXPECT_FALSE(Preprocessor::LoadProfile(*table_, negative_rows).ok());
}

// ---------- Parallel query evaluation ----------

TEST(ParallelExecutionTest, WorkersProduceIdenticalResults) {
  DataTable table = MakeBenchmarkTable(2000, 24, 4, 55);
  EngineOptions serial_options;
  serial_options.preprocess.sketch.hyperplane_bits = 256;
  auto serial = InsightEngine::Create(table, std::move(serial_options));
  ASSERT_TRUE(serial.ok());
  EngineOptions parallel_options;
  parallel_options.preprocess.sketch.hyperplane_bits = 256;
  parallel_options.num_workers = 4;
  auto parallel = InsightEngine::Create(table, std::move(parallel_options));
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->num_workers(), 4u);

  for (const std::string& class_name : serial->registry().names()) {
    for (ExecutionMode mode :
         {ExecutionMode::kExact, ExecutionMode::kSketch}) {
      auto a = serial->TopInsights(class_name, 10, mode);
      auto b = parallel->TopInsights(class_name, 10, mode);
      ASSERT_TRUE(a.ok()) << class_name;
      ASSERT_TRUE(b.ok()) << class_name;
      ASSERT_EQ(a->size(), b->size()) << class_name;
      for (size_t i = 0; i < a->size(); ++i) {
        EXPECT_EQ((*a)[i].Key(), (*b)[i].Key()) << class_name;
        EXPECT_DOUBLE_EQ((*a)[i].score, (*b)[i].score) << class_name;
      }
    }
  }
}

TEST(ParallelExecutionTest, ZeroWorkersResolvesToHardwareConcurrency) {
  DataTable table = MakeBenchmarkTable(200, 4, 1, 56);
  EngineOptions options;
  options.build_profile = false;
  options.num_workers = 0;
  auto engine = InsightEngine::Create(table, std::move(options));
  ASSERT_TRUE(engine.ok());
  // hardware_concurrency() may report 0 when unknown; the engine never runs
  // with fewer than one worker.
  EXPECT_EQ(engine->num_workers(),
            std::max<size_t>(1, std::thread::hardware_concurrency()));
  EXPECT_TRUE(engine->TopInsights("skew", 2).ok());
}

}  // namespace
}  // namespace foresight
