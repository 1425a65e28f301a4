// Per-class correctness tests on crafted tables with known ground truth.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/insight_classes.h"
#include "core/profile.h"
#include "data/table.h"
#include "util/random.h"

namespace foresight {
namespace {

DataTable CraftedTable() {
  Rng rng(42);
  DataTable table;
  const size_t n = 4000;

  std::vector<double> tight(n), wide(n), right_skewed(n), heavy(n),
      with_outliers(n), bimodal(n), x(n), y_linear(n), y_monotone(n),
      y_quadratic(n);
  std::vector<std::string> heavy_hitters(n), uniform_cat(n), segments(n);
  for (size_t i = 0; i < n; ++i) {
    tight[i] = rng.Normal(100.0, 0.5);
    wide[i] = rng.Normal(100.0, 40.0);
    right_skewed[i] = rng.LogNormal(0.0, 0.9);
    heavy[i] = rng.Normal() * (rng.UniformDouble() < 0.03 ? 12.0 : 1.0);
    with_outliers[i] = rng.Normal();
    bimodal[i] = rng.UniformDouble() < 0.5 ? rng.Normal(-5.0, 1.0)
                                           : rng.Normal(5.0, 1.0);
    x[i] = rng.Normal();
    y_linear[i] = 0.9 * x[i] + std::sqrt(1 - 0.81) * rng.Normal();
    y_monotone[i] = std::exp(x[i]) + 0.01 * rng.Normal();
    y_quadratic[i] = x[i] * x[i] + 0.05 * rng.Normal();
    heavy_hitters[i] = "hh_" + std::to_string(rng.Zipf(50, 1.6));
    uniform_cat[i] = "u_" + std::to_string(rng.UniformInt(50));
  }
  for (size_t i = 0; i < 20; ++i) with_outliers[i * 100] = 14.0;

  // Segmentation: the categorical splits (seg_x, seg_y) into 2 clean blobs.
  std::vector<double> seg_x(n), seg_y(n);
  for (size_t i = 0; i < n; ++i) {
    bool left = rng.UniformDouble() < 0.5;
    segments[i] = left ? "L" : "R";
    double c = left ? -6.0 : 6.0;
    seg_x[i] = c + rng.Normal();
    seg_y[i] = c + rng.Normal();
  }

  // A column with 25% nulls.
  NumericColumn sparse;
  for (size_t i = 0; i < n; ++i) {
    if (i % 4 == 0) {
      sparse.AppendNull();
    } else {
      sparse.Append(rng.Normal());
    }
  }

  EXPECT_TRUE(table.AddNumericColumn("tight", tight).ok());
  EXPECT_TRUE(table.AddNumericColumn("wide", wide).ok());
  EXPECT_TRUE(table.AddNumericColumn("right_skewed", right_skewed).ok());
  EXPECT_TRUE(table.AddNumericColumn("heavy", heavy).ok());
  EXPECT_TRUE(table.AddNumericColumn("with_outliers", with_outliers).ok());
  EXPECT_TRUE(table.AddNumericColumn("bimodal", bimodal).ok());
  EXPECT_TRUE(table.AddNumericColumn("x", x).ok());
  EXPECT_TRUE(table.AddNumericColumn("y_linear", y_linear).ok());
  EXPECT_TRUE(table.AddNumericColumn("y_monotone", y_monotone).ok());
  EXPECT_TRUE(table.AddNumericColumn("y_quadratic", y_quadratic).ok());
  EXPECT_TRUE(table.AddNumericColumn("seg_x", seg_x).ok());
  EXPECT_TRUE(table.AddNumericColumn("seg_y", seg_y).ok());
  EXPECT_TRUE(
      table.AddColumn("sparse", std::make_unique<NumericColumn>(std::move(sparse)))
          .ok());
  EXPECT_TRUE(table.AddCategoricalColumn("heavy_hitters", heavy_hitters).ok());
  EXPECT_TRUE(table.AddCategoricalColumn("uniform_cat", uniform_cat).ok());
  EXPECT_TRUE(table.AddCategoricalColumn("segments", segments).ok());
  return table;
}

class InsightClassTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new DataTable(CraftedTable());
    PreprocessOptions options;
    options.sketch.hyperplane_bits = 512;
    auto profile = Preprocessor::Profile(*table_, options);
    ASSERT_TRUE(profile.ok());
    profile_ = new TableProfile(std::move(*profile));
  }
  static void TearDownTestSuite() {
    delete profile_;
    delete table_;
    profile_ = nullptr;
    table_ = nullptr;
  }

  static size_t Col(const std::string& name) {
    return *table_->ColumnIndex(name);
  }
  static double Exact(const InsightClass& c, std::vector<size_t> cols,
                      const std::string& metric = "") {
    std::string m = metric.empty() ? c.metric_names().front() : metric;
    auto result = c.EvaluateExact(*table_, AttributeTuple{std::move(cols)}, m);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? *result : 0.0;
  }
  static double Sketchy(const InsightClass& c, std::vector<size_t> cols,
                        const std::string& metric = "") {
    std::string m = metric.empty() ? c.metric_names().front() : metric;
    auto result =
        c.EvaluateSketch(*profile_, AttributeTuple{std::move(cols)}, m);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? *result : 0.0;
  }

  static DataTable* table_;
  static TableProfile* profile_;
};

DataTable* InsightClassTest::table_ = nullptr;
TableProfile* InsightClassTest::profile_ = nullptr;

TEST_F(InsightClassTest, DispersionRanksWideOverTight) {
  auto c = MakeDispersionClass();
  EXPECT_GT(Exact(*c, {Col("wide")}), Exact(*c, {Col("tight")}));
  EXPECT_NEAR(Exact(*c, {Col("wide")}, "variance"), 1600.0, 120.0);
  // Sketch path equals exact (moments are exact single-pass).
  EXPECT_NEAR(Sketchy(*c, {Col("wide")}), Exact(*c, {Col("wide")}), 1e-6);
  // cv metric is scale-free: tight (sigma 0.5 / mean 100) tiny.
  EXPECT_LT(Exact(*c, {Col("tight")}, "cv"), 0.01);
}

TEST_F(InsightClassTest, DispersionEnumeratesNumericColumnsOnly) {
  auto c = MakeDispersionClass();
  auto candidates = c->EnumerateCandidates(*table_);
  EXPECT_EQ(candidates.size(), table_->NumericColumnIndices().size());
}

TEST_F(InsightClassTest, SkewDetectsLognormal) {
  auto c = MakeSkewClass();
  EXPECT_GT(Exact(*c, {Col("right_skewed")}), 2.0);
  EXPECT_LT(std::abs(Exact(*c, {Col("wide")})), 0.2);
  EXPECT_NEAR(Sketchy(*c, {Col("right_skewed")}),
              Exact(*c, {Col("right_skewed")}), 1e-9);
}

TEST_F(InsightClassTest, HeavyTailsDetectsContamination) {
  auto c = MakeHeavyTailsClass();
  EXPECT_GT(Exact(*c, {Col("heavy")}), 10.0);
  EXPECT_NEAR(Exact(*c, {Col("wide")}), 3.0, 0.4);
  // excess_kurtosis = kurtosis - 3.
  EXPECT_NEAR(Exact(*c, {Col("heavy")}, "excess_kurtosis"),
              Exact(*c, {Col("heavy")}, "kurtosis") - 3.0, 1e-9);
}

TEST_F(InsightClassTest, OutliersScoreHighOnPlantedColumn) {
  auto c = MakeOutliersClass("iqr");
  double planted = Exact(*c, {Col("with_outliers")});
  EXPECT_GT(planted, 5.0);
  // Sketch estimate in the same ballpark.
  EXPECT_NEAR(Sketchy(*c, {Col("with_outliers")}), planted, planted * 0.5);
  // Different detectors plug in (§2.2 user-configurable).
  auto zscore = MakeOutliersClass("zscore");
  EXPECT_GT(Exact(*zscore, {Col("with_outliers")}), 5.0);
}

TEST_F(InsightClassTest, HeterogeneousFrequenciesZipfVsUniform) {
  auto c = MakeHeterogeneousFrequenciesClass(5);
  double zipf = Exact(*c, {Col("heavy_hitters")});
  double uniform = Exact(*c, {Col("uniform_cat")});
  EXPECT_GT(zipf, 0.7);
  EXPECT_LT(uniform, 0.25);
  EXPECT_NEAR(Sketchy(*c, {Col("heavy_hitters")}), zipf, 0.05);
}

TEST_F(InsightClassTest, HeterogeneousFrequenciesTrivialCardinalityIsZero) {
  DataTable tiny;
  ASSERT_TRUE(tiny.AddCategoricalColumn("c", {"a", "b", "a", "b"}).ok());
  auto c = MakeHeterogeneousFrequenciesClass(5);
  auto result = c->EvaluateExact(tiny, AttributeTuple{{0}}, "relfreq");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(*result, 0.0);  // cardinality 2 <= k: not an insight.
}

TEST_F(InsightClassTest, LinearRelationshipExactAndSketch) {
  auto c = MakeLinearRelationshipClass();
  double rho = Exact(*c, {Col("x"), Col("y_linear")});
  EXPECT_NEAR(rho, 0.9, 0.03);
  EXPECT_NEAR(Sketchy(*c, {Col("x"), Col("y_linear")}), rho, 0.12);
  EXPECT_NEAR(Sketchy(*c, {Col("x"), Col("y_linear")}, "pearson_projection"),
              rho, 0.12);
  // Quadratic dependence is invisible to Pearson.
  EXPECT_LT(std::abs(Exact(*c, {Col("x"), Col("y_quadratic")})), 0.1);
}

TEST_F(InsightClassTest, LinearRelationshipEnumeratesPairs) {
  auto c = MakeLinearRelationshipClass();
  size_t d = table_->NumericColumnIndices().size();
  EXPECT_EQ(c->EnumerateCandidates(*table_).size(), d * (d - 1) / 2);
}

TEST_F(InsightClassTest, MonotonicRelationshipBeatsPearsonOnExp) {
  auto c = MakeMonotonicRelationshipClass();
  double spearman = Exact(*c, {Col("x"), Col("y_monotone")});
  EXPECT_GT(spearman, 0.99);
  double kendall = Exact(*c, {Col("x"), Col("y_monotone")}, "kendall");
  EXPECT_GT(kendall, 0.95);
  EXPECT_GT(Sketchy(*c, {Col("x"), Col("y_monotone")}), 0.95);
}

TEST_F(InsightClassTest, MultimodalityFindsBimodal) {
  auto c = MakeMultimodalityClass();
  EXPECT_GT(Exact(*c, {Col("bimodal")}), 0.3);
  EXPECT_LT(Exact(*c, {Col("wide")}), 0.1);
  EXPECT_GT(Sketchy(*c, {Col("bimodal")}), 0.2);
  EXPECT_GT(Exact(*c, {Col("bimodal")}, "bimodality_coefficient"), 5.0 / 9.0);
}

TEST_F(InsightClassTest, GeneralDependenceSeesQuadratic) {
  auto c = MakeGeneralDependenceClass();
  double quad = Exact(*c, {Col("x"), Col("y_quadratic")});
  double indep = Exact(*c, {Col("x"), Col("wide")});
  EXPECT_GT(quad, 0.3);
  EXPECT_LT(indep, 0.1);
  EXPECT_GT(Sketchy(*c, {Col("x"), Col("y_quadratic")}), 0.15);
}

TEST_F(InsightClassTest, SegmentationFindsPlantedGroups) {
  auto c = MakeSegmentationClass();
  double planted =
      Exact(*c, {Col("seg_x"), Col("seg_y"), Col("segments")});
  EXPECT_GT(planted, 0.8);
  double unrelated = Exact(*c, {Col("x"), Col("wide"), Col("segments")});
  EXPECT_LT(unrelated, 0.05);
  EXPECT_GT(Sketchy(*c, {Col("seg_x"), Col("seg_y"), Col("segments")}), 0.7);
  // Secondary metric agrees on ordering.
  EXPECT_GT(Exact(*c, {Col("seg_x"), Col("seg_y"), Col("segments")},
                  "calinski_harabasz"),
            Exact(*c, {Col("x"), Col("wide"), Col("segments")},
                  "calinski_harabasz"));
}

TEST_F(InsightClassTest, SegmentationSkipsHighCardinalityCategoricals) {
  auto c = MakeSegmentationClass(/*max_group_cardinality=*/16);
  auto candidates = c->EnumerateCandidates(*table_);
  // heavy_hitters (50 values) and uniform_cat (50) are skipped; only
  // "segments" (2 values) qualifies.
  size_t d = table_->NumericColumnIndices().size();
  EXPECT_EQ(candidates.size(), d * (d - 1) / 2);
  for (const auto& tuple : candidates) {
    EXPECT_EQ(tuple.indices[2], Col("segments"));
  }
}

TEST_F(InsightClassTest, LowEntropyZipfVsUniform) {
  auto c = MakeLowEntropyClass();
  double zipf = Exact(*c, {Col("heavy_hitters")});
  double uniform = Exact(*c, {Col("uniform_cat")});
  EXPECT_GT(zipf, uniform);
  EXPECT_LT(uniform, 0.05);
  EXPECT_NEAR(Sketchy(*c, {Col("heavy_hitters")}), zipf, 0.12);
}

TEST_F(InsightClassTest, MissingValuesFraction) {
  auto c = MakeMissingValuesClass();
  EXPECT_NEAR(Exact(*c, {Col("sparse")}), 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(Exact(*c, {Col("wide")}), 0.0);
  // Applies to every column (numeric and categorical).
  EXPECT_EQ(c->EnumerateCandidates(*table_).size(), table_->num_columns());
}

TEST_F(InsightClassTest, TypeAndArityValidation) {
  auto linear = MakeLinearRelationshipClass();
  EXPECT_FALSE(
      linear->EvaluateExact(*table_, AttributeTuple{{Col("x")}}, "pearson").ok());
  EXPECT_FALSE(linear
                   ->EvaluateExact(*table_,
                                   AttributeTuple{{Col("x"), Col("segments")}},
                                   "pearson")
                   .ok());
  EXPECT_FALSE(
      linear
          ->EvaluateExact(*table_, AttributeTuple{{Col("x"), Col("y_linear")}},
                          "not_a_metric")
          .ok());
  auto freq = MakeHeterogeneousFrequenciesClass();
  EXPECT_FALSE(
      freq->EvaluateExact(*table_, AttributeTuple{{Col("x")}}, "relfreq").ok());
  auto seg = MakeSegmentationClass();
  EXPECT_FALSE(seg->EvaluateExact(
                      *table_,
                      AttributeTuple{{Col("x"), Col("y_linear"), Col("wide")}},
                      "variance_explained")
                   .ok());
}

TEST_F(InsightClassTest, AllTwelveClassesRegistered) {
  InsightClassRegistry registry = InsightClassRegistry::CreateDefault();
  EXPECT_EQ(registry.size(), 12u);  // Figure 1: 12 insight classes.
  for (const std::string& name : registry.names()) {
    const InsightClass* c = registry.Find(name);
    ASSERT_NE(c, nullptr);
    EXPECT_FALSE(c->display_name().empty());
    EXPECT_GE(c->arity(), 1u);
    EXPECT_LE(c->arity(), 3u);
    EXPECT_FALSE(c->metric_names().empty());
  }
  EXPECT_EQ(registry.Find("no_such_class"), nullptr);
}

TEST_F(InsightClassTest, RegistryRejectsDuplicates) {
  InsightClassRegistry registry;
  ASSERT_TRUE(registry.Register(MakeSkewClass()).ok());
  EXPECT_EQ(registry.Register(MakeSkewClass()).code(),
            StatusCode::kAlreadyExists);
}

/// `rows` rows of three numeric columns with nulls: a bimodal one, a normal
/// one, and one with planted outliers.
DataTable SampledTable(size_t rows) {
  Rng rng(7);
  NumericColumn bimodal, normal, spiky;
  for (size_t i = 0; i < rows; ++i) {
    if (i % 11 == 3) {
      bimodal.AppendNull();
    } else {
      bimodal.Append(rng.UniformDouble() < 0.4 ? rng.Normal(-4.0, 1.0)
                                               : rng.Normal(3.0, 1.5));
    }
    if (i % 5 == 0) {
      normal.AppendNull();
    } else {
      normal.Append(rng.Normal(10.0, 2.0));
    }
    if (i % 7 == 1) {
      spiky.AppendNull();
    } else {
      spiky.Append(i % 97 == 0 ? 25.0 + rng.Normal() : rng.Normal());
    }
  }
  DataTable table;
  auto add = [&table](const char* name, NumericColumn& column) {
    EXPECT_TRUE(table
                    .AddColumn(name, std::make_unique<NumericColumn>(
                                         std::move(column)))
                    .ok());
  };
  add("bimodal", bimodal);
  add("normal", normal);
  add("spiky", spiky);
  return table;
}

TEST(SampledUnivariateTest, MultimodalitySketchIsExactWhenTheSampleIsEveryRow) {
  // The default 2048-row sample covers all 2000 rows, so the sketch path's
  // non-null sample values are the exact path's valid values, in row order.
  const DataTable table = SampledTable(2000);
  auto profile = Preprocessor::Profile(table);
  ASSERT_TRUE(profile.ok()) << profile.status();
  ASSERT_EQ(profile->sampled_rows().size(), table.num_rows());
  auto c = MakeMultimodalityClass();
  for (size_t col : table.NumericColumnIndices()) {
    SCOPED_TRACE(table.column_name(col));
    ASSERT_GT(table.column(col).null_count(), 0u);
    const AttributeTuple tuple{{col}};
    auto exact = c->EvaluateExact(table, tuple, "kde_modality");
    auto sketch = c->EvaluateSketch(*profile, tuple, "kde_modality");
    ASSERT_TRUE(exact.ok()) << exact.status();
    ASSERT_TRUE(sketch.ok()) << sketch.status();
    EXPECT_EQ(*sketch, *exact);
  }
}

TEST(SampledUnivariateTest, OutliersSketchAppliesKllFencesToTheRowSample) {
  // 6000 rows subsample to 2048, some of them null slots (NaN).
  const DataTable table = SampledTable(6000);
  auto profile = Preprocessor::Profile(table);
  ASSERT_TRUE(profile.ok()) << profile.status();
  const size_t col = *table.ColumnIndex("spiky");
  const std::vector<double>& sampled = profile->sampled_numeric(col);
  ASSERT_LT(sampled.size(), table.num_rows());
  ASSERT_TRUE(std::any_of(sampled.begin(), sampled.end(),
                          [](double v) { return std::isnan(v); }));

  // Tukey fences from the column's KLL sketch over the non-null sample
  // values, distances standardized by the exact moments.
  const NumericColumnSketch& sketch = profile->numeric_sketch(col);
  const double q1 = sketch.quantiles.Quantile(0.25);
  const double q3 = sketch.quantiles.Quantile(0.75);
  const double iqr = q3 - q1;
  const double lo = q1 - 1.5 * iqr;
  const double hi = q3 + 1.5 * iqr;
  const double mean = sketch.moments.mean();
  const double sigma = sketch.moments.stddev();
  double total = 0.0;
  size_t count = 0;
  for (double v : sampled) {
    if (std::isnan(v) || (v >= lo && v <= hi)) continue;
    total += std::abs(v - mean) / sigma;
    ++count;
  }
  ASSERT_GT(count, 0u);

  auto c = MakeOutliersClass("iqr");
  auto result = c->EvaluateSketch(*profile, AttributeTuple{{col}},
                                  "mean_standardized_distance");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, total / static_cast<double>(count));
}

}  // namespace
}  // namespace foresight
