// The six univariate numeric insight classes: Dispersion, Skew, Heavy Tails,
// Outliers (§2.2 insights 1-4), Multimodality (§2.2 "additional insights"),
// and Missing Values.

#include <cmath>
#include <memory>

#include "core/classes_common.h"
#include "core/insight_classes.h"
#include "stats/moments.h"
#include "stats/multimodality.h"
#include "stats/outliers.h"
#include "stats/quantiles.h"
#include "util/string_util.h"

namespace foresight {

namespace {

using internal_classes::ExpectMetric;
using internal_classes::ExpectNumeric;
using internal_classes::SampledValues;
using internal_classes::UnaryCandidates;
using internal_classes::ValidValues;

/// Shared skeleton for single-numeric-column, moments-based classes.
/// Moments are maintained exactly and single-pass in the sketch bundle (§3:
/// "skewness and kurtosis can both be computed ... by maintaining and
/// combining a few running sums"), so the sketch path reads the profile's
/// RunningMoments and never touches raw data.
class MomentsBasedClass : public InsightClass {
 public:
  size_t arity() const override { return 1; }

  std::vector<AttributeTuple> EnumerateCandidates(
      const DataTable& table) const override {
    return UnaryCandidates(table, ColumnType::kNumeric);
  }

  StatusOr<double> EvaluateExact(const DataTable& table,
                                 const AttributeTuple& tuple,
                                 const std::string& metric) const override {
    FORESIGHT_RETURN_IF_ERROR(ExpectNumeric(table, tuple, 1));
    FORESIGHT_RETURN_IF_ERROR(ExpectMetric(metric, metric_names()));
    RunningMoments moments = MomentsOf(ValidValues(table, tuple.indices[0]));
    return FromMoments(moments, metric);
  }

  StatusOr<double> EvaluateSketch(const TableProfile& profile,
                                  const AttributeTuple& tuple,
                                  const std::string& metric) const override {
    FORESIGHT_RETURN_IF_ERROR(ExpectNumeric(profile.table(), tuple, 1));
    FORESIGHT_RETURN_IF_ERROR(ExpectMetric(metric, metric_names()));
    return FromMoments(profile.numeric_sketch(tuple.indices[0]).moments,
                       metric);
  }

  bool SupportsSketch() const override { return true; }
  VisualizationKind visualization() const override {
    return VisualizationKind::kHistogram;
  }

 protected:
  virtual StatusOr<double> FromMoments(const RunningMoments& moments,
                                       const std::string& metric) const = 0;
};

/// 1. Dispersion: very high or low dispersion around the mean, measured by
/// the variance (default) or the scale-free coefficient of variation.
class DispersionClass final : public MomentsBasedClass {
 public:
  std::string name() const override { return "dispersion"; }
  std::string display_name() const override { return "Dispersion"; }
  std::vector<std::string> metric_names() const override {
    return {"variance", "cv", "stddev"};
  }

  std::string Describe(const Insight& insight) const override {
    return "Dispersion of " + insight.attribute_names[0] + ": " +
           insight.metric_name + " = " + FormatDouble(insight.raw_value, 4);
  }

 protected:
  StatusOr<double> FromMoments(const RunningMoments& moments,
                               const std::string& metric) const override {
    if (metric == "variance") return moments.variance();
    if (metric == "stddev") return moments.stddev();
    double cv = moments.coefficient_of_variation();
    return std::isinf(cv) ? 1e300 : cv;
  }
};

/// 2. Skew: asymmetry, measured by the standardized skewness coefficient.
class SkewClass final : public MomentsBasedClass {
 public:
  std::string name() const override { return "skew"; }
  std::string display_name() const override { return "Skew"; }
  std::vector<std::string> metric_names() const override {
    return {"skewness"};
  }

  std::string Describe(const Insight& insight) const override {
    const char* direction = insight.raw_value < 0 ? "left" : "right";
    return insight.attribute_names[0] + " is " + direction + "-skewed (gamma1 = " +
           FormatDouble(insight.raw_value, 3) + ")";
  }

 protected:
  StatusOr<double> FromMoments(const RunningMoments& moments,
                               const std::string& metric) const override {
    (void)metric;
    return moments.skewness();
  }
};

/// 3. Heavy Tails: propensity toward extreme values, measured by kurtosis.
class HeavyTailsClass final : public MomentsBasedClass {
 public:
  std::string name() const override { return "heavy_tails"; }
  std::string display_name() const override { return "Heavy Tails"; }
  std::vector<std::string> metric_names() const override {
    return {"kurtosis", "excess_kurtosis"};
  }

  std::string Describe(const Insight& insight) const override {
    return insight.attribute_names[0] + " has heavy tails (kurtosis = " +
           FormatDouble(insight.raw_value, 3) + ")";
  }

 protected:
  StatusOr<double> FromMoments(const RunningMoments& moments,
                               const std::string& metric) const override {
    if (metric == "excess_kurtosis") return moments.excess_kurtosis();
    return moments.kurtosis();
  }
};

/// 4. Outliers: presence and significance of extreme outliers; metric is the
/// average standardized distance of the detected outliers from the mean.
/// The detection algorithm is user-configurable ("zscore", "iqr", "mad").
class OutliersClass final : public InsightClass {
 public:
  explicit OutliersClass(const std::string& detector_name)
      : detector_(MakeOutlierDetector(detector_name)) {
    FORESIGHT_CHECK_MSG(detector_ != nullptr, "unknown outlier detector");
  }

  std::string name() const override { return "outliers"; }
  std::string display_name() const override { return "Outliers"; }
  size_t arity() const override { return 1; }
  std::vector<std::string> metric_names() const override {
    return {"mean_standardized_distance"};
  }

  std::vector<AttributeTuple> EnumerateCandidates(
      const DataTable& table) const override {
    return UnaryCandidates(table, ColumnType::kNumeric);
  }

  StatusOr<double> EvaluateExact(const DataTable& table,
                                 const AttributeTuple& tuple,
                                 const std::string& metric) const override {
    FORESIGHT_RETURN_IF_ERROR(ExpectNumeric(table, tuple, 1));
    FORESIGHT_RETURN_IF_ERROR(ExpectMetric(metric, metric_names()));
    OutlierResult result = detector_->Detect(ValidValues(table, tuple.indices[0]));
    return result.mean_standardized_distance;
  }

  /// Sketch path: Tukey fences from the KLL quantile sketch, applied to the
  /// shared row sample, with distances standardized by the exact moments.
  /// A null slot (NaN) fails both fence comparisons, so it never counts.
  StatusOr<double> EvaluateSketch(const TableProfile& profile,
                                  const AttributeTuple& tuple,
                                  const std::string& metric) const override {
    FORESIGHT_RETURN_IF_ERROR(ExpectNumeric(profile.table(), tuple, 1));
    FORESIGHT_RETURN_IF_ERROR(ExpectMetric(metric, metric_names()));
    const NumericColumnSketch& sketch = profile.numeric_sketch(tuple.indices[0]);
    if (sketch.quantiles.empty()) return 0.0;
    double q1 = sketch.quantile_view.Quantile(0.25);
    double q3 = sketch.quantile_view.Quantile(0.75);
    double iqr = q3 - q1;
    if (iqr <= 0.0) return 0.0;
    double lo = q1 - 1.5 * iqr;
    double hi = q3 + 1.5 * iqr;
    double sigma = sketch.moments.stddev();
    if (sigma <= 0.0) return 0.0;
    double mean = sketch.moments.mean();
    double total = 0.0;
    size_t count = 0;
    for (double v : profile.sampled_numeric(tuple.indices[0])) {
      if (v < lo || v > hi) {
        total += std::abs(v - mean) / sigma;
        ++count;
      }
    }
    return count == 0 ? 0.0 : total / static_cast<double>(count);
  }

  bool SupportsSketch() const override { return true; }
  VisualizationKind visualization() const override {
    return VisualizationKind::kBoxPlot;
  }

  std::string Describe(const Insight& insight) const override {
    return insight.attribute_names[0] +
           " has extreme outliers (mean standardized distance = " +
           FormatDouble(insight.raw_value, 3) + ", detector = " +
           detector_->name() + ")";
  }

 private:
  std::unique_ptr<OutlierDetector> detector_;
};

/// 8. Multimodality: KDE-based modality score (default) or Sarle's
/// bimodality coefficient. Sketch path evaluates over the shared row sample.
class MultimodalityClass final : public InsightClass {
 public:
  std::string name() const override { return "multimodality"; }
  std::string display_name() const override { return "Multimodality"; }
  size_t arity() const override { return 1; }
  std::vector<std::string> metric_names() const override {
    return {"kde_modality", "bimodality_coefficient"};
  }

  std::vector<AttributeTuple> EnumerateCandidates(
      const DataTable& table) const override {
    return UnaryCandidates(table, ColumnType::kNumeric);
  }

  StatusOr<double> EvaluateExact(const DataTable& table,
                                 const AttributeTuple& tuple,
                                 const std::string& metric) const override {
    FORESIGHT_RETURN_IF_ERROR(ExpectNumeric(table, tuple, 1));
    FORESIGHT_RETURN_IF_ERROR(ExpectMetric(metric, metric_names()));
    std::vector<double> values = ValidValues(table, tuple.indices[0]);
    if (metric == "bimodality_coefficient") {
      return BimodalityCoefficient(values);
    }
    return MultimodalityScore(values);
  }

  StatusOr<double> EvaluateSketch(const TableProfile& profile,
                                  const AttributeTuple& tuple,
                                  const std::string& metric) const override {
    FORESIGHT_RETURN_IF_ERROR(ExpectNumeric(profile.table(), tuple, 1));
    FORESIGHT_RETURN_IF_ERROR(ExpectMetric(metric, metric_names()));
    const NumericColumnSketch& sketch = profile.numeric_sketch(tuple.indices[0]);
    if (metric == "bimodality_coefficient") {
      const RunningMoments& m = sketch.moments;
      double kurt = m.kurtosis();
      // NaN kurtosis (constant column) compares false and returns 0.0, same
      // as the exact-path BimodalityCoefficient: not bimodal.
      if (!(kurt > 0.0)) return 0.0;
      return (m.skewness() * m.skewness() + 1.0) / kurt;
    }
    return MultimodalityScore(SampledValues(profile, tuple.indices[0]));
  }

  bool SupportsSketch() const override { return true; }
  VisualizationKind visualization() const override {
    return VisualizationKind::kDensity;
  }

  std::string Describe(const Insight& insight) const override {
    return insight.attribute_names[0] + " looks multimodal (" +
           insight.metric_name + " = " + FormatDouble(insight.raw_value, 3) +
           ")";
  }
};

/// 12. Missing Values: fraction of null rows, over every column type.
class MissingValuesClass final : public InsightClass {
 public:
  std::string name() const override { return "missing_values"; }
  std::string display_name() const override { return "Missing Values"; }
  size_t arity() const override { return 1; }
  std::vector<std::string> metric_names() const override {
    return {"null_fraction"};
  }

  std::vector<AttributeTuple> EnumerateCandidates(
      const DataTable& table) const override {
    std::vector<AttributeTuple> tuples;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      tuples.push_back(AttributeTuple{{c}});
    }
    return tuples;
  }

  StatusOr<double> EvaluateExact(const DataTable& table,
                                 const AttributeTuple& tuple,
                                 const std::string& metric) const override {
    FORESIGHT_RETURN_IF_ERROR(ExpectMetric(metric, metric_names()));
    if (tuple.arity() != 1 || tuple.indices[0] >= table.num_columns()) {
      return Status::InvalidArgument("missing_values expects one valid column");
    }
    const Column& column = table.column(tuple.indices[0]);
    if (column.size() == 0) return 0.0;
    return static_cast<double>(column.null_count()) /
           static_cast<double>(column.size());
  }

  /// Null counts are exact metadata on the column, so the sketch path is the
  /// exact path (and is O(1)).
  bool SupportsSketch() const override { return true; }
  VisualizationKind visualization() const override {
    return VisualizationKind::kBar;
  }

  std::string Describe(const Insight& insight) const override {
    return insight.attribute_names[0] + " is missing in " +
           FormatDouble(insight.raw_value * 100.0, 3) + "% of rows";
  }
};

}  // namespace

std::unique_ptr<InsightClass> MakeDispersionClass() {
  return std::make_unique<DispersionClass>();
}
std::unique_ptr<InsightClass> MakeSkewClass() {
  return std::make_unique<SkewClass>();
}
std::unique_ptr<InsightClass> MakeHeavyTailsClass() {
  return std::make_unique<HeavyTailsClass>();
}
std::unique_ptr<InsightClass> MakeOutliersClass(
    const std::string& detector_name) {
  return std::make_unique<OutliersClass>(detector_name);
}
std::unique_ptr<InsightClass> MakeMultimodalityClass() {
  return std::make_unique<MultimodalityClass>();
}
std::unique_ptr<InsightClass> MakeMissingValuesClass() {
  return std::make_unique<MissingValuesClass>();
}

}  // namespace foresight
