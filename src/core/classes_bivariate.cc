// Two-attribute insight classes: Linear Relationship (§2.2, insight 6),
// Monotonic Relationship (Spearman/Kendall), and General Dependence.

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/classes_common.h"
#include "core/insight_classes.h"
#include "sketch/random_projection.h"
#include "sketch/simhash.h"
#include "stats/correlation.h"
#include "stats/dependence.h"
#include "util/string_util.h"

namespace foresight {

namespace {

using internal_classes::ExpectMetric;
using internal_classes::ExpectNumeric;
using internal_classes::NumericPairCandidates;
using internal_classes::SampledPair;
using internal_classes::SampledPairs;

/// 6. Linear Relationship: |Pearson rho| between two numeric columns.
/// Sketch metrics:
///   "pearson"            exact two-pass rho (default in exact mode);
///   in sketch mode the same metric is served by the random hyperplane
///   signature estimator cos(pi * H / k) — the paper's §3 worked example —
///   making all-pairs ranking O(|B|^2 k) instead of O(|B|^2 n).
///   "pearson_projection" JL-projection estimator (secondary).
class LinearRelationshipClass final : public InsightClass {
 public:
  std::string name() const override { return "linear_relationship"; }
  std::string display_name() const override { return "Linear Relationship"; }
  size_t arity() const override { return 2; }
  std::vector<std::string> metric_names() const override {
    return {"pearson", "pearson_projection"};
  }

  std::vector<AttributeTuple> EnumerateCandidates(
      const DataTable& table) const override {
    return NumericPairCandidates(table);
  }

  StatusOr<double> EvaluateExact(const DataTable& table,
                                 const AttributeTuple& tuple,
                                 const std::string& metric) const override {
    FORESIGHT_RETURN_IF_ERROR(ExpectNumeric(table, tuple, 2));
    FORESIGHT_RETURN_IF_ERROR(ExpectMetric(metric, metric_names()));
    // Blocked SIMD two-pass Pearson; no compaction copy when both columns
    // are null-free. This is also the refine kernel of the sketch-first
    // prune pipeline — pruned and exhaustive paths share it, so their exact
    // values are bit-identical by construction.
    return PearsonPairedBlocked(table.column(tuple.indices[0]).AsNumeric(),
                                table.column(tuple.indices[1]).AsNumeric());
  }

  StatusOr<double> EvaluateSketch(const TableProfile& profile,
                                  const AttributeTuple& tuple,
                                  const std::string& metric) const override {
    FORESIGHT_RETURN_IF_ERROR(ExpectNumeric(profile.table(), tuple, 2));
    FORESIGHT_RETURN_IF_ERROR(ExpectMetric(metric, metric_names()));
    const NumericColumnSketch& a = profile.numeric_sketch(tuple.indices[0]);
    const NumericColumnSketch& b = profile.numeric_sketch(tuple.indices[1]);
    if (metric == "pearson_projection") {
      // Every profile's sketches are finalized (after a build, an append and
      // a load), so the centered projection is always cached.
      return ProjectionSketch::EstimateCorrelation(a.centered_projection,
                                                   b.centered_projection);
    }
    return HyperplaneSketcher::EstimateCorrelation(a.signature, b.signature);
  }

  bool SupportsSketch() const override { return true; }

  bool SupportsSketchPruning(const TableProfile& profile,
                             const std::string& metric) const override {
    (void)profile;
    // Only the signature-backed default metric has an error-bounded
    // estimator; "pearson_projection" has no distribution-free deviation
    // bound, so pruning stays off there.
    return metric == "pearson";
  }

  void EstimateScoreBounds(const TableProfile& profile,
                           const std::vector<AttributeTuple>& tuples,
                           std::span<const size_t> positions,
                           const std::string& metric, double delta,
                           std::vector<SketchScoreBound>& bounds) const override {
    bounds.assign(positions.size(), SketchScoreBound{});
    if (metric != "pearson") return;
    const DataTable& table = profile.table();

    // Per-column pruning safety, resolved once per batch: the signature
    // estimator targets the cosine of the CENTERED full columns, which equals
    // the exact pairwise-deletion Pearson only when both columns are
    // null-free (deletion drops nothing) and non-constant (the exact metric
    // returns the 0.0 sentinel for constant sides, outside any cosine
    // bound). Unsafe tuples are never pruned — the planner refines them.
    std::vector<int8_t> column_safe(table.num_columns(), -1);
    auto is_safe_column = [&](size_t c) -> bool {
      if (column_safe[c] < 0) {
        bool safe = profile.has_numeric_sketch(c);
        if (safe) {
          const NumericColumn& column = table.column(c).AsNumeric();
          const NumericColumnSketch& sketch = profile.numeric_sketch(c);
          safe = column.null_count() == 0 && column.size() >= 2 &&
                 sketch.moments.variance() > 0.0 &&
                 sketch.signature.num_bits() > 0;
        }
        column_safe[c] = safe ? 1 : 0;
      }
      return column_safe[c] == 1;
    };

    for (size_t t = 0; t < positions.size(); ++t) {
      const AttributeTuple& tuple = tuples[positions[t]];
      // Malformed tuple or missing sketch: leave the unsafe default.
      if (tuple.indices.size() != 2) continue;
      const size_t a = tuple.indices[0];
      const size_t b = tuple.indices[1];
      if (!profile.has_numeric_sketch(a) || !profile.has_numeric_sketch(b)) {
        continue;
      }
      const BitSignature& sig_a = profile.numeric_sketch(a).signature;
      const BitSignature& sig_b = profile.numeric_sketch(b).signature;
      const uint64_t h = BitSignature::HammingDistance(sig_a, sig_b);
      const size_t bits = sig_a.num_bits();
      SketchScoreBound& bound = bounds[t];
      bound.estimate =
          HyperplaneSketcher::EstimateCorrelationFromHamming(h, bits);
      bound.safe = a != b && is_safe_column(a) && is_safe_column(b);
      // Contract (insight_class.h): unsafe bounds stay vacuous [0, 1].
      // A constant column's all-set signature can agree perfectly with
      // another's while the exact Pearson is the 0.0 sentinel — a
      // sketch-derived score_lo here would poison the planner's top-k
      // threshold.
      if (!bound.safe) continue;
      double rho_lo = 0.0, rho_hi = 0.0;
      HyperplaneSketcher::EstimateCorrelationInterval(h, bits, delta, &rho_lo,
                                                      &rho_hi);
      // Score = |rho|: the score interval is the image of [rho_lo, rho_hi]
      // under |.| — it contains 0 iff the rho interval straddles 0.
      bound.score_hi = std::max(std::abs(rho_lo), std::abs(rho_hi));
      bound.score_lo = (rho_lo <= 0.0 && rho_hi >= 0.0)
                           ? 0.0
                           : std::min(std::abs(rho_lo), std::abs(rho_hi));
    }
  }

  VisualizationKind visualization() const override {
    return VisualizationKind::kScatterWithFit;
  }
  bool has_overview() const override { return true; }

  std::string Describe(const Insight& insight) const override {
    const char* direction = insight.raw_value < 0 ? "negative" : "positive";
    return "Strong " + std::string(direction) + " linear relationship between " +
           insight.attribute_names[0] + " and " + insight.attribute_names[1] +
           " (rho = " + FormatDouble(insight.raw_value, 3) + ")";
  }
};

/// 7. Monotonic Relationship: |Spearman| (default) or |Kendall tau|; captures
/// nonlinear monotone association. Sketch path evaluates over the shared
/// row sample (row-aligned, so rank structure is preserved).
class MonotonicRelationshipClass final : public InsightClass {
 public:
  std::string name() const override { return "monotonic_relationship"; }
  std::string display_name() const override {
    return "Monotonic Relationship";
  }
  size_t arity() const override { return 2; }
  std::vector<std::string> metric_names() const override {
    return {"spearman", "kendall"};
  }

  std::vector<AttributeTuple> EnumerateCandidates(
      const DataTable& table) const override {
    return NumericPairCandidates(table);
  }

  StatusOr<double> EvaluateExact(const DataTable& table,
                                 const AttributeTuple& tuple,
                                 const std::string& metric) const override {
    FORESIGHT_RETURN_IF_ERROR(ExpectNumeric(table, tuple, 2));
    FORESIGHT_RETURN_IF_ERROR(ExpectMetric(metric, metric_names()));
    PairedValues pairs =
        ExtractPairedValid(table.column(tuple.indices[0]).AsNumeric(),
                           table.column(tuple.indices[1]).AsNumeric());
    if (metric == "kendall") return KendallTau(pairs.x, pairs.y);
    return SpearmanCorrelation(pairs.x, pairs.y);
  }

  StatusOr<double> EvaluateSketch(const TableProfile& profile,
                                  const AttributeTuple& tuple,
                                  const std::string& metric) const override {
    FORESIGHT_RETURN_IF_ERROR(ExpectNumeric(profile.table(), tuple, 2));
    FORESIGHT_RETURN_IF_ERROR(ExpectMetric(metric, metric_names()));
    if (metric == "kendall") {
      SampledPair pair =
          SampledPairs(profile, tuple.indices[0], tuple.indices[1]);
      return KendallTau(pair.x, pair.y);
    }
    // Spearman over the profile's precomputed per-column midranks: a plain
    // O(m) Pearson per pair, which keeps all-pairs ranking interactive. When
    // neither side has a null slot, each side's mean and sum of squares are
    // precomputed too and only the cross-product loop runs.
    const ColumnSample& a = profile.sample(tuple.indices[0]);
    const ColumnSample& b = profile.sample(tuple.indices[1]);
    if (a.dense && b.dense) {
      if (a.ranks.size() < 2) return 0.0;
      return PearsonFromSums(
          CenteredCrossProduct(a.ranks, a.rank_moments.mean, b.ranks,
                               b.rank_moments.mean),
          a.rank_moments.sum_squares, b.rank_moments.sum_squares);
    }
    const std::vector<double>& rx = a.ranks;
    const std::vector<double>& ry = b.ranks;
    std::vector<double> x, y;
    x.reserve(rx.size());
    y.reserve(ry.size());
    for (size_t i = 0; i < rx.size(); ++i) {
      if (!std::isnan(rx[i]) && !std::isnan(ry[i])) {
        x.push_back(rx[i]);
        y.push_back(ry[i]);
      }
    }
    return PearsonCorrelation(x, y);
  }

  bool SupportsSketch() const override { return true; }
  VisualizationKind visualization() const override {
    return VisualizationKind::kScatter;
  }
  bool has_overview() const override { return true; }

  std::string Describe(const Insight& insight) const override {
    const char* direction = insight.raw_value < 0 ? "decreasing" : "increasing";
    return "Monotonically " + std::string(direction) + " relationship between " +
           insight.attribute_names[0] + " and " + insight.attribute_names[1] +
           " (" + insight.metric_name + " = " +
           FormatDouble(insight.raw_value, 3) + ")";
  }
};

/// 9. General Dependence: normalized mutual information between two numeric
/// columns (binned). Captures non-monotone statistical dependence. Sketch
/// path evaluates over the shared row sample.
class GeneralDependenceClass final : public InsightClass {
 public:
  std::string name() const override { return "general_dependence"; }
  std::string display_name() const override { return "General Dependence"; }
  size_t arity() const override { return 2; }
  std::vector<std::string> metric_names() const override {
    return {"normalized_mutual_information"};
  }

  std::vector<AttributeTuple> EnumerateCandidates(
      const DataTable& table) const override {
    return NumericPairCandidates(table);
  }

  StatusOr<double> EvaluateExact(const DataTable& table,
                                 const AttributeTuple& tuple,
                                 const std::string& metric) const override {
    FORESIGHT_RETURN_IF_ERROR(ExpectNumeric(table, tuple, 2));
    FORESIGHT_RETURN_IF_ERROR(ExpectMetric(metric, metric_names()));
    PairedValues pairs =
        ExtractPairedValid(table.column(tuple.indices[0]).AsNumeric(),
                           table.column(tuple.indices[1]).AsNumeric());
    return NormalizedMutualInformation(pairs.x, pairs.y);
  }

  StatusOr<double> EvaluateSketch(const TableProfile& profile,
                                  const AttributeTuple& tuple,
                                  const std::string& metric) const override {
    FORESIGHT_RETURN_IF_ERROR(ExpectNumeric(profile.table(), tuple, 2));
    FORESIGHT_RETURN_IF_ERROR(ExpectMetric(metric, metric_names()));
    // Columns with no null slot were binned when the sample was built; a
    // pair with a null slot bins its pairwise-complete rows here.
    const ColumnSample& a = profile.sample(tuple.indices[0]);
    const ColumnSample& b = profile.sample(tuple.indices[1]);
    if (a.dense && b.dense) {
      return NormalizedMutualInformationFromBins(a.bins, b.bins);
    }
    SampledPair pair =
        SampledPairs(profile, tuple.indices[0], tuple.indices[1]);
    return NormalizedMutualInformation(pair.x, pair.y);
  }

  bool SupportsSketch() const override { return true; }
  VisualizationKind visualization() const override {
    return VisualizationKind::kScatter;
  }

  std::string Describe(const Insight& insight) const override {
    return "Statistical dependence between " + insight.attribute_names[0] +
           " and " + insight.attribute_names[1] + " (NMI = " +
           FormatDouble(insight.raw_value, 3) + ")";
  }
};

}  // namespace

std::unique_ptr<InsightClass> MakeLinearRelationshipClass() {
  return std::make_unique<LinearRelationshipClass>();
}
std::unique_ptr<InsightClass> MakeMonotonicRelationshipClass() {
  return std::make_unique<MonotonicRelationshipClass>();
}
std::unique_ptr<InsightClass> MakeGeneralDependenceClass() {
  return std::make_unique<GeneralDependenceClass>();
}

}  // namespace foresight
