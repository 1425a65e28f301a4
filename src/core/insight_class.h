#ifndef FORESIGHT_CORE_INSIGHT_CLASS_H_
#define FORESIGHT_CORE_INSIGHT_CLASS_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/insight.h"
#include "core/profile.h"
#include "data/table.h"
#include "util/status.h"

namespace foresight {

/// Error-bounded sketch estimate of one tuple's EXACT ranking score, produced
/// by InsightClass::EstimateScoreBounds for the sketch-first prune planner
/// (DESIGN.md "Sketch-first pruning"). Contract: when `safe` is true, the
/// exact score Score(EvaluateExact(tuple)) lies in [score_lo, score_hi] with
/// probability >= 1 - delta. `safe == false` means the class cannot bound
/// this tuple (nulls, constant columns, ...) and the planner must refine it
/// exactly; lo/hi are then the vacuous [0, +inf of the score scale].
struct SketchScoreBound {
  double estimate = 0.0;  ///< Point estimate of the raw metric value.
  double score_lo = 0.0;  ///< Lower confidence bound on the ranking score.
  double score_hi = 1.0;  ///< Upper confidence bound on the ranking score.
  bool safe = false;      ///< Bounds are trustworthy for pruning.
};

/// One insight class (§2.1-2.2): the set of attribute tuples compatible with
/// a distributional property, plus its ranking metric(s) and preferred
/// visualization. Foresight is extensible: data scientists "plug in" new
/// insight classes by implementing this interface and registering it.
///
/// Implementations are stateless; all evaluation inputs arrive as arguments.
class InsightClass {
 public:
  virtual ~InsightClass() = default;

  /// Stable registry key, e.g. "linear_relationship".
  virtual std::string name() const = 0;

  /// Human-readable name, e.g. "Linear Relationship".
  virtual std::string display_name() const = 0;

  /// Number of attributes per tuple (1-3).
  virtual size_t arity() const = 0;

  /// Supported ranking metrics; the first is the default (§2.1: each insight
  /// has one or more associated insight metrics).
  virtual std::vector<std::string> metric_names() const = 0;

  /// All attribute tuples of this class for `table` (§2.1: the insight class
  /// comprises all feature tuples compatible with the insight's metrics).
  virtual std::vector<AttributeTuple> EnumerateCandidates(
      const DataTable& table) const = 0;

  /// Exact metric value (signed / unscaled) over the raw data.
  virtual StatusOr<double> EvaluateExact(const DataTable& table,
                                         const AttributeTuple& tuple,
                                         const std::string& metric) const = 0;

  /// Approximate metric value from the profile's sketches/samples. The
  /// default delegates to EvaluateExact (classes whose metrics are already
  /// single-pass cheap, per §3, need no separate sketch path).
  virtual StatusOr<double> EvaluateSketch(const TableProfile& profile,
                                          const AttributeTuple& tuple,
                                          const std::string& metric) const;

  /// True when EvaluateSketch avoids touching raw column data.
  virtual bool SupportsSketch() const { return false; }

  /// True when EstimateScoreBounds can produce error-bounded score intervals
  /// for `metric` from this profile — the precondition for the engine's
  /// sketch-first prune planner. Default: no pruning support.
  virtual bool SupportsSketchPruning(const TableProfile& profile,
                                     const std::string& metric) const {
    (void)profile;
    (void)metric;
    return false;
  }

  /// Fills `bounds` (resized to positions.size()) with error-bounded score
  /// estimates from the profile's sketches, one per tuple at `positions`
  /// (indices into `tuples`). `delta` is the per-tuple failure probability
  /// the bounds must honor. Batch-level so implementations can resolve
  /// per-column work (validity checks) once per batch instead of once per
  /// tuple. The default marks every tuple unsafe, which makes the planner
  /// refine everything.
  virtual void EstimateScoreBounds(const TableProfile& profile,
                                   const std::vector<AttributeTuple>& tuples,
                                   std::span<const size_t> positions,
                                   const std::string& metric, double delta,
                                   std::vector<SketchScoreBound>& bounds) const;

  /// Ranking strength from the raw metric value. Defaults to |raw|.
  virtual double Score(double raw_value) const;

  /// Preferred visualization (§2.2).
  virtual VisualizationKind visualization() const = 0;

  /// Whether the class offers an overview visualization over all tuples
  /// (§2.1, e.g. the Figure 2 correlation heatmap).
  virtual bool has_overview() const { return false; }

  /// One-line human description of an evaluated instance.
  virtual std::string Describe(const Insight& insight) const;
};

/// Name-keyed collection of insight classes. `CreateDefault` registers the
/// 12 built-in classes shown in the demo's carousels (Figure 1).
class InsightClassRegistry {
 public:
  InsightClassRegistry() = default;
  InsightClassRegistry(InsightClassRegistry&&) = default;
  InsightClassRegistry& operator=(InsightClassRegistry&&) = default;

  /// Registers a class; fails on duplicate names.
  Status Register(std::unique_ptr<InsightClass> insight_class);

  /// Lookup by name; nullptr when absent.
  const InsightClass* Find(const std::string& name) const;

  /// Registered names, in registration order.
  std::vector<std::string> names() const;

  size_t size() const { return classes_.size(); }

  /// Registry with the 12 built-in insight classes.
  static InsightClassRegistry CreateDefault();

 private:
  std::vector<std::unique_ptr<InsightClass>> classes_;
};

}  // namespace foresight

#endif  // FORESIGHT_CORE_INSIGHT_CLASS_H_
