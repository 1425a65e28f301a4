#include "core/insight_class.h"

#include <cmath>

#include "core/insight_classes.h"
#include "util/string_util.h"

namespace foresight {

StatusOr<double> InsightClass::EvaluateSketch(const TableProfile& profile,
                                              const AttributeTuple& tuple,
                                              const std::string& metric) const {
  return EvaluateExact(profile.table(), tuple, metric);
}

void InsightClass::EstimateScoreBounds(
    const TableProfile& profile, const std::vector<AttributeTuple>& tuples,
    std::span<const size_t> positions, const std::string& metric,
    double delta, std::vector<SketchScoreBound>& bounds) const {
  (void)profile;
  (void)tuples;
  (void)metric;
  (void)delta;
  // Default: no bounded estimator — every tuple is unsafe, so a planner
  // consulting this class refines everything exactly.
  bounds.assign(positions.size(), SketchScoreBound{});
}

double InsightClass::Score(double raw_value) const {
  return std::abs(raw_value);
}

std::string InsightClass::Describe(const Insight& insight) const {
  std::string attrs;
  for (size_t i = 0; i < insight.attribute_names.size(); ++i) {
    if (i > 0) attrs += ", ";
    attrs += insight.attribute_names[i];
  }
  return display_name() + " on (" + attrs + "): " + insight.metric_name +
         " = " + FormatDouble(insight.raw_value, 4);
}

Status InsightClassRegistry::Register(
    std::unique_ptr<InsightClass> insight_class) {
  FORESIGHT_CHECK(insight_class != nullptr);
  if (Find(insight_class->name()) != nullptr) {
    return Status::AlreadyExists("insight class already registered: " +
                                 insight_class->name());
  }
  classes_.push_back(std::move(insight_class));
  return Status::OK();
}

const InsightClass* InsightClassRegistry::Find(const std::string& name) const {
  for (const auto& c : classes_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

std::vector<std::string> InsightClassRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(classes_.size());
  for (const auto& c : classes_) result.push_back(c->name());
  return result;
}

InsightClassRegistry InsightClassRegistry::CreateDefault() {
  InsightClassRegistry registry;
  auto add = [&registry](std::unique_ptr<InsightClass> c) {
    Status status = registry.Register(std::move(c));
    FORESIGHT_CHECK_MSG(status.ok(), status.ToString().c_str());
  };
  add(MakeDispersionClass());
  add(MakeSkewClass());
  add(MakeHeavyTailsClass());
  add(MakeOutliersClass());
  add(MakeHeterogeneousFrequenciesClass());
  add(MakeLinearRelationshipClass());
  add(MakeMonotonicRelationshipClass());
  add(MakeMultimodalityClass());
  add(MakeGeneralDependenceClass());
  add(MakeSegmentationClass());
  add(MakeLowEntropyClass());
  add(MakeMissingValuesClass());
  return registry;
}

}  // namespace foresight
