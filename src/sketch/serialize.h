#ifndef FORESIGHT_SKETCH_SERIALIZE_H_
#define FORESIGHT_SKETCH_SERIALIZE_H_

#include "sketch/bundle.h"
#include "util/json.h"
#include "util/status.h"

namespace foresight {

/// JSON (de)serialization for every persisted sketch and for whole column
/// bundles.
///
/// Preprocessing is the expensive step (§3); persisting the sketch state lets
/// a deployment preprocess once and serve many exploration sessions. The
/// format is versioned JSON: self-describing, diff-able, and stable across
/// platforms (doubles round-trip via 17-digit decimal). Only mergeable state
/// is stored: a numeric bundle's signature and centered projection are
/// derived, and BundleBuilder::FinalizeNumeric rebuilds them on load.
///
/// Free functions rather than members keep the sketch classes free of any
/// serialization dependency.

JsonValue MomentsToJson(const RunningMoments& moments);
StatusOr<RunningMoments> MomentsFromJson(const JsonValue& json);

JsonValue KllToJson(const KllSketch& sketch);
StatusOr<KllSketch> KllFromJson(const JsonValue& json);

JsonValue HyperplaneAccToJson(const HyperplaneAccumulator& acc);
StatusOr<HyperplaneAccumulator> HyperplaneAccFromJson(const JsonValue& json);

JsonValue ProjectionToJson(const ProjectionSketch& sketch);
StatusOr<ProjectionSketch> ProjectionFromJson(const JsonValue& json);

JsonValue SpaceSavingToJson(const SpaceSavingSketch& sketch);
StatusOr<SpaceSavingSketch> SpaceSavingFromJson(const JsonValue& json);

JsonValue EntropyToJson(const EntropySketch& sketch);
StatusOr<EntropySketch> EntropyFromJson(const JsonValue& json);

/// The parsed bundle is not finalized: its derived members stay empty.
JsonValue NumericSketchToJson(const NumericColumnSketch& sketch);
StatusOr<NumericColumnSketch> NumericSketchFromJson(const JsonValue& json);

JsonValue CategoricalSketchToJson(const CategoricalColumnSketch& sketch);
StatusOr<CategoricalColumnSketch> CategoricalSketchFromJson(
    const JsonValue& json);

JsonValue SketchConfigToJson(const SketchConfig& config);
StatusOr<SketchConfig> SketchConfigFromJson(const JsonValue& json);

}  // namespace foresight

#endif  // FORESIGHT_SKETCH_SERIALIZE_H_
