// Fuzz harness for sketch/serialize.cc, the persistence format for
// preprocessed sketch state (preprocess once, serve many sessions — §3).
// A corrupt or hostile snapshot must deserialize to a Status error, never
// abort, over-read, or allocate unboundedly.
//
// Every FromJson deserializer is fed the parsed document. Accepted sketches
// are then (a) queried, so geometry lies that survive validation surface as
// ASan/UBSan findings here rather than at serving time, and (b) checked for
// the canonical-form fixed point: re-serializing an accepted sketch must
// deserialize again and re-serialize to byte-identical JSON.
#include <cstdint>
#include <string>
#include <string_view>

#include "sketch/serialize.h"
#include "util/json.h"
#include "util/logging.h"

namespace foresight {
namespace {

template <typename Sketch>
void CheckFixedPoint(const StatusOr<Sketch>& first,
                     JsonValue (*to_json)(const Sketch&),
                     StatusOr<Sketch> (*from_json)(const JsonValue&)) {
  if (!first.ok()) return;
  JsonValue canonical = to_json(*first);
  StatusOr<Sketch> second = from_json(canonical);
  FORESIGHT_CHECK(second.ok());
  FORESIGHT_CHECK(to_json(*second).Dump() == canonical.Dump());
}

void Exercise(const JsonValue& doc) {
  {
    StatusOr<RunningMoments> moments = MomentsFromJson(doc);
    if (moments.ok()) {
      (void)moments->variance();
      (void)moments->skewness();
      (void)moments->kurtosis();
    }
    CheckFixedPoint(moments, &MomentsToJson, &MomentsFromJson);
  }
  {
    StatusOr<KllSketch> kll = KllFromJson(doc);
    if (kll.ok()) {
      (void)kll->Quantile(0.5);
      (void)kll->Rank(0.0);
      (void)kll->RetainedItems();
    }
    CheckFixedPoint(kll, &KllToJson, &KllFromJson);
  }
  CheckFixedPoint(HyperplaneAccFromJson(doc), &HyperplaneAccToJson,
                  &HyperplaneAccFromJson);
  {
    StatusOr<ProjectionSketch> projection = ProjectionFromJson(doc);
    if (projection.ok()) (void)projection->EstimateSquaredNorm();
    CheckFixedPoint(projection, &ProjectionToJson, &ProjectionFromJson);
  }
  {
    StatusOr<SpaceSavingSketch> heavy = SpaceSavingFromJson(doc);
    if (heavy.ok()) {
      (void)heavy->TopK(4);
      (void)heavy->EstimateCount("x");
      (void)heavy->MaxError();
    }
    CheckFixedPoint(heavy, &SpaceSavingToJson, &SpaceSavingFromJson);
  }
  {
    StatusOr<EntropySketch> entropy = EntropyFromJson(doc);
    if (entropy.ok()) (void)entropy->EstimateEntropy();
    CheckFixedPoint(entropy, &EntropyToJson, &EntropyFromJson);
  }
  {
    StatusOr<NumericColumnSketch> numeric = NumericSketchFromJson(doc);
    if (numeric.ok()) {
      // CHECK-guarded internally: deserialization must have verified the
      // projection lengths agree (see NumericSketchFromJson).
      (void)numeric->CenteredProjection();
    }
    CheckFixedPoint(numeric, &NumericSketchToJson, &NumericSketchFromJson);
  }
  CheckFixedPoint(CategoricalSketchFromJson(doc), &CategoricalSketchToJson,
                  &CategoricalSketchFromJson);
  CheckFixedPoint(SketchConfigFromJson(doc), &SketchConfigToJson,
                  &SketchConfigFromJson);
}

}  // namespace
}  // namespace foresight

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  foresight::StatusOr<foresight::JsonValue> doc =
      foresight::JsonValue::Parse(text);
  if (!doc.ok()) return 0;
  foresight::Exercise(*doc);
  return 0;
}
