#include "sketch/serialize.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace foresight {

namespace {

/// Parse-layer sanity bounds for untrusted documents. Legitimate sketches sit
/// far below these; a corrupt or adversarial document must not be able to
/// trigger huge allocations (sketch constructors size buffers from these
/// fields), shift UB (KLL level weights are `1 << level`), or overflow in the
/// geometry checks that run before buffers are filled.
constexpr uint64_t kMaxSketchDimension = uint64_t{1} << 26;
constexpr size_t kMaxKllLevels = 64;

/// uint64 values can exceed the double mantissa, so they are serialized as
/// decimal strings.
JsonValue U64(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  return JsonValue(std::string(buffer));
}

StatusOr<uint64_t> ParseU64(const JsonValue* json, const char* field) {
  if (json == nullptr) {
    return Status::ParseError(std::string("missing field: ") + field);
  }
  if (json->is_number()) {
    // Reject NaN (the !(d >= 0) form), negatives, fractions, and values at or
    // beyond 2^64: casting any of those to uint64_t is undefined behavior.
    const double d = json->as_number();
    if (!(d >= 0.0) || d >= 18446744073709551616.0 || d != std::floor(d)) {
      return Status::ParseError(std::string("field not a valid u64: ") +
                                field);
    }
    return static_cast<uint64_t>(d);
  }
  if (!json->is_string()) {
    return Status::ParseError(std::string("field not u64: ") + field);
  }
  // Strict decimal parse: digits only, no sign/whitespace/base prefixes
  // (strtoull would silently accept "-1" by wrapping), overflow rejected.
  const std::string& text = json->as_string();
  if (text.empty() || text.size() > 20) {
    return Status::ParseError(std::string("bad u64 value in field: ") + field);
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::ParseError(std::string("bad u64 value in field: ") +
                                field);
    }
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return Status::ParseError(std::string("u64 overflow in field: ") + field);
    }
    value = value * 10 + digit;
  }
  return value;
}

/// Parses a u64 used as an allocation size or array geometry and enforces the
/// parse-layer sanity bound.
StatusOr<size_t> ParseBoundedSize(const JsonValue* json, const char* field,
                                  uint64_t max_value = kMaxSketchDimension) {
  FORESIGHT_ASSIGN_OR_RETURN(uint64_t value, ParseU64(json, field));
  if (value > max_value) {
    return Status::ParseError(std::string("field exceeds sanity bound: ") +
                              field);
  }
  return static_cast<size_t>(value);
}

StatusOr<double> ParseNumber(const JsonValue* json, const char* field) {
  if (json == nullptr || !json->is_number()) {
    return Status::ParseError(std::string("missing numeric field: ") + field);
  }
  return json->as_number();
}

StatusOr<std::vector<double>> ParseDoubleArray(const JsonValue* json,
                                               const char* field) {
  if (json == nullptr || !json->is_array()) {
    return Status::ParseError(std::string("missing array field: ") + field);
  }
  // Snapshot-decoded (and freshly serialized) documents keep number arrays
  // packed; copying the vector skips 2 JsonValue node walks per element.
  if (const std::vector<double>* packed = json->packed_numbers()) {
    return *packed;
  }
  std::vector<double> out;
  out.reserve(json->size());
  for (size_t i = 0; i < json->size(); ++i) {
    if (!json->at(i).is_number()) {
      return Status::ParseError(std::string("non-numeric entry in ") + field);
    }
    out.push_back(json->at(i).as_number());
  }
  return out;
}

JsonValue DoubleArray(const std::vector<double>& values) {
  return JsonValue::PackedNumberArray(values);
}

}  // namespace

JsonValue MomentsToJson(const RunningMoments& moments) {
  JsonValue json = JsonValue::Object();
  json.Set("n", U64(moments.count()));
  json.Set("mean", moments.mean());
  json.Set("m2", moments.m2());
  json.Set("m3", moments.m3());
  json.Set("m4", moments.m4());
  json.Set("min", moments.min());
  json.Set("max", moments.max());
  return json;
}

StatusOr<RunningMoments> MomentsFromJson(const JsonValue& json) {
  FORESIGHT_ASSIGN_OR_RETURN(uint64_t n, ParseU64(json.Get("n"), "n"));
  FORESIGHT_ASSIGN_OR_RETURN(double mean, ParseNumber(json.Get("mean"), "mean"));
  FORESIGHT_ASSIGN_OR_RETURN(double m2, ParseNumber(json.Get("m2"), "m2"));
  FORESIGHT_ASSIGN_OR_RETURN(double m3, ParseNumber(json.Get("m3"), "m3"));
  FORESIGHT_ASSIGN_OR_RETURN(double m4, ParseNumber(json.Get("m4"), "m4"));
  FORESIGHT_ASSIGN_OR_RETURN(double min, ParseNumber(json.Get("min"), "min"));
  FORESIGHT_ASSIGN_OR_RETURN(double max, ParseNumber(json.Get("max"), "max"));
  return RunningMoments::FromRaw(static_cast<size_t>(n), mean, m2, m3, m4, min,
                                 max);
}

JsonValue KllToJson(const KllSketch& sketch) {
  JsonValue json = JsonValue::Object();
  json.Set("k", sketch.k_param());
  json.Set("rng_state", U64(sketch.rng_state()));
  json.Set("count", U64(sketch.count()));
  json.Set("min", sketch.min());
  json.Set("max", sketch.max());
  JsonValue levels = JsonValue::Array();
  for (const auto& level : sketch.levels()) {
    levels.Append(DoubleArray(level));
  }
  json.Set("levels", std::move(levels));
  return json;
}

StatusOr<KllSketch> KllFromJson(const JsonValue& json) {
  FORESIGHT_ASSIGN_OR_RETURN(size_t k, ParseBoundedSize(json.Get("k"), "k"));
  FORESIGHT_ASSIGN_OR_RETURN(uint64_t rng_state,
                             ParseU64(json.Get("rng_state"), "rng_state"));
  FORESIGHT_ASSIGN_OR_RETURN(uint64_t count,
                             ParseU64(json.Get("count"), "count"));
  FORESIGHT_ASSIGN_OR_RETURN(double min, ParseNumber(json.Get("min"), "min"));
  FORESIGHT_ASSIGN_OR_RETURN(double max, ParseNumber(json.Get("max"), "max"));
  const JsonValue* levels_json = json.Get("levels");
  if (levels_json == nullptr || !levels_json->is_array()) {
    return Status::ParseError("missing KLL levels");
  }
  // Level weights are computed as `1 << level`; more than 64 levels would be
  // shift UB (and no real stream produces them).
  if (levels_json->size() > kMaxKllLevels) {
    return Status::ParseError("too many KLL levels");
  }
  std::vector<std::vector<double>> levels;
  for (size_t l = 0; l < levels_json->size(); ++l) {
    FORESIGHT_ASSIGN_OR_RETURN(std::vector<double> level,
                               ParseDoubleArray(&levels_json->at(l), "level"));
    levels.push_back(std::move(level));
  }
  return KllSketch::FromRaw(k, rng_state, count, min, max, std::move(levels));
}

JsonValue HyperplaneAccToJson(const HyperplaneAccumulator& acc) {
  JsonValue json = JsonValue::Object();
  json.Set("dot", DoubleArray(acc.dot));
  json.Set("ones_dot", DoubleArray(acc.ones_dot));
  return json;
}

StatusOr<HyperplaneAccumulator> HyperplaneAccFromJson(const JsonValue& json) {
  HyperplaneAccumulator acc;
  FORESIGHT_ASSIGN_OR_RETURN(acc.dot, ParseDoubleArray(json.Get("dot"), "dot"));
  FORESIGHT_ASSIGN_OR_RETURN(
      acc.ones_dot, ParseDoubleArray(json.Get("ones_dot"), "ones_dot"));
  if (acc.dot.size() != acc.ones_dot.size()) {
    return Status::ParseError("hyperplane accumulator size mismatch");
  }
  return acc;
}

JsonValue ProjectionToJson(const ProjectionSketch& sketch) {
  JsonValue json = JsonValue::Object();
  json.Set("components", DoubleArray(sketch.components()));
  return json;
}

StatusOr<ProjectionSketch> ProjectionFromJson(const JsonValue& json) {
  FORESIGHT_ASSIGN_OR_RETURN(
      std::vector<double> components,
      ParseDoubleArray(json.Get("components"), "components"));
  ProjectionSketch sketch(components.size());
  sketch.mutable_components() = std::move(components);
  return sketch;
}

JsonValue SpaceSavingToJson(const SpaceSavingSketch& sketch) {
  JsonValue json = JsonValue::Object();
  json.Set("capacity", sketch.capacity());
  json.Set("total", U64(sketch.total_count()));
  // Emit counters in lexicographic item order so the serialized sketch is
  // byte-identical regardless of hash-map iteration order.
  std::vector<std::string> items;
  items.reserve(sketch.counters().size());
  // determinism-ok: key collection, sorted before use.
  for (const auto& [item, ce] : sketch.counters()) items.push_back(item);
  std::sort(items.begin(), items.end());
  JsonValue counters = JsonValue::Array();
  for (const std::string& item : items) {
    const auto& ce = sketch.counters().at(item);
    JsonValue entry = JsonValue::Object();
    entry.Set("item", item);
    entry.Set("count", U64(ce.first));
    entry.Set("error", U64(ce.second));
    counters.Append(std::move(entry));
  }
  json.Set("counters", std::move(counters));
  return json;
}

StatusOr<SpaceSavingSketch> SpaceSavingFromJson(const JsonValue& json) {
  FORESIGHT_ASSIGN_OR_RETURN(
      size_t capacity, ParseBoundedSize(json.Get("capacity"), "capacity"));
  FORESIGHT_ASSIGN_OR_RETURN(uint64_t total, ParseU64(json.Get("total"), "total"));
  const JsonValue* counters_json = json.Get("counters");
  if (counters_json == nullptr || !counters_json->is_array()) {
    return Status::ParseError("missing SpaceSaving counters");
  }
  // SpaceSaving maintains at most `capacity` monitored counters.
  if (counters_json->size() > capacity) {
    return Status::ParseError("SpaceSaving counter count exceeds capacity");
  }
  std::unordered_map<std::string, std::pair<uint64_t, uint64_t>> counters;
  for (size_t i = 0; i < counters_json->size(); ++i) {
    const JsonValue& entry = counters_json->at(i);
    const JsonValue* item = entry.Get("item");
    if (item == nullptr || !item->is_string()) {
      return Status::ParseError("SpaceSaving counter missing item");
    }
    FORESIGHT_ASSIGN_OR_RETURN(uint64_t count,
                               ParseU64(entry.Get("count"), "count"));
    FORESIGHT_ASSIGN_OR_RETURN(uint64_t error,
                               ParseU64(entry.Get("error"), "error"));
    counters[item->as_string()] = {count, error};
  }
  return SpaceSavingSketch::FromRaw(capacity, total, std::move(counters));
}

JsonValue EntropyToJson(const EntropySketch& sketch) {
  JsonValue json = JsonValue::Object();
  json.Set("k", sketch.k());
  json.Set("seed", U64(sketch.seed()));
  json.Set("total", U64(sketch.total_count()));
  json.Set("registers", DoubleArray(sketch.registers()));
  return json;
}

StatusOr<EntropySketch> EntropyFromJson(const JsonValue& json) {
  FORESIGHT_ASSIGN_OR_RETURN(size_t k, ParseBoundedSize(json.Get("k"), "k"));
  FORESIGHT_ASSIGN_OR_RETURN(uint64_t seed, ParseU64(json.Get("seed"), "seed"));
  FORESIGHT_ASSIGN_OR_RETURN(uint64_t total, ParseU64(json.Get("total"), "total"));
  FORESIGHT_ASSIGN_OR_RETURN(
      std::vector<double> registers,
      ParseDoubleArray(json.Get("registers"), "registers"));
  // Validate before constructing: the sketch allocates k registers up front.
  if (registers.size() != k) {
    return Status::ParseError("entropy sketch register count mismatch");
  }
  return EntropySketch::FromRaw(k, seed, total, std::move(registers));
}

JsonValue NumericSketchToJson(const NumericColumnSketch& sketch) {
  JsonValue json = JsonValue::Object();
  json.Set("moments", MomentsToJson(sketch.moments));
  json.Set("quantiles", KllToJson(sketch.quantiles));
  json.Set("hyperplane_acc", HyperplaneAccToJson(sketch.hyperplane_acc));
  json.Set("projection", ProjectionToJson(sketch.projection));
  json.Set("projection_ones", ProjectionToJson(sketch.projection_ones));
  return json;
}

StatusOr<NumericColumnSketch> NumericSketchFromJson(const JsonValue& json) {
  NumericColumnSketch sketch;
  const JsonValue* field = json.Get("moments");
  if (field == nullptr) return Status::ParseError("missing moments");
  FORESIGHT_ASSIGN_OR_RETURN(sketch.moments, MomentsFromJson(*field));
  field = json.Get("quantiles");
  if (field == nullptr) return Status::ParseError("missing quantiles");
  FORESIGHT_ASSIGN_OR_RETURN(sketch.quantiles, KllFromJson(*field));
  field = json.Get("hyperplane_acc");
  if (field == nullptr) return Status::ParseError("missing hyperplane_acc");
  FORESIGHT_ASSIGN_OR_RETURN(sketch.hyperplane_acc,
                             HyperplaneAccFromJson(*field));
  field = json.Get("projection");
  if (field == nullptr) return Status::ParseError("missing projection");
  FORESIGHT_ASSIGN_OR_RETURN(sketch.projection, ProjectionFromJson(*field));
  field = json.Get("projection_ones");
  if (field == nullptr) return Status::ParseError("missing projection_ones");
  FORESIGHT_ASSIGN_OR_RETURN(sketch.projection_ones,
                             ProjectionFromJson(*field));
  // Cross-member consistency: CenteredProjection() combines the two
  // projections component-wise and CHECK-fails on a length mismatch, so a
  // corrupt document must be rejected here, not at query time.
  if (sketch.projection.k() != sketch.projection_ones.k()) {
    return Status::ParseError(
        "projection and projection_ones dimensions differ");
  }
  return sketch;
}

JsonValue CategoricalSketchToJson(const CategoricalColumnSketch& sketch) {
  JsonValue json = JsonValue::Object();
  json.Set("heavy_hitters", SpaceSavingToJson(sketch.heavy_hitters));
  json.Set("entropy", EntropyToJson(sketch.entropy));
  return json;
}

StatusOr<CategoricalColumnSketch> CategoricalSketchFromJson(
    const JsonValue& json) {
  CategoricalColumnSketch sketch;
  const JsonValue* field = json.Get("heavy_hitters");
  if (field == nullptr) return Status::ParseError("missing heavy_hitters");
  FORESIGHT_ASSIGN_OR_RETURN(sketch.heavy_hitters, SpaceSavingFromJson(*field));
  field = json.Get("entropy");
  if (field == nullptr) return Status::ParseError("missing entropy");
  FORESIGHT_ASSIGN_OR_RETURN(sketch.entropy, EntropyFromJson(*field));
  return sketch;
}

JsonValue SketchConfigToJson(const SketchConfig& config) {
  JsonValue json = JsonValue::Object();
  json.Set("hyperplane_bits", config.hyperplane_bits);
  json.Set("projection_dims", config.projection_dims);
  json.Set("kll_k", config.kll_k);
  json.Set("spacesaving_capacity", config.spacesaving_capacity);
  json.Set("entropy_k", config.entropy_k);
  json.Set("seed", U64(config.seed));
  return json;
}

StatusOr<SketchConfig> SketchConfigFromJson(const JsonValue& json) {
  // Every dimension is bounded at parse time: config documents come from the
  // same untrusted files as the sketches themselves, and each of these fields
  // sizes an allocation somewhere in preprocessing.
  SketchConfig config;
  FORESIGHT_ASSIGN_OR_RETURN(
      config.hyperplane_bits,
      ParseBoundedSize(json.Get("hyperplane_bits"), "hyperplane_bits"));
  FORESIGHT_ASSIGN_OR_RETURN(
      config.projection_dims,
      ParseBoundedSize(json.Get("projection_dims"), "projection_dims"));
  // Unlike hyperplane_bits, 0 is not "auto": a projection needs a dimension.
  if (config.projection_dims == 0) {
    return Status::ParseError("projection_dims must be at least 1");
  }
  FORESIGHT_ASSIGN_OR_RETURN(config.kll_k,
                             ParseBoundedSize(json.Get("kll_k"), "kll_k"));
  FORESIGHT_ASSIGN_OR_RETURN(
      config.spacesaving_capacity,
      ParseBoundedSize(json.Get("spacesaving_capacity"),
                       "spacesaving_capacity"));
  FORESIGHT_ASSIGN_OR_RETURN(
      config.entropy_k, ParseBoundedSize(json.Get("entropy_k"), "entropy_k"));
  FORESIGHT_ASSIGN_OR_RETURN(config.seed, ParseU64(json.Get("seed"), "seed"));
  return config;
}

}  // namespace foresight
