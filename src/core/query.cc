#include "core/query.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>

#include "core/insight_class.h"
#include "data/table.h"

namespace foresight {

const char* ExecutionModeName(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kExact:
      return "exact";
    case ExecutionMode::kSketch:
      return "sketch";
    case ExecutionMode::kAuto:
      return "auto";
  }
  return "auto";
}

StatusOr<ExecutionMode> ParseExecutionMode(std::string_view name) {
  if (name == "exact") return ExecutionMode::kExact;
  if (name == "sketch") return ExecutionMode::kSketch;
  if (name == "auto") return ExecutionMode::kAuto;
  return Status::InvalidArgument("unknown execution mode '" +
                                 std::string(name) +
                                 "' (expected exact|sketch|auto)");
}

namespace {

/// Full-precision double rendering for cache keys: round-trips exactly, so
/// distinct filter bounds never collide and equal bounds always match.
std::string KeyDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Joins `parts` (sorted first, for order-insensitivity) with the ASCII unit
/// separator, which cannot occur in sane column/tag names.
std::string SortedJoin(std::vector<std::string> parts) {
  std::sort(parts.begin(), parts.end());
  std::string joined;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) joined += '\x1f';
    joined += parts[i];
  }
  return joined;
}

}  // namespace

Status InsightQuery::Validate() const {
  if (class_name.empty()) {
    return Status::InvalidArgument("class_name is required");
  }
  if (min_score.has_value() && max_score.has_value() &&
      *min_score > *max_score) {
    return Status::InvalidArgument("min_score exceeds max_score");
  }
  return Status::OK();
}

Status InsightQuery::Validate(const InsightClassRegistry& registry,
                              const DataTable& table) const {
  FORESIGHT_RETURN_IF_ERROR(Validate());
  const InsightClass* insight_class = registry.Find(class_name);
  if (insight_class == nullptr) {
    return Status::NotFound("unknown insight class: " + class_name);
  }
  if (!metric.empty()) {
    const std::vector<std::string> allowed = insight_class->metric_names();
    if (std::find(allowed.begin(), allowed.end(), metric) == allowed.end()) {
      return Status::InvalidArgument("metric '" + metric +
                                     "' not supported by class '" +
                                     class_name + "'");
    }
  }
  for (const std::string& name : fixed_attributes) {
    StatusOr<size_t> index = table.ColumnIndex(name);
    if (!index.ok()) return index.status();
  }
  return Status::OK();
}

std::string InsightQuery::CacheKey(const std::string& resolved_metric,
                                   ExecutionMode resolved_mode) const {
  std::string key = "v1|class=";
  key += class_name;
  key += "|metric=";
  key += resolved_metric;
  key += "|mode=";
  key += resolved_mode == ExecutionMode::kSketch ? "sketch" : "exact";
  key += "|k=";
  key += std::to_string(top_k);
  key += "|fixed=";
  key += SortedJoin(fixed_attributes);
  key += "|tags=";
  key += SortedJoin(required_tags);
  key += "|min=";
  if (min_score.has_value()) key += KeyDouble(*min_score);
  key += "|max=";
  if (max_score.has_value()) key += KeyDouble(*max_score);
  return key;
}

namespace {

/// Decodes a v1 string-array field ("fixed_attributes", "required_tags").
Status ReadStringArray(const JsonValue& value, const char* field,
                       std::vector<std::string>& out) {
  if (!value.is_array()) {
    return Status::InvalidArgument(std::string(field) +
                                   " must be an array of strings");
  }
  out.clear();
  out.reserve(value.size());
  for (size_t i = 0; i < value.size(); ++i) {
    const JsonValue& element = value.at(i);
    if (!element.is_string()) {
      return Status::InvalidArgument(std::string(field) +
                                     " must be an array of strings");
    }
    out.push_back(element.as_string());
  }
  return Status::OK();
}

/// Decodes a v1 score-bound field ("min_score", "max_score"); JSON has no
/// non-finite numbers, but reject them anyway in case the document came from
/// a lenient producer.
Status ReadScoreBound(const JsonValue& value, const char* field,
                      std::optional<double>& out) {
  if (!value.is_number() || !std::isfinite(value.as_number())) {
    return Status::InvalidArgument(std::string(field) +
                                   " must be a finite number");
  }
  out = value.as_number();
  return Status::OK();
}

}  // namespace

JsonValue InsightQuery::ToJson() const {
  JsonValue json = JsonValue::Object();
  json.Set("class", class_name);
  if (!metric.empty()) json.Set("metric", metric);
  json.Set("top_k", top_k);
  if (!fixed_attributes.empty()) {
    JsonValue array = JsonValue::Array();
    for (const std::string& name : fixed_attributes) array.Append(name);
    json.Set("fixed_attributes", std::move(array));
  }
  if (!required_tags.empty()) {
    JsonValue array = JsonValue::Array();
    for (const std::string& tag : required_tags) array.Append(tag);
    json.Set("required_tags", std::move(array));
  }
  if (min_score.has_value()) json.Set("min_score", *min_score);
  if (max_score.has_value()) json.Set("max_score", *max_score);
  json.Set("mode", ExecutionModeName(mode));
  return json;
}

StatusOr<InsightQuery> InsightQuery::FromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("query must be a JSON object");
  }
  InsightQuery query;
  for (const auto& [key, value] : json.items()) {
    if (key == "class") {
      if (!value.is_string()) {
        return Status::InvalidArgument("class must be a string");
      }
      query.class_name = value.as_string();
    } else if (key == "metric") {
      if (!value.is_string()) {
        return Status::InvalidArgument("metric must be a string");
      }
      query.metric = value.as_string();
    } else if (key == "top_k") {
      // 1e9 caps the count far above any real table's candidate space.
      constexpr size_t kMaxTopK = 1'000'000'000;
      const std::optional<size_t> top_k =
          value.is_number() ? SizeFromJsonNumber(value.as_number())
                            : std::nullopt;
      if (!top_k.has_value() || *top_k > kMaxTopK) {
        return Status::InvalidArgument(
            "top_k must be an integer in [0, 1e9]");
      }
      query.top_k = *top_k;
    } else if (key == "fixed_attributes") {
      FORESIGHT_RETURN_IF_ERROR(
          ReadStringArray(value, "fixed_attributes", query.fixed_attributes));
    } else if (key == "required_tags") {
      FORESIGHT_RETURN_IF_ERROR(
          ReadStringArray(value, "required_tags", query.required_tags));
    } else if (key == "min_score") {
      FORESIGHT_RETURN_IF_ERROR(
          ReadScoreBound(value, "min_score", query.min_score));
    } else if (key == "max_score") {
      FORESIGHT_RETURN_IF_ERROR(
          ReadScoreBound(value, "max_score", query.max_score));
    } else if (key == "mode") {
      if (!value.is_string()) {
        return Status::InvalidArgument("mode must be a string");
      }
      FORESIGHT_ASSIGN_OR_RETURN(query.mode,
                                 ParseExecutionMode(value.as_string()));
    } else {
      return Status::InvalidArgument("unknown query field '" + key + "'");
    }
  }
  FORESIGHT_RETURN_IF_ERROR(query.Validate());
  return query;
}

}  // namespace foresight
