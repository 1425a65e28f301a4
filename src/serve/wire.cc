#include "serve/wire.h"

namespace foresight {

namespace {

const char* ProvenanceName(Provenance provenance) {
  return provenance == Provenance::kSketch ? "sketch" : "exact";
}

JsonValue StringArray(const std::vector<std::string>& values) {
  JsonValue array = JsonValue::Array();
  for (const std::string& value : values) array.Append(value);
  return array;
}

JsonValue InsightJson(const Insight& insight) {
  JsonValue json = JsonValue::Object();
  json.Set("class", insight.class_name);
  json.Set("metric", insight.metric_name);
  JsonValue indices = JsonValue::Array();
  for (size_t index : insight.attributes.indices) indices.Append(index);
  json.Set("attribute_indices", std::move(indices));
  json.Set("attributes", StringArray(insight.attribute_names));
  json.Set("score", insight.score);
  json.Set("raw_value", insight.raw_value);
  json.Set("provenance", ProvenanceName(insight.provenance));
  json.Set("description", insight.description);
  return json;
}

JsonValue PruneJson(const PruneTelemetry& prune) {
  JsonValue json = JsonValue::Object();
  json.Set("used", prune.used);
  json.Set("pairs_total", prune.pairs_total);
  json.Set("pairs_pruned", prune.pairs_pruned);
  json.Set("pairs_refined", prune.pairs_refined);
  json.Set("pairs_unsafe", prune.pairs_unsafe);
  return json;
}

JsonValue Envelope() {
  JsonValue json = JsonValue::Object();
  json.Set("api_version", kWireApiVersion);
  return json;
}

}  // namespace

int HttpStatusForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
    case StatusCode::kAlreadyExists:
      return 409;
    case StatusCode::kUnimplemented:
      return 501;
    case StatusCode::kInternal:
    case StatusCode::kIOError:
      return 500;
  }
  return 500;
}

JsonValue WireErrorV1(const Status& status) {
  JsonValue json = Envelope();
  JsonValue error = JsonValue::Object();
  error.Set("code", StatusCodeToString(status.code()));
  error.Set("message", status.message());
  json.Set("error", std::move(error));
  return json;
}

JsonValue WireResultV1(const InsightQueryResult& result) {
  JsonValue json = JsonValue::Object();
  JsonValue insights = JsonValue::Array();
  for (const Insight& insight : result.insights) {
    insights.Append(InsightJson(insight));
  }
  json.Set("insights", std::move(insights));
  json.Set("candidates_evaluated", result.candidates_evaluated);
  json.Set("undefined_excluded", result.undefined_excluded);
  return json;
}

JsonValue WireTelemetryV1(const InsightQueryResult& result) {
  JsonValue json = JsonValue::Object();
  json.Set("elapsed_ms", result.elapsed_ms);
  json.Set("mode_used", ExecutionModeName(result.mode_used));
  json.Set("cache_hit", result.cache_hit);
  json.Set("cache_shard", result.cache_shard);
  json.Set("prune", PruneJson(result.prune));
  return json;
}

JsonValue WireQueryResponseV1(const InsightQueryResult& result) {
  JsonValue json = Envelope();
  json.Set("result", WireResultV1(result));
  json.Set("telemetry", WireTelemetryV1(result));
  return json;
}

JsonValue WireBatchResponseV1(std::span<const InsightQueryResult> results) {
  JsonValue json = Envelope();
  JsonValue encoded = JsonValue::Array();
  JsonValue telemetry = JsonValue::Array();
  for (const InsightQueryResult& result : results) {
    encoded.Append(WireResultV1(result));
    telemetry.Append(WireTelemetryV1(result));
  }
  json.Set("results", std::move(encoded));
  json.Set("telemetry", std::move(telemetry));
  return json;
}

JsonValue WireOverviewResponseV1(const CorrelationOverview& overview) {
  JsonValue result = JsonValue::Object();
  result.Set("class", overview.class_name);
  result.Set("metric", overview.metric_name);
  result.Set("attributes", StringArray(overview.attribute_names));
  JsonValue matrix = JsonValue::Array();
  for (double value : overview.matrix) matrix.Append(value);
  result.Set("matrix", std::move(matrix));
  result.Set("provenance", ProvenanceName(overview.provenance));
  if (!overview.cell_provenance.empty()) {
    JsonValue cells = JsonValue::Array();
    for (Provenance cell : overview.cell_provenance) {
      cells.Append(ProvenanceName(cell));
    }
    result.Set("cell_provenance", std::move(cells));
  }

  JsonValue json = Envelope();
  json.Set("result", std::move(result));
  JsonValue telemetry = JsonValue::Object();
  telemetry.Set("prune", PruneJson(overview.prune));
  json.Set("telemetry", std::move(telemetry));
  return json;
}

JsonValue WireDatasetsResponseV1(const std::vector<DatasetEntryInfo>& entries,
                                 const DatasetRegistryStats& stats,
                                 size_t memory_budget_bytes) {
  JsonValue json = Envelope();
  JsonValue datasets = JsonValue::Array();
  for (const DatasetEntryInfo& entry : entries) {
    JsonValue row = JsonValue::Object();
    row.Set("id", entry.id);
    row.Set("resident", entry.resident);
    row.Set("has_snapshot", entry.has_snapshot);
    row.Set("resident_bytes", entry.resident_bytes);
    datasets.Append(std::move(row));
  }
  json.Set("datasets", std::move(datasets));
  JsonValue registry = JsonValue::Object();
  registry.Set("resident_bytes", stats.resident_bytes);
  registry.Set("memory_budget_bytes", memory_budget_bytes);
  registry.Set("resident_datasets", stats.resident_datasets);
  registry.Set("total_datasets", stats.total_datasets);
  json.Set("registry", std::move(registry));
  return json;
}

JsonValue WireAppendResponseV1(const std::string& dataset,
                               const DatasetAppendOutcome& outcome) {
  JsonValue json = Envelope();
  JsonValue append = JsonValue::Object();
  if (!dataset.empty()) append.Set("dataset", dataset);
  append.Set("rows_before", outcome.rows_before);
  append.Set("rows_appended", outcome.rows_appended);
  append.Set("num_rows", outcome.num_rows);
  append.Set("delta_merged", outcome.delta_merged);
  append.Set("serving_epoch", outcome.serving_epoch);
  json.Set("append", std::move(append));
  return json;
}

StatusOr<DataTable> ParseAppendRowsV1(const JsonValue& json,
                                      const DataTable& table,
                                      size_t max_rows) {
  if (!json.is_object()) {
    return Status::InvalidArgument("append request must be a JSON object");
  }
  const JsonValue* rows = nullptr;
  for (const auto& [key, value] : json.items()) {
    if (key == "rows") {
      rows = &value;
    } else {
      return Status::InvalidArgument("unknown append field '" + key + "'");
    }
  }
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument("append request needs a 'rows' array");
  }
  if (rows->size() == 0) {
    return Status::InvalidArgument("'rows' must not be empty");
  }
  if (rows->size() > max_rows) {
    return Status::InvalidArgument("append exceeds the limit of " +
                                   std::to_string(max_rows) + " rows");
  }

  const size_t width = table.num_columns();
  std::vector<std::unique_ptr<Column>> columns;
  columns.reserve(width);
  for (size_t c = 0; c < width; ++c) {
    if (table.column(c).type() == ColumnType::kNumeric) {
      columns.push_back(std::make_unique<NumericColumn>());
    } else {
      columns.push_back(std::make_unique<CategoricalColumn>());
    }
  }

  for (size_t i = 0; i < rows->size(); ++i) {
    const JsonValue& row = rows->at(i);
    if (!row.is_array() || row.size() != width) {
      return Status::InvalidArgument(
          "rows[" + std::to_string(i) + "] must be an array of " +
          std::to_string(width) + " cells (one per column)");
    }
    for (size_t c = 0; c < width; ++c) {
      const JsonValue& cell = row.at(c);
      if (table.column(c).type() == ColumnType::kNumeric) {
        auto& column = static_cast<NumericColumn&>(*columns[c]);
        if (cell.is_null()) {
          column.AppendNull();
        } else if (cell.is_number()) {
          column.Append(cell.as_number());
        } else {
          return Status::InvalidArgument(
              "rows[" + std::to_string(i) + "][" + std::to_string(c) +
              "] ('" + table.column_name(c) + "'): expected number or null");
        }
      } else {
        auto& column = static_cast<CategoricalColumn&>(*columns[c]);
        if (cell.is_null()) {
          column.AppendNull();
        } else if (cell.is_string()) {
          column.Append(cell.as_string());
        } else {
          return Status::InvalidArgument(
              "rows[" + std::to_string(i) + "][" + std::to_string(c) +
              "] ('" + table.column_name(c) + "'): expected string or null");
        }
      }
    }
  }

  DataTable delta;
  for (size_t c = 0; c < width; ++c) {
    FORESIGHT_RETURN_IF_ERROR(
        delta.AddColumn(table.column_name(c), std::move(columns[c])));
  }
  return delta;
}

StatusOr<std::vector<InsightQuery>> ParseQueryBatchV1(const JsonValue& json,
                                                      size_t max_queries) {
  if (!json.is_object()) {
    return Status::InvalidArgument("batch request must be a JSON object");
  }
  const JsonValue* queries = nullptr;
  for (const auto& [key, value] : json.items()) {
    if (key == "queries") {
      queries = &value;
    } else {
      return Status::InvalidArgument("unknown batch field '" + key + "'");
    }
  }
  if (queries == nullptr || !queries->is_array()) {
    return Status::InvalidArgument("batch request needs a 'queries' array");
  }
  if (queries->size() > max_queries) {
    return Status::InvalidArgument(
        "batch exceeds the limit of " + std::to_string(max_queries) +
        " queries");
  }
  std::vector<InsightQuery> parsed;
  parsed.reserve(queries->size());
  for (size_t i = 0; i < queries->size(); ++i) {
    StatusOr<InsightQuery> query = InsightQuery::FromJson(queries->at(i));
    if (!query.ok()) {
      return Status::InvalidArgument("queries[" + std::to_string(i) +
                                     "]: " + query.status().message());
    }
    parsed.push_back(std::move(query).value());
  }
  return parsed;
}

}  // namespace foresight
