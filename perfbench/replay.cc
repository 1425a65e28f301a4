#include "replay.h"

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string_view>

#include "serve/http.h"
#include "serve/wire.h"
#include "util/trace.h"

namespace perfbench {

using foresight::DatasetAppendOutcome;
using foresight::DataTable;
using foresight::InsightQuery;
using foresight::InsightQueryResult;
using foresight::JsonValue;
using foresight::QuerySession;
using foresight::QueryStage;
using foresight::Status;
using foresight::StatusOr;

namespace {

/// The bytes HttpClient::Request puts on the wire for `request`.
std::string RawHttp(const Request& request) {
  std::string raw = std::string(request.method()) + " " + request.target +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!request.body.empty()) {
    raw += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(request.body.size()) + "\r\n";
  }
  return raw + "\r\n" + request.body;
}

/// The server's handling of the optional "dataset" body field.
StatusOr<std::string> ExtractDataset(JsonValue* body) {
  const JsonValue* dataset = body->Get("dataset");
  if (dataset == nullptr) return std::string();
  if (!dataset->is_string()) {
    return Status::InvalidArgument("'dataset' must be a string");
  }
  std::string id = dataset->as_string();
  body->Remove("dataset");
  return id;
}

/// The server's query-parameter rules for GET /v1/overview/<class>.
Status ParseOverviewTarget(std::string_view target, std::string* class_name,
                           foresight::PairwiseOverviewOptions* options,
                           std::string* dataset) {
  constexpr std::string_view kPrefix = "/v1/overview/";
  const size_t question = target.find('?');
  *class_name = std::string(
      target.substr(kPrefix.size(), question == std::string_view::npos
                                        ? std::string_view::npos
                                        : question - kPrefix.size()));
  std::string_view params = question == std::string_view::npos
                                ? std::string_view{}
                                : target.substr(question + 1);
  while (!params.empty()) {
    const size_t amp = params.find('&');
    const std::string_view pair = params.substr(0, amp);
    params = amp == std::string_view::npos ? std::string_view{}
                                           : params.substr(amp + 1);
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("malformed query parameter");
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string value(pair.substr(eq + 1));
    if (key == "metric") {
      options->metric = value;
    } else if (key == "mode") {
      FORESIGHT_ASSIGN_OR_RETURN(options->mode,
                                 foresight::ParseExecutionMode(value));
    } else if (key == "refine_min_score") {
      options->refine_min_score = std::strtod(value.c_str(), nullptr);
    } else if (key == "dataset") {
      *dataset = value;
    } else {
      return Status::InvalidArgument("unknown query parameter");
    }
  }
  return Status::OK();
}

/// The server's JsonResponse + SerializeResponse for a 200.
size_t EncodedBytes(const JsonValue& body) {
  foresight::HttpResponse response;
  response.headers.emplace_back("Content-Type", "application/json");
  response.body = body.Dump();
  response.body += '\n';
  return foresight::SerializeResponse(response, /*keep_alive=*/true).size();
}

/// Lays one result's stages end to end from `start` as children of
/// `parent`: the session's cache lookup always, and the engine stages only
/// when this call computed the result (on a hit they describe the call that
/// filled the cache). Returns where the next result's stages start.
int64_t AddStages(SpanLog& log, uint64_t parent, uint64_t id, int64_t start,
                  const InsightQueryResult& result) {
  struct Stage {
    QueryStage stage;
    const char* name;
  };
  static constexpr Stage kLookup = {QueryStage::kCacheLookup,
                                    "session.cache_lookup"};
  static constexpr Stage kEngine[] = {
      {QueryStage::kResolve, "engine.resolve"},
      {QueryStage::kEnumerate, "engine.enumerate"},
      {QueryStage::kEvaluate, "engine.evaluate"},
      {QueryStage::kAssemble, "engine.assemble"},
  };
  auto add = [&](const Stage& stage) {
    const int64_t length =
        static_cast<int64_t>(result.trace.stage(stage.stage) * 1e6);
    log.Add(stage.name, parent, id, start, start + length);
    start += length;
  };
  add(kLookup);
  if (!result.cache_hit) {
    for (const Stage& stage : kEngine) add(stage);
  }
  return start;
}

void CountComputed(const InsightQueryResult& result,
                   ReplayCounters& counters) {
  if (result.cache_hit) return;
  ++counters.misses;
  counters.candidates += result.candidates_evaluated;
  if (result.prune.used) {
    counters.pairs_total += result.prune.pairs_total;
    counters.pairs_refined += result.prune.pairs_refined;
  }
}

const char* RootName(Request::Kind kind) {
  switch (kind) {
    case Request::Kind::kQuery:
      return "request.query";
    case Request::Kind::kBatch:
      return "request.batch";
    case Request::Kind::kOverview:
      return "request.overview";
    case Request::Kind::kAppend:
      return "request.append";
  }
  return "request";
}

}  // namespace

StatusOr<DecodedRead> DecodeRead(Request::Kind kind, const std::string& target,
                                 const std::string& body) {
  DecodedRead decoded;
  if (kind == Request::Kind::kOverview) {
    FORESIGHT_RETURN_IF_ERROR(ParseOverviewTarget(
        target, &decoded.overview_class, &decoded.overview, &decoded.dataset));
    return decoded;
  }
  FORESIGHT_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(body));
  FORESIGHT_ASSIGN_OR_RETURN(decoded.dataset, ExtractDataset(&json));
  if (kind == Request::Kind::kBatch) {
    FORESIGHT_ASSIGN_OR_RETURN(decoded.queries,
                               foresight::ParseQueryBatchV1(json, 1024));
  } else {
    FORESIGHT_ASSIGN_OR_RETURN(InsightQuery query,
                               InsightQuery::FromJson(json));
    decoded.queries.push_back(std::move(query));
  }
  return decoded;
}

Status SpanLog::Write(const std::string& path, const JsonValue& header) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot write " + path);
  out << header.Dump() << '\n';
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << '[' << i + 1 << ',' << span.parent << ',' << span.request << ",\""
        << span.name << "\"," << span.t0 << ',' << span.t1 << "]\n";
  }
  out.close();
  if (!out) return Status::IOError("failed writing " + path);
  return Status::OK();
}

JsonValue ReplayCounters::ToJson() const {
  JsonValue json = JsonValue::Object();
  json.Set("requests", requests);
  json.Set("reads", reads);
  json.Set("misses", misses);
  json.Set("candidates", candidates);
  json.Set("pairs_total", pairs_total);
  json.Set("pairs_refined", pairs_refined);
  json.Set("response_bytes", response_bytes);
  json.Set("appends", appends);
  json.Set("appends_merged", appends_merged);
  return json;
}

Status ReplayRequest(const Request& request, const ReplayTarget& target,
                     uint64_t id, SpanLog& log, ReplayCounters& counters) {
  const std::string raw = RawHttp(request);
  ++counters.requests;
  const uint64_t root = log.Open(RootName(request.kind), 0, id);

  foresight::HttpRequest http;
  {
    ScopedSpan span(log, "serve.http_parse", root, id);
    const foresight::ParseResult parsed =
        foresight::ParseRequest(raw, foresight::HttpLimits{}, &http);
    if (parsed.state != foresight::ParseState::kComplete) {
      return Status::Internal("replayed request did not parse");
    }
  }
  // Keeps a registry dataset alive for the request, as the server does.
  std::shared_ptr<const foresight::ResidentDataset> pin;
  auto resolve = [&](const std::string& dataset)
      -> StatusOr<const QuerySession*> {
    if (dataset.empty()) return target.session;
    ScopedSpan span(log, "registry.acquire", root, id);
    FORESIGHT_ASSIGN_OR_RETURN(pin, target.registry->Acquire(dataset));
    return &pin->session();
  };

  if (request.kind != Request::Kind::kAppend) {
    DecodedRead decoded;
    {
      ScopedSpan span(log, "serve.decode", root, id);
      FORESIGHT_ASSIGN_OR_RETURN(
          decoded, DecodeRead(request.kind, http.target, http.body));
    }
    FORESIGHT_ASSIGN_OR_RETURN(const QuerySession* session,
                               resolve(decoded.dataset));
    ++counters.reads;
    if (request.kind == Request::Kind::kOverview) {
      foresight::CorrelationOverview overview;
      {
        ScopedSpan span(log, "engine.overview", root, id);
        FORESIGHT_ASSIGN_OR_RETURN(
            overview, session->engine().ComputePairwiseOverview(
                          decoded.overview_class, decoded.overview));
      }
      if (overview.prune.used) {
        counters.pairs_total += overview.prune.pairs_total;
        counters.pairs_refined += overview.prune.pairs_refined;
      }
      {
        ScopedSpan span(log, "serve.encode", root, id);
        counters.response_bytes +=
            EncodedBytes(foresight::WireOverviewResponseV1(overview));
      }
      log.Close(root);
      return Status::OK();
    }
    const bool batch = request.kind == Request::Kind::kBatch;
    std::vector<InsightQueryResult> results;
    {
      ScopedSpan span(log, batch ? "session.batch" : "session.miss", root, id);
      if (batch) {
        FORESIGHT_ASSIGN_OR_RETURN(results,
                                   session->ExecuteBatch(decoded.queries));
      } else {
        FORESIGHT_ASSIGN_OR_RETURN(InsightQueryResult result,
                                   session->Execute(decoded.queries.front()));
        if (result.cache_hit) log.Rename(span.id(), "session.hit");
        results.push_back(std::move(result));
      }
      int64_t start = log.start_of(span.id());
      for (const InsightQueryResult& result : results) {
        start = AddStages(log, span.id(), id, start, result);
        CountComputed(result, counters);
      }
    }
    {
      ScopedSpan span(log, "serve.encode", root, id);
      counters.response_bytes += EncodedBytes(
          batch ? foresight::WireBatchResponseV1(results)
                : foresight::WireQueryResponseV1(results.front()));
    }
    log.Close(root);
    return Status::OK();
  }

  // POST /v1/append.
  std::string dataset;
  DataTable delta;
  {
    ScopedSpan span(log, "serve.append_decode", root, id);
    FORESIGHT_ASSIGN_OR_RETURN(JsonValue body, JsonValue::Parse(http.body));
    FORESIGHT_ASSIGN_OR_RETURN(dataset, ExtractDataset(&body));
    const DataTable* schema = target.table;
    if (!dataset.empty()) {
      FORESIGHT_ASSIGN_OR_RETURN(pin, target.registry->Acquire(dataset));
      schema = &pin->table();
    }
    FORESIGHT_ASSIGN_OR_RETURN(
        delta, foresight::ParseAppendRowsV1(body, *schema, 100'000));
  }
  DatasetAppendOutcome outcome;
  {
    ScopedSpan span(log, "dataset.append", root, id);
    if (dataset.empty()) {
      FORESIGHT_ASSIGN_OR_RETURN(
          foresight::AppendStats stats,
          target.engine->AppendPartition(*target.table, delta));
      outcome.rows_before = stats.rows_before;
      outcome.rows_appended = stats.rows_appended;
      outcome.num_rows = stats.num_rows;
      outcome.delta_merged = stats.delta_merged;
      outcome.serving_epoch = target.engine->serving_epoch();
    } else {
      FORESIGHT_ASSIGN_OR_RETURN(outcome,
                                 target.registry->Append(dataset, delta));
    }
  }
  {
    ScopedSpan span(log, "serve.encode", root, id);
    EncodedBytes(foresight::WireAppendResponseV1(dataset, outcome));
  }
  ++counters.appends;
  if (outcome.delta_merged) ++counters.appends_merged;
  log.Close(root);

  if (target.shadow_table != nullptr) {
    ScopedSpan shadow(log, "shadow.append", 0, id);
    const size_t old_rows = target.shadow_table->num_rows();
    {
      ScopedSpan span(log, "data.append_rows", shadow.id(), id);
      FORESIGHT_RETURN_IF_ERROR(target.shadow_table->AppendRows(delta));
    }
    ScopedSpan span(log, "profile.append_merge", shadow.id(), id);
    FORESIGHT_RETURN_IF_ERROR(foresight::Preprocessor::AppendToProfile(
        *target.shadow_table, old_rows, foresight::PreprocessOptions{},
        target.shadow_profile, target.shadow_pool));
  }
  return Status::OK();
}

}  // namespace perfbench
