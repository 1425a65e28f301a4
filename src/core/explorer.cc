#include "core/explorer.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

namespace foresight {

ExplorationSession::ExplorationSession(const InsightEngine& engine,
                                       ExplorationOptions options)
    : engine_(&engine),
      owned_session_(std::make_unique<QuerySession>(engine)),
      query_session_(owned_session_.get()),
      options_(options) {}

ExplorationSession::ExplorationSession(const QuerySession& session,
                                       ExplorationOptions options)
    : engine_(&session.engine()),
      query_session_(&session),
      options_(options) {}

StatusOr<std::vector<Carousel>> ExplorationSession::InitialCarousels() const {
  return BuildCarousels(/*apply_focus=*/false);
}

void ExplorationSession::Focus(const Insight& insight) {
  for (const Insight& existing : focus_) {
    if (existing.Key() == insight.Key()) return;
  }
  focus_.push_back(insight);
}

void ExplorationSession::Unfocus(const std::string& insight_key) {
  focus_.erase(std::remove_if(focus_.begin(), focus_.end(),
                              [&](const Insight& insight) {
                                return insight.Key() == insight_key;
                              }),
               focus_.end());
}

StatusOr<std::vector<Carousel>> ExplorationSession::Recommendations() const {
  return BuildCarousels(/*apply_focus=*/!focus_.empty());
}

double ExplorationSession::Similarity(const Insight& a,
                                      const Insight& b) const {
  double attribute_similarity = AttributeJaccard(a.attributes, b.attributes);
  if (a.class_name != b.class_name) {
    // Cross-class: only structural (shared attributes) similarity counts.
    return options_.attribute_weight * attribute_similarity;
  }
  // Same class: metric scores live on the same scale, so score proximity is
  // meaningful. Map |score gap| through a soft falloff.
  double score_gap = std::abs(a.score - b.score);
  double score_similarity = 1.0 / (1.0 + 4.0 * score_gap);
  return options_.attribute_weight * attribute_similarity +
         options_.score_weight * score_similarity;
}

StatusOr<std::vector<Carousel>> ExplorationSession::BuildCarousels(
    bool apply_focus) const {
  size_t pool_size = options_.carousel_size *
                     (apply_focus ? std::max<size_t>(1, options_.pool_factor) : 1);
  const std::vector<std::string> names = engine_->registry().names();

  // One query per class, served as one batch through the serving layer:
  // repeated carousel builds (initial view, every focus-driven
  // re-recommendation) hit the result cache instead of re-evaluating the
  // class, and the misses share one ExecuteBatch, which evaluates each
  // class's candidates on the engine pool. A failure reports the first
  // failing class in registry order. Focus re-ranking happens on the
  // returned copies, so cached entries stay pristine.
  std::vector<InsightQuery> queries(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    queries[i].class_name = names[i];
    queries[i].top_k = pool_size;
    queries[i].mode = options_.mode;
  }
  FORESIGHT_ASSIGN_OR_RETURN(std::vector<InsightQueryResult> results,
                             query_session_->ExecuteBatch(queries));
  std::vector<Carousel> carousels;
  carousels.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    carousels.push_back(BuildOneCarousel(
        names[i], std::move(results[i].insights), apply_focus));
  }
  return carousels;
}

Carousel ExplorationSession::BuildOneCarousel(const std::string& class_name,
                                              std::vector<Insight> insights,
                                              bool apply_focus) const {
  Carousel carousel;
  carousel.class_name = class_name;
  carousel.display_name = engine_->registry().Find(class_name)->display_name();
  carousel.insights = std::move(insights);

  if (apply_focus && !carousel.insights.empty()) {
    // Re-rank the pool toward the focus neighborhood: blend base strength
    // (normalized within the pool, since score scales differ per class)
    // with the best similarity to any focused insight.
    double max_score = 0.0;
    for (const Insight& insight : carousel.insights) {
      max_score = std::max(max_score, insight.score);
    }
    auto rank_score = [&](const Insight& insight) {
      double normalized = max_score > 0.0 ? insight.score / max_score : 0.0;
      double best_similarity = 0.0;
      for (const Insight& focused : focus_) {
        best_similarity =
            std::max(best_similarity, Similarity(insight, focused));
      }
      return (1.0 - options_.focus_boost) * normalized +
             options_.focus_boost * best_similarity;
    };
    std::stable_sort(carousel.insights.begin(), carousel.insights.end(),
                     [&](const Insight& a, const Insight& b) {
                       return rank_score(a) > rank_score(b);
                     });
  }
  if (carousel.insights.size() > options_.carousel_size) {
    carousel.insights.resize(options_.carousel_size);
  }
  return carousel;
}

JsonValue ExplorationSession::SaveState() const {
  JsonValue state = JsonValue::Object();
  state.Set("version", 1);
  JsonValue focus_array = JsonValue::Array();
  for (const Insight& insight : focus_) {
    JsonValue item = JsonValue::Object();
    item.Set("class", insight.class_name);
    item.Set("metric", insight.metric_name);
    JsonValue attrs = JsonValue::Array();
    for (const std::string& name : insight.attribute_names) {
      attrs.Append(name);
    }
    item.Set("attributes", std::move(attrs));
    item.Set("score", insight.score);
    item.Set("raw_value", insight.raw_value);
    focus_array.Append(std::move(item));
  }
  state.Set("focus", std::move(focus_array));
  JsonValue opts = JsonValue::Object();
  opts.Set("carousel_size", options_.carousel_size);
  opts.Set("attribute_weight", options_.attribute_weight);
  opts.Set("score_weight", options_.score_weight);
  opts.Set("focus_boost", options_.focus_boost);
  opts.Set("pool_factor", options_.pool_factor);
  state.Set("options", std::move(opts));
  return state;
}

StatusOr<ExplorationSession> ExplorationSession::LoadState(
    const InsightEngine& engine, const JsonValue& state) {
  if (!state.is_object()) {
    return Status::ParseError("session state must be a JSON object");
  }
  ExplorationOptions options;
  if (const JsonValue* opts = state.Get("options"); opts && opts->is_object()) {
    // Count options must be whole numbers; absent or non-number entries keep
    // their defaults.
    auto read_size = [opts](const char* key, size_t* out) -> Status {
      const JsonValue* v = opts->Get(key);
      if (v == nullptr || !v->is_number()) return Status::OK();
      std::optional<size_t> size = SizeFromJsonNumber(v->as_number());
      if (!size.has_value()) {
        return Status::ParseError(std::string(key) +
                                  " must be a non-negative whole number");
      }
      *out = *size;
      return Status::OK();
    };
    FORESIGHT_RETURN_IF_ERROR(
        read_size("carousel_size", &options.carousel_size));
    if (const JsonValue* v = opts->Get("attribute_weight"); v && v->is_number()) {
      options.attribute_weight = v->as_number();
    }
    if (const JsonValue* v = opts->Get("score_weight"); v && v->is_number()) {
      options.score_weight = v->as_number();
    }
    if (const JsonValue* v = opts->Get("focus_boost"); v && v->is_number()) {
      options.focus_boost = v->as_number();
    }
    FORESIGHT_RETURN_IF_ERROR(
        read_size("pool_factor", &options.pool_factor));
  }
  ExplorationSession session(engine, options);

  const JsonValue* focus = state.Get("focus");
  if (focus != nullptr) {
    if (!focus->is_array()) {
      return Status::ParseError("'focus' must be an array");
    }
    for (size_t i = 0; i < focus->size(); ++i) {
      const JsonValue& item = focus->at(i);
      const JsonValue* class_name = item.Get("class");
      const JsonValue* attrs = item.Get("attributes");
      if (class_name == nullptr || !class_name->is_string() ||
          attrs == nullptr || !attrs->is_array()) {
        return Status::ParseError("focus item missing 'class' or 'attributes'");
      }
      AttributeTuple tuple;
      for (size_t a = 0; a < attrs->size(); ++a) {
        if (!attrs->at(a).is_string()) {
          return Status::ParseError("attribute names must be strings");
        }
        FORESIGHT_ASSIGN_OR_RETURN(
            size_t index, engine.table().ColumnIndex(attrs->at(a).as_string()));
        tuple.indices.push_back(index);
      }
      const JsonValue* metric = item.Get("metric");
      std::string metric_name =
          (metric != nullptr && metric->is_string()) ? metric->as_string() : "";
      // Re-evaluate against the engine so restored scores match the data.
      FORESIGHT_ASSIGN_OR_RETURN(
          Insight insight,
          engine.EvaluateTuple(class_name->as_string(), tuple, metric_name));
      session.Focus(insight);
    }
  }
  return session;
}

}  // namespace foresight
