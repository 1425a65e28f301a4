#ifndef FORESIGHT_CORE_EXPLORER_H_
#define FORESIGHT_CORE_EXPLORER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/session.h"
#include "util/json.h"
#include "util/status.h"

namespace foresight {

/// One carousel of the UI (Figure 1): an insight class with its top-ranked
/// instances, strongest first.
struct Carousel {
  std::string class_name;
  std::string display_name;
  std::vector<Insight> insights;
};

/// Knobs for the neighborhood recommendation policy (§2.1: "Two insights can
/// be considered similar if their metric scores are similar or if the sets of
/// fixed attributes are similar").
struct ExplorationOptions {
  size_t carousel_size = 5;
  /// Weight of attribute-set similarity (Jaccard) in insight similarity.
  double attribute_weight = 0.6;
  /// Weight of metric-score proximity in insight similarity.
  double score_weight = 0.4;
  /// Blend between base strength and focus similarity when re-ranking:
  /// rank_score = (1 - focus_boost) * score + focus_boost * similarity.
  double focus_boost = 0.5;
  /// Candidate pool multiplier: each class's top (pool_factor * carousel_size)
  /// insights are re-ranked against the focus set.
  size_t pool_factor = 4;
  ExecutionMode mode = ExecutionMode::kAuto;
};

/// Interactive exploration session over an InsightEngine (§4.1): initial
/// carousels, focusing insights, neighborhood-driven re-recommendation, and
/// state save/restore ("our analyst saves the current Foresight state to
/// revisit later and to share with her colleagues").
class ExplorationSession {
 public:
  /// `engine` must outlive the session. Carousel queries run through a
  /// private QuerySession, so re-building carousels (e.g. Recommendations()
  /// after each Focus() change) reuses cached per-class rankings instead of
  /// re-evaluating every candidate.
  explicit ExplorationSession(const InsightEngine& engine,
                              ExplorationOptions options = {});

  /// Shares an external QuerySession (and therefore its result cache) with
  /// other consumers — e.g. many exploration sessions over one hot table.
  /// `session` must outlive this object.
  explicit ExplorationSession(const QuerySession& session,
                              ExplorationOptions options = {});

  const ExplorationOptions& options() const { return options_; }

  /// First-stage exploration: one carousel per registered insight class with
  /// its strongest instances (open-ended recommendations).
  StatusOr<std::vector<Carousel>> InitialCarousels() const;

  /// Adds an insight to the focus set (idempotent on identical keys).
  void Focus(const Insight& insight);

  /// Removes an insight from the focus set by key; no-op when absent.
  void Unfocus(const std::string& insight_key);

  const std::vector<Insight>& focused() const { return focus_; }

  /// Second-stage exploration: carousels re-ranked toward the neighborhood of
  /// the focused insights. With an empty focus set this equals
  /// InitialCarousels().
  StatusOr<std::vector<Carousel>> Recommendations() const;

  /// Similarity between two insights per §2.1 (attribute overlap + metric
  /// score proximity; cross-class pairs use attribute overlap only).
  double Similarity(const Insight& a, const Insight& b) const;

  /// Serializes focus set and options to JSON.
  JsonValue SaveState() const;

  /// Restores a session (focus set re-evaluated against `engine` so scores
  /// reflect the current data). Fails on unknown classes/attributes.
  static StatusOr<ExplorationSession> LoadState(const InsightEngine& engine,
                                                const JsonValue& state);

 private:
  /// Builds one carousel per registered class, in registry order, from one
  /// QuerySession::ExecuteBatch of the per-class queries; a failure reports
  /// the first failing class in that order.
  StatusOr<std::vector<Carousel>> BuildCarousels(bool apply_focus) const;

  /// Turns one class's ranked `insights` into its carousel: optional focus
  /// re-rank, then truncation to carousel_size.
  Carousel BuildOneCarousel(const std::string& class_name,
                            std::vector<Insight> insights,
                            bool apply_focus) const;

  const InsightEngine* engine_;
  /// Set when this object owns its QuerySession (engine constructor);
  /// query_session_ points at it, or at the shared external session.
  std::unique_ptr<QuerySession> owned_session_;
  const QuerySession* query_session_;
  ExplorationOptions options_;
  std::vector<Insight> focus_;
};

}  // namespace foresight

#endif  // FORESIGHT_CORE_EXPLORER_H_
