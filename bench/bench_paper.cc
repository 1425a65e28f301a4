// The paper's measurable claims, each behind a gate that fails the run:
//   E1  §3 hyperplane sketch accuracy ">90%", k = O(log^2 n);
//   E3  §3 all-pairs ranking, O(|B|^2 k) from signatures vs O(|B|^2 n);
//   E5  Figure 2, the correlation heatmap;
//   E6  Figure 1, the per-class carousels, sketch vs exact;
//   E7  the §4.1 usage scenario;
//   E8  §3 cost model: O(n k) per sketched column, |B| k bits of signatures;
//   A1  the SketchConfig ablation.
// Every call that can fail goes through ValueOrExit. Writes BENCH_paper.json
// (and E5's Vega-Lite spec, figure2_oecd.vl.json). --smoke runs every
// deterministic gate at these same sizes, skips the timed legs (E3, E8's
// timing) and E1's n = 100k sweep, and writes no files.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_harness.h"
#include "core/explorer.h"
#include "data/generators.h"
#include "sketch/simhash.h"
#include "stats/correlation.h"
#include "stats/frequency.h"
#include "stats/moments.h"
#include "util/random.h"
#include "viz/ascii.h"
#include "viz/vega.h"

using namespace foresight;

namespace {

CorrelationOverview PearsonOverview(const InsightEngine& engine,
                                    ExecutionMode mode,
                                    const std::string& what) {
  return ValueOrExit(
      engine.ComputePairwiseOverview("linear_relationship",
                                     {.metric = "pearson", .mode = mode}),
      what + " overview");
}

/// Mean |sketch - exact| over every pair of two overviews of one table.
double MeanAbsError(const CorrelationOverview& exact,
                    const CorrelationOverview& sketch) {
  const size_t d = exact.attribute_names.size();
  double total = 0.0;
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i + 1; j < d; ++j) {
      total += std::abs(exact.at(i, j) - sketch.at(i, j));
    }
  }
  return total / static_cast<double>(d * (d - 1) / 2);
}

EngineOptions WithBits(size_t bits) {
  EngineOptions options;
  options.preprocess.sketch.hyperplane_bits = bits;
  return options;
}

const double kRhos[] = {-0.95, -0.8, -0.6, -0.4, -0.2, 0.0,
                        0.2,   0.4,  0.6,  0.8,  0.9,  0.95};
const size_t kPrefixBits[] = {64, 128, 256, 512, 1024, 2048, 4096};

struct PairSignatures {
  double exact_rho;
  BitSignature a;
  BitSignature b;
};

/// Both columns of a planted pair, sketched with the same hyperplanes.
PairSignatures SketchPair(size_t n, size_t max_bits, double rho,
                          uint64_t seed) {
  const CorrelatedPair pair = MakeGaussianPair(n, rho, seed);
  const HyperplaneSketcher sketcher(max_bits, seed * 131 + 7);
  return {PearsonCorrelation(pair.x, pair.y),
          sketcher.Sketch(pair.x, MomentsOf(pair.x).mean()),
          sketcher.Sketch(pair.y, MomentsOf(pair.y).mean())};
}

void RunAccuracySweep(size_t n, size_t max_bits, uint64_t seeds_per_rho,
                      BenchReport* report) {
  std::vector<PairSignatures> pairs;
  for (double rho : kRhos) {
    for (uint64_t seed = 1; seed <= seeds_per_rho; ++seed) {
      pairs.push_back(
          SketchPair(n, max_bits, rho,
                     seed * 977 + static_cast<uint64_t>((rho + 2.0) * 1000)));
    }
  }
  const double log2n = std::log2(static_cast<double>(n));
  std::printf("E1 sketch accuracy, n = %zu (k = log^2 n ~ %.0f bits)\n", n,
              log2n * log2n);
  std::printf("  %-8s %-12s %-14s %-12s\n", "k bits", "accuracy %",
              "mean |error|", "worst |err|");
  BenchWorkload workload{"E1 sketch accuracy, n = " + std::to_string(n)};
  bool above_90 = true;
  for (size_t k : kPrefixBits) {
    if (k > max_bits) break;
    double total_error = 0.0, worst = 0.0;
    for (const PairSignatures& p : pairs) {
      const double error = std::abs(
          HyperplaneSketcher::EstimateCorrelationPrefix(p.a, p.b, k) -
          p.exact_rho);
      total_error += error;
      worst = std::max(worst, error);
    }
    const double mean_error = total_error / static_cast<double>(pairs.size());
    const double accuracy = 100.0 * (1.0 - mean_error);
    std::printf("  %-8zu %-12.1f %-14.4f %-12.4f\n", k, accuracy, mean_error,
                worst);
    workload.end_to_end.Set("accuracy_pct_k" + std::to_string(k), accuracy);
    if (k >= 256) above_90 = above_90 && accuracy > 90.0;
  }
  workload.gates.Set("accuracy_above_90pct_at_k_ge_256", above_90);
  report->Add(std::move(workload));
}

/// Sketch-mode top-10 correlations on planted blocks of 4 (rho = 0.65) must
/// be in-block pairs. Every pair in a block shares rho, so block membership,
/// not the exact top-10 order, is the ground truth (§2.1's "similarly high
/// insight-metric scores" caveat).
void RunBlockPrecision(BenchReport* report) {
  const DataTable table = MakeCorrelatedBlocks(20000, 24, 4, 0.65, 1234);
  BenchWorkload workload{"E1 planted-block top-10 precision, 20k x 24"};
  for (size_t bits : {size_t{256}, size_t{512}, size_t{1024}}) {
    const InsightEngine engine = ValueOrExit(
        InsightEngine::Create(table, WithBits(bits)), "E1 engine");
    const std::vector<Insight> top = ValueOrExit(
        engine.TopInsights("linear_relationship", 10, ExecutionMode::kSketch),
        "E1 top-10");
    size_t hits = 0;
    for (const Insight& insight : top) {
      const std::vector<size_t>& pair = insight.attributes.indices;
      if (pair[0] / 4 == pair[1] / 4) ++hits;
    }
    const double precision = static_cast<double>(hits) / 10.0;
    std::printf("E1 planted blocks 20k x 24, %zu bits: precision@10 %.2f\n",
                bits, precision);
    const std::string suffix = "_" + std::to_string(bits) + "_bits";
    workload.end_to_end.Set("precision_at_10" + suffix, precision);
    workload.gates.Set("precision_ge_0.9" + suffix, precision >= 0.9);
  }
  report->Add(std::move(workload));
}

constexpr int kExactReps = 5;
constexpr int kSketchReps = 50;

/// Both overviews over every pair, timed best-of-N on one worker at 256 bits,
/// so neither path's cost hides in k or in parallelism.
void RunPairwiseCost(BenchReport* report) {
  const size_t dims[] = {24, 48};
  const size_t row_counts[] = {12500, 50000, 200000};
  double exact_ms[2][3];
  double sketch_ms[2][3];
  std::printf("E3 all-pairs Pearson overview, 256 bits, 1 worker\n");
  std::printf("  %-4s %-8s %-12s %-12s %-10s\n", "d", "n", "exact ms",
              "sketch ms", "exact/sketch");
  for (size_t di = 0; di < 2; ++di) {
    for (size_t ni = 0; ni < 3; ++ni) {
      const size_t d = dims[di], n = row_counts[ni];
      const DataTable table = MakeCorrelatedBlocks(n, d, 4, 0.6, 31);
      EngineOptions options = WithBits(256);
      options.num_workers = 1;
      const InsightEngine engine = ValueOrExit(
          InsightEngine::Create(table, std::move(options)), "E3 engine");
      BestTime exact, sketch;
      for (int rep = 0; rep < kExactReps; ++rep) {
        exact.Time(
            [&] { PearsonOverview(engine, ExecutionMode::kExact, "E3"); });
      }
      for (int rep = 0; rep < kSketchReps; ++rep) {
        sketch.Time(
            [&] { PearsonOverview(engine, ExecutionMode::kSketch, "E3"); });
      }
      exact_ms[di][ni] = exact.ms();
      sketch_ms[di][ni] = sketch.ms();
      const double ratio = exact.ms() / sketch.ms();
      std::printf("  %-4zu %-8zu %-12.3f %-12.4f %-10.0f\n", d, n, exact.ms(),
                  sketch.ms(), ratio);
      BenchWorkload workload{"E3 overview, d = " + std::to_string(d) +
                             ", n = " + std::to_string(n)};
      workload.end_to_end.Set("exact_ms", exact.ms());
      workload.end_to_end.Set("sketch_ms", sketch.ms());
      workload.end_to_end.Set("exact_over_sketch", ratio);
      workload.gates.Set("signatures_win_20x", ratio >= 20.0);
      if (ni == 2) {  // Against n = 12.5k at the same d: 16x the rows.
        const double sketch_n = sketch.ms() / sketch_ms[di][0];
        const double exact_n = exact.ms() / exact_ms[di][0];
        workload.end_to_end.Set("sketch_n_ratio", sketch_n);
        workload.end_to_end.Set("exact_n_ratio", exact_n);
        workload.gates.Set("sketch_flat_in_n", sketch_n <= 2.0);
        workload.gates.Set("exact_linear_in_n", exact_n >= 8.0);
      }
      if (di == 1) {  // Against d = 24 at the same n: 4.1x the pairs.
        // The sketch path's d-ratio is recorded, not gated: at 0.05-0.3 ms
        // it moves between runs.
        const double exact_d = exact.ms() / exact_ms[0][ni];
        workload.end_to_end.Set("exact_d_ratio", exact_d);
        workload.end_to_end.Set("sketch_d_ratio",
                                sketch.ms() / sketch_ms[0][ni]);
        workload.gates.Set("exact_quadratic_in_d", exact_d >= 3.0);
      }
      report->Add(std::move(workload));
    }
  }
}

/// Figure 2 on the OECD analogue. The sketch heatmap must agree with the
/// exact one in sign on every strong cell (|rho| > 0.3).
void RunFigure2(bool smoke, BenchReport* report) {
  const DataTable table = MakeOecdLike(5000, 1);
  const InsightEngine engine = ValueOrExit(
      InsightEngine::Create(table, WithBits(1024)), "E5 engine");
  const CorrelationOverview exact =
      PearsonOverview(engine, ExecutionMode::kExact, "E5");
  const CorrelationOverview sketch =
      PearsonOverview(engine, ExecutionMode::kSketch, "E5");
  std::printf("E5 Figure 2 heatmap, OECD 5000 rows\n%s\n",
              RenderCorrelationHeatmapAscii(exact).c_str());
  if (!smoke) {
    std::ofstream("figure2_oecd.vl.json")
        << CorrelationHeatmapSpec(exact, "OECD pairwise correlations").Dump(2);
    std::printf("wrote figure2_oecd.vl.json\n");
  }
  const size_t d = exact.attribute_names.size();
  size_t strong = 0, strong_sign_ok = 0;
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i + 1; j < d; ++j) {
      if (std::abs(exact.at(i, j)) <= 0.3) continue;
      ++strong;
      if (exact.at(i, j) * sketch.at(i, j) > 0.0) ++strong_sign_ok;
    }
  }
  const double mean_error = MeanAbsError(exact, sketch);
  std::printf("E5 sketch vs exact: mean |error| %.4f; sign agreement on "
              "strong cells %zu/%zu\n", mean_error, strong_sign_ok, strong);
  BenchWorkload workload{"E5 Figure 2 heatmap, OECD 5000 x " +
                         std::to_string(d) + ", 1024 bits"};
  workload.end_to_end.Set("mean_abs_error", mean_error);
  workload.end_to_end.Set("strong_cells", strong);
  workload.end_to_end.Set("strong_cells_sign_agree", strong_sign_ok);
  workload.gates.Set("sign_on_strong_cells", strong_sign_ok == strong);
  report->Add(std::move(workload));
}

/// Eight blocks of 4 at rho = 0.65: exact cells within 0.05 of the planted
/// value, sketch cells within 0.20. At k = 1024 the rho = 0 estimator's
/// standard error is pi * sqrt(1 / (4k)) ~ 0.05, so 0.20 is 4 sigma.
void RunPlantedBlocks(BenchReport* report) {
  const DataTable table = MakeCorrelatedBlocks(50000, 32, 4, 0.65, 5);
  const InsightEngine engine = ValueOrExit(
      InsightEngine::Create(table, WithBits(1024)), "E5 engine");
  const CorrelationOverview exact =
      PearsonOverview(engine, ExecutionMode::kExact, "E5 blocks");
  const CorrelationOverview sketch =
      PearsonOverview(engine, ExecutionMode::kSketch, "E5 blocks");
  size_t in_block = 0, in_exact = 0, in_sketch = 0;
  size_t cross = 0, cross_exact = 0, cross_sketch = 0;
  for (size_t i = 0; i < 32; ++i) {
    for (size_t j = i + 1; j < 32; ++j) {
      const double e = exact.at(i, j), s = sketch.at(i, j);
      if (i / 4 == j / 4) {
        ++in_block;
        in_exact += std::abs(e - 0.65) < 0.05;
        in_sketch += std::abs(s - 0.65) < 0.2;
      } else {
        ++cross;
        cross_exact += std::abs(e) < 0.05;
        cross_sketch += std::abs(s) < 0.2;
      }
    }
  }
  std::printf("E5 planted blocks 50k x 32: exact in-block %zu/%zu, "
              "cross-block %zu/%zu; sketch in-block %zu/%zu, cross-block "
              "%zu/%zu\n", in_exact, in_block, cross_exact, cross, in_sketch,
              in_block, cross_sketch, cross);
  BenchWorkload workload{"E5 planted blocks, 50k x 32, 1024 bits"};
  workload.end_to_end.Set("in_block_cells", in_block);
  workload.end_to_end.Set("cross_block_cells", cross);
  workload.gates.Set("exact_in_block", in_exact == in_block);
  workload.gates.Set("exact_cross_block", cross_exact == cross);
  workload.gates.Set("sketch_in_block", in_sketch == in_block);
  workload.gates.Set("sketch_cross_block", cross_sketch == cross);
  report->Add(std::move(workload));
}

/// Insights scoring at least 30% of the class's top score (and above a small
/// floor). Near-tied or all-zero scores make the exact top-k subset
/// arbitrary, the §2.1 caveat, so the agreement measures skip the rest.
double MeaningfulFloor(const std::vector<Insight>& exact) {
  return exact.empty() ? 0.0 : std::max(1e-6, 0.3 * exact.front().score);
}

/// Share of the meaningful exact top-k that the sketch top-k also holds; -1
/// when the class has no meaningful insight.
double PrecisionAtK(const std::vector<Insight>& exact,
                    const std::vector<Insight>& sketch) {
  const double floor = MeaningfulFloor(exact);
  size_t meaningful = 0, hits = 0;
  for (const Insight& e : exact) {
    if (e.score < floor) continue;
    ++meaningful;
    hits += std::any_of(sketch.begin(), sketch.end(), [&](const Insight& s) {
      return s.attributes == e.attributes;
    });
  }
  if (meaningful == 0) return -1.0;
  return static_cast<double>(hits) / static_cast<double>(meaningful);
}

/// Spearman correlation of the exact and sketch scores over every meaningful
/// candidate of a class: a tie-robust agreement measure, where precision@5
/// is brittle. -2 when fewer than 3 candidates or their scores are constant.
double FullRankingAgreement(const InsightEngine& engine,
                            const std::string& class_name) {
  InsightQuery query;
  query.class_name = class_name;
  query.top_k = std::numeric_limits<size_t>::max();
  query.mode = ExecutionMode::kExact;
  const InsightQueryResult exact =
      ValueOrExit(engine.Execute(query), "E6 exact ranking " + class_name);
  query.mode = ExecutionMode::kSketch;
  const InsightQueryResult sketch =
      ValueOrExit(engine.Execute(query), "E6 sketch ranking " + class_name);
  std::map<std::vector<size_t>, double> sketch_scores;
  for (const Insight& insight : sketch.insights) {
    sketch_scores[insight.attributes.indices] = insight.score;
  }
  const double floor = MeaningfulFloor(exact.insights);
  std::vector<double> a, b;
  for (const Insight& insight : exact.insights) {
    if (insight.score < floor) break;  // Sorted descending.
    auto it = sketch_scores.find(insight.attributes.indices);
    if (it == sketch_scores.end()) continue;
    a.push_back(insight.score);
    b.push_back(it->second);
  }
  if (a.size() < 3 ||
      std::all_of(a.begin(), a.end(), [&](double v) { return v == a[0]; })) {
    return -2.0;
  }
  return SpearmanCorrelation(a, b);
}

void RunCarousels(const std::string& name, const DataTable& table,
                  double floor, BenchReport* report) {
  std::printf("E6 carousels, %s (%zu x %zu)\n", name.c_str(),
              table.num_rows(), table.num_columns());
  const InsightEngine engine =
      ValueOrExit(InsightEngine::Create(table), "E6 engine");
  double total_precision = 0.0, total_rank_corr = 0.0;
  size_t classes = 0, rank_classes = 0;
  std::printf("  %-26s %-11s %-9s %s\n", "class", "precision@5", "rank-corr",
              "strongest insight (exact)");
  for (const std::string& class_name : engine.registry().names()) {
    const std::vector<Insight> exact = ValueOrExit(
        engine.TopInsights(class_name, 5, ExecutionMode::kExact),
        "E6 exact " + class_name);
    const std::vector<Insight> sketch = ValueOrExit(
        engine.TopInsights(class_name, 5, ExecutionMode::kSketch),
        "E6 sketch " + class_name);
    const double precision = PrecisionAtK(exact, sketch);
    const double rank_corr = FullRankingAgreement(engine, class_name);
    char precision_text[16] = "n/a", rank_text[16] = "n/a";
    if (precision >= 0.0) {
      total_precision += precision;
      ++classes;
      std::snprintf(precision_text, sizeof(precision_text), "%.2f", precision);
    }
    if (rank_corr >= -1.0) {
      total_rank_corr += rank_corr;
      ++rank_classes;
      std::snprintf(rank_text, sizeof(rank_text), "%.2f", rank_corr);
    }
    std::string top = exact.empty() ? "(no candidates)" : exact[0].description;
    if (top.size() > 60) top = top.substr(0, 57) + "...";
    std::printf("  %-26s %-11s %-9s %s\n", class_name.c_str(), precision_text,
                rank_text, top.c_str());
  }
  const double mean_precision =
      classes > 0 ? total_precision / static_cast<double>(classes) : 0.0;
  const double mean_rank_corr =
      rank_classes > 0 ? total_rank_corr / static_cast<double>(rank_classes)
                       : 0.0;
  std::printf("  mean precision@5 %.2f over %zu classes (floor %.2f); mean "
              "full-ranking Spearman %.2f over %zu classes\n",
              mean_precision, classes, floor, mean_rank_corr, rank_classes);
  BenchWorkload workload{"E6 carousels, " + name};
  workload.end_to_end.Set("mean_precision_at_5", mean_precision);
  workload.end_to_end.Set("precision_floor", floor);
  workload.end_to_end.Set("mean_full_ranking_spearman", mean_rank_corr);
  workload.gates.Set("precision_at_5_above_floor", mean_precision >= floor);
  report->Add(std::move(workload));
}

bool MentionsBoth(const Insight& insight, const std::string& a,
                  const std::string& b) {
  const std::vector<std::string>& names = insight.attribute_names;
  return std::find(names.begin(), names.end(), a) != names.end() &&
         std::find(names.begin(), names.end(), b) != names.end();
}

/// One step of the scenario: its wall time and whether its claim held.
struct ScenarioStep {
  std::string name;
  double ms = 0.0;
  bool ok = false;
};

/// The analyst's six steps, once, on a fresh ExplorationSession (so a fresh
/// result cache: the carousels are built, not replayed).
std::vector<ScenarioStep> RunScenarioOnce(const DataTable& table,
                                          const InsightEngine& engine) {
  std::vector<ScenarioStep> steps;
  ExplorationSession session(engine);
  WallTimer timer;
  auto step = [&](const std::string& name, bool ok) {
    steps.push_back({name, timer.ElapsedMillis(), ok});
    timer.Restart();
  };

  // 1. The opening carousels hold the strong work/leisure anti-correlation.
  std::optional<Insight> work_leisure;
  for (const Carousel& carousel :
       ValueOrExit(session.InitialCarousels(), "E7 carousels")) {
    if (carousel.class_name != "linear_relationship") continue;
    for (const Insight& insight : carousel.insights) {
      if (MentionsBoth(insight, "WorkingLongHours", "TimeDevotedToLeisure")) {
        work_leisure = insight;
      }
    }
  }
  step("open_carousels",
       work_leisure.has_value() && work_leisure->raw_value < -0.6);

  // 2. Focusing it re-ranks the recommendations toward its neighborhood.
  bool recommended = false;
  if (work_leisure.has_value()) {
    session.Focus(*work_leisure);
    recommended =
        !ValueOrExit(session.Recommendations(), "E7 recommendations").empty();
  }
  step("focus_recommendations", recommended);

  // 3. Leisure's Pearson and Spearman correlates leave health near zero.
  bool health_uncorrelated = true;
  for (const char* class_name :
       {"linear_relationship", "monotonic_relationship"}) {
    InsightQuery query;
    query.class_name = class_name;
    query.fixed_attributes = {"TimeDevotedToLeisure"};
    query.top_k = 23;
    const InsightQueryResult result =
        ValueOrExit(engine.Execute(query), "E7 leisure correlates");
    for (const Insight& insight : result.insights) {
      if (MentionsBoth(insight, "TimeDevotedToLeisure", "SelfReportedHealth")) {
        health_uncorrelated = health_uncorrelated && insight.score < 0.15;
      }
    }
  }
  step("leisure_health_uncorrelated", health_uncorrelated);

  // 4. Leisure is close to Normal; health is left-skewed.
  const AttributeTuple leisure{{*table.ColumnIndex("TimeDevotedToLeisure")}};
  const AttributeTuple health{{*table.ColumnIndex("SelfReportedHealth")}};
  const Insight leisure_skew =
      ValueOrExit(engine.EvaluateTuple("skew", leisure), "E7 leisure skew");
  const Insight leisure_tails = ValueOrExit(
      engine.EvaluateTuple("heavy_tails", leisure), "E7 leisure tails");
  const Insight health_skew =
      ValueOrExit(engine.EvaluateTuple("skew", health), "E7 health skew");
  step("distributions", std::abs(leisure_skew.raw_value) < 0.15 &&
                            std::abs(leisure_tails.raw_value - 3.0) < 0.4 &&
                            health_skew.raw_value < -0.4);

  // 5. Focusing health makes LifeSatisfaction its top correlate.
  session.Focus(health_skew);
  InsightQuery query;
  query.class_name = "linear_relationship";
  query.fixed_attributes = {"SelfReportedHealth"};
  query.top_k = 3;
  const InsightQueryResult correlates =
      ValueOrExit(engine.Execute(query), "E7 health correlates");
  step("health_top_correlate",
       !correlates.insights.empty() &&
           MentionsBoth(correlates.insights[0], "LifeSatisfaction",
                        "SelfReportedHealth") &&
           correlates.insights[0].raw_value > 0.4);

  // 6. The session state round-trips for sharing.
  const ExplorationSession restored = ValueOrExit(
      ExplorationSession::LoadState(engine, session.SaveState()),
      "E7 restore");
  step("save_restore", restored.focused().size() == session.focused().size());
  return steps;
}

/// The scenario at the paper's intended scale (the demo table has 35 rows;
/// Foresight targets "the order of 100K"). A single timing of a step in the
/// 10 ms range moves by 2x between runs, so the scenario replays
/// kScenarioReps times and each step reports its median time; its gate
/// holds only if it held in every replay.
void RunScenario(BenchReport* report) {
  constexpr size_t kScenarioReps = 7;
  std::printf("E7 §4.1 usage scenario, OECD 100k rows (median of %zu)\n",
              kScenarioReps);
  const DataTable table = MakeOecdLike(100000, 1);
  WallTimer timer;
  const InsightEngine engine =
      ValueOrExit(InsightEngine::Create(table), "E7 engine");
  BenchWorkload workload{"E7 §4.1 scenario, OECD 100k"};
  workload.end_to_end.Set("preprocess_seconds", timer.ElapsedSeconds());
  std::vector<std::vector<ScenarioStep>> runs;
  for (size_t rep = 0; rep < kScenarioReps; ++rep) {
    runs.push_back(RunScenarioOnce(table, engine));
  }
  for (size_t s = 0; s < runs.front().size(); ++s) {
    const std::string& name = runs.front()[s].name;
    std::vector<double> ms;
    bool ok = true;
    for (const std::vector<ScenarioStep>& run : runs) {
      ms.push_back(run[s].ms);
      ok = ok && run[s].ok;
    }
    std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
    const double median = ms[ms.size() / 2];
    std::printf("  [%s] %-28s %8.1f ms\n", ok ? "PASS" : "FAIL", name.c_str(),
                median);
    workload.end_to_end.Set(name + "_ms", median);
    workload.gates.Set(name, ok);
  }
  report->Add(std::move(workload));
}

/// One column's Sketch costs O(n k): the time per (row, bit) cell must stay
/// within 1.5x across (n, k).
void RunSketchCost(BenchReport* report) {
  BenchWorkload workload{"E8 HyperplaneSketcher::Sketch per column"};
  double lo = std::numeric_limits<double>::infinity(), hi = 0.0;
  std::printf("E8 Sketch time per column\n");
  for (const auto& [n, k] : {std::pair<size_t, size_t>{10000, 128},
                             {10000, 512},
                             {50000, 256}}) {
    Rng rng(3);
    std::vector<double> values(n);
    for (double& v : values) v = rng.Normal();
    const HyperplaneSketcher sketcher(k, 5);
    BitSignature signature;
    BestTime best;
    for (int rep = 0; rep < 5; ++rep) {
      best.Time([&] { signature = sketcher.Sketch(values, 0.0); });
    }
    const double ns_per_cell =
        best.ms() * 1e6 / static_cast<double>(n * signature.num_bits());
    lo = std::min(lo, ns_per_cell);
    hi = std::max(hi, ns_per_cell);
    std::printf("  n %-7zu k %-5zu %8.3f ms  %.3f ns per cell\n", n, k,
                best.ms(), ns_per_cell);
    workload.end_to_end.Set(
        "ns_per_cell_n" + std::to_string(n) + "_k" + std::to_string(k),
        ns_per_cell);
  }
  workload.gates.Set("linear_in_n_times_k", hi <= 1.5 * lo);
  report->Add(std::move(workload));
}

/// Every numeric column's signature in a real profile is ceil(k / 64) words,
/// k = ResolveHyperplaneBits(n).
void RunSignatureBytes(BenchReport* report) {
  for (size_t n : {size_t{10000}, size_t{100000}}) {
    const DataTable table = MakeCorrelatedBlocks(n, 24, 4, 0.5, 22);
    const TableProfile profile =
        ValueOrExit(Preprocessor::Profile(table), "E8 profile");
    const size_t k = PreprocessOptions().sketch.ResolveHyperplaneBits(n);
    const size_t expected = (k + 63) / 64 * sizeof(uint64_t);
    size_t total = 0;
    bool sized = true;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const BitSignature& signature = profile.numeric_sketch(c).signature;
      const size_t bytes = signature.words().size() * sizeof(uint64_t);
      total += bytes;
      sized = sized && signature.num_bits() == k && bytes == expected;
    }
    const size_t raw = n * table.num_columns() * sizeof(double);
    std::printf("E8 n = %zu: k = %zu, %zu columns x %zu bytes = %zu bytes "
                "of signatures (raw data %zu bytes)\n", n, k,
                table.num_columns(), expected, total, raw);
    BenchWorkload workload{"E8 signature bytes, " + std::to_string(n) +
                           " x 24"};
    workload.end_to_end.Set("k_bits", k);
    workload.end_to_end.Set("signature_bytes", total);
    workload.end_to_end.Set("raw_bytes", raw);
    workload.gates.Set("ceil_k_over_64_words_per_column", sized);
    report->Add(std::move(workload));
  }
}

/// Mean |sketch - exact| of the Spearman metric over every candidate pair.
double SpearmanError(const InsightEngine& engine) {
  const InsightClass* c = engine.registry().Find("monotonic_relationship");
  double total = 0.0;
  size_t count = 0;
  for (const AttributeTuple& tuple : c->EnumerateCandidates(engine.table())) {
    total += std::abs(
        ValueOrExit(c->EvaluateExact(engine.table(), tuple, "spearman"),
                    "A1 exact spearman") -
        ValueOrExit(c->EvaluateSketch(engine.profile(), tuple, "spearman"),
                    "A1 sketch spearman"));
    ++count;
  }
  return total / static_cast<double>(count);
}

/// One knob's sweep, smallest setting first; `error(setting)` measures it.
template <typename ErrorFn>
void RunKnob(const std::string& label, std::initializer_list<size_t> settings,
             ErrorFn&& error, BenchReport* report) {
  std::printf("A1 %s\n", label.c_str());
  BenchWorkload workload{"A1 " + label};
  std::vector<double> errors;
  for (size_t setting : settings) {
    errors.push_back(error(setting));
    std::printf("  %-6zu |err| %.4f\n", setting, errors.back());
    workload.end_to_end.Set("error_at_" + std::to_string(setting),
                            errors.back());
  }
  workload.gates.Set("error_falls_with_size", errors.back() < errors.front());
  report->Add(std::move(workload));
}

void RunAblation(BenchReport* report) {
  const DataTable oecd = MakeOecdLike(30000, 9);
  RunKnob("hyperplane_bits, Pearson overview error, OECD 30k",
          {64, 128, 256, 512, 1024, 2048}, [&](size_t bits) {
            const InsightEngine engine = ValueOrExit(
                InsightEngine::Create(oecd, WithBits(bits)), "A1 engine");
            return MeanAbsError(
                PearsonOverview(engine, ExecutionMode::kExact, "A1"),
                PearsonOverview(engine, ExecutionMode::kSketch, "A1"));
          }, report);
  RunKnob("row_sample_size, Spearman error, OECD 30k",
          {256, 512, 1024, 2048, 4096}, [&](size_t sample) {
            EngineOptions options = WithBits(128);
            options.preprocess.row_sample_size = sample;
            return SpearmanError(ValueOrExit(
                InsightEngine::Create(oecd, std::move(options)), "A1 engine"));
          }, report);

  const DataTable imdb = MakeImdbLike(30000, 10);
  auto imdb_profile = [&](PreprocessOptions options) {
    options.sketch.hyperplane_bits = 64;
    return ValueOrExit(Preprocessor::Profile(imdb, options), "A1 profile");
  };
  const size_t director = *imdb.ColumnIndex("director_name");
  const double exact_rel_freq =
      FrequencyTable(imdb.column(director).AsCategorical()).RelFreq(5);
  RunKnob("spacesaving_capacity, RelFreq(5) error, IMDB directors",
          {8, 16, 32, 64, 128}, [&](size_t capacity) {
            PreprocessOptions options;
            options.sketch.spacesaving_capacity = capacity;
            return std::abs(imdb_profile(options)
                                .categorical_sketch(director)
                                .heavy_hitters.RelFreqEstimate(5) -
                            exact_rel_freq);
          }, report);
  const size_t keyword = *imdb.ColumnIndex("plot_keyword_1");
  const double exact_entropy =
      FrequencyTable(imdb.column(keyword).AsCategorical()).Entropy();
  RunKnob("entropy_k, entropy error, IMDB keywords", {32, 64, 128, 256, 512},
          [&](size_t k) {
            PreprocessOptions options;
            options.sketch.entropy_k = k;
            return std::abs(imdb_profile(options)
                                .categorical_sketch(keyword)
                                .entropy.EstimateEntropy() -
                            exact_entropy);
          }, report);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv, {"--smoke"});
  // Engines left at the default worker count use every core.
  BenchReport report("paper", std::thread::hardware_concurrency());
  RunAccuracySweep(10000, 4096, 2, &report);
  if (!flags.smoke) RunAccuracySweep(100000, 1024, 1, &report);
  RunBlockPrecision(&report);
  if (!flags.smoke) RunPairwiseCost(&report);
  RunFigure2(flags.smoke, &report);
  RunPlantedBlocks(&report);
  RunCarousels("OECD wellbeing", MakeOecdLike(5000, 1), 0.70, &report);
  RunCarousels("Parkinson PPMI", MakeParkinsonLike(2000, 2), 0.85, &report);
  RunCarousels("IMDB movies", MakeImdbLike(5000, 3), 0.80, &report);
  RunScenario(&report);
  if (!flags.smoke) RunSketchCost(&report);
  RunSignatureBytes(&report);
  RunAblation(&report);
  return report.Finish(flags.smoke);
}
