// Equivalence gate for the sketch-first prune planner (DESIGN.md
// "Sketch-first pruning"): for every eligible exact-mode pairwise query the
// pruned execution must be BIT-IDENTICAL to exhaustive exact evaluation —
// same top-k set, same ranks, same raw values — across seeds, null patterns,
// worker counts, and adversarial near-threshold ties. The planner is only
// allowed to change how much work is done, never the answer.

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "data/generators.h"
#include "data/table.h"
#include "stats/correlation.h"

namespace foresight {
namespace {

constexpr size_t kBits = 2048;  // Tight Hoeffding bounds so pruning triggers.

InsightEngine MakeEngine(const DataTable& table, size_t workers = 1) {
  EngineOptions options;
  options.preprocess.sketch.hyperplane_bits = kBits;
  options.num_workers = workers;
  auto engine = InsightEngine::Create(table, std::move(options));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

/// The exhaustive exact reference: an engine built without a sketch profile
/// has no signatures to plan with, so it evaluates every candidate pair.
StatusOr<InsightQueryResult> ExecuteExhaustive(const DataTable& table,
                                               const InsightQuery& query) {
  EngineOptions options;
  options.build_profile = false;
  options.num_workers = 1;
  auto engine = InsightEngine::Create(table, std::move(options));
  if (!engine.ok()) return engine.status();
  return engine->Execute(query);
}

InsightQuery ExactTopK(size_t k) {
  InsightQuery query;
  query.class_name = "linear_relationship";
  query.metric = "pearson";
  query.mode = ExecutionMode::kExact;
  query.top_k = k;
  return query;
}

/// Set AND ranks AND values: every position must match bit-for-bit.
void ExpectSameRanking(const InsightQueryResult& pruned,
                       const InsightQueryResult& exhaustive) {
  ASSERT_EQ(pruned.insights.size(), exhaustive.insights.size());
  for (size_t i = 0; i < pruned.insights.size(); ++i) {
    EXPECT_EQ(pruned.insights[i].attributes.indices,
              exhaustive.insights[i].attributes.indices)
        << "rank " << i;
    EXPECT_EQ(pruned.insights[i].raw_value, exhaustive.insights[i].raw_value)
        << "rank " << i;
    EXPECT_EQ(pruned.insights[i].score, exhaustive.insights[i].score)
        << "rank " << i;
  }
}

/// Telemetry invariants: the pruned result reports the full considered count
/// (comparable with exhaustive runs), every considered pair is accounted for
/// as either pruned or refined, and unsafe pairs are refined.
void ExpectTelemetryConsistent(const InsightQueryResult& pruned,
                               const InsightQueryResult& exhaustive) {
  const PruneTelemetry& t = pruned.prune;
  EXPECT_TRUE(t.used);
  EXPECT_FALSE(exhaustive.prune.used);
  EXPECT_EQ(pruned.candidates_evaluated, exhaustive.candidates_evaluated);
  EXPECT_EQ(t.pairs_total, exhaustive.candidates_evaluated);
  EXPECT_EQ(t.pairs_pruned + t.pairs_refined, t.pairs_total);
  EXPECT_GE(t.pairs_refined, pruned.insights.size());
  // Unsafe pairs have no valid bound, so the planner always refines them.
  EXPECT_LE(t.pairs_unsafe, t.pairs_refined);
}

TEST(PairwisePruneTest, TopKBitIdenticalAcrossSeeds) {
  for (uint64_t seed : {uint64_t{1}, uint64_t{7}, uint64_t{13}}) {
    DataTable table = MakeCorrelatedBlocks(3000, 24, 4, 0.7, seed);
    InsightEngine engine = MakeEngine(table);
    InsightQuery query = ExactTopK(10);

    auto exhaustive = ExecuteExhaustive(table, query);
    ASSERT_TRUE(exhaustive.ok()) << exhaustive.status().ToString();
    auto pruned = engine.Execute(query);
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();

    ExpectSameRanking(*pruned, *exhaustive);
    ExpectTelemetryConsistent(*pruned, *exhaustive);
    // The test must actually exercise the planner, not vacuously pass.
    EXPECT_GT(pruned->prune.pairs_pruned, 0u) << "seed " << seed;
  }
}

TEST(PairwisePruneTest, WorkerCountsPreserveEquivalence) {
  DataTable table = MakeCorrelatedBlocks(3000, 24, 4, 0.7, 7);
  InsightQuery query = ExactTopK(10);

  auto exhaustive = ExecuteExhaustive(table, query);
  ASSERT_TRUE(exhaustive.ok()) << exhaustive.status().ToString();

  for (size_t workers : {size_t{1}, size_t{8}}) {
    InsightEngine engine = MakeEngine(table, workers);
    auto pruned = engine.Execute(query);
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    ExpectSameRanking(*pruned, *exhaustive);
    ExpectTelemetryConsistent(*pruned, *exhaustive);
    EXPECT_GT(pruned->prune.pairs_pruned, 0u) << "workers " << workers;
  }
}

TEST(PairwisePruneTest, AutoWidthPrunesAndStaysBitIdentical) {
  // The width production serves: hyperplane_bits = 0 resolves to 256 bits at
  // 20k rows and 320 bits at 70k. Those bounds are wide, so the blocks are
  // near-collinear (rho = 0.98) for the planner to separate them from the
  // cross-block pairs, with and without a fixed attribute.
  for (auto [rows, bits] : {std::pair<size_t, size_t>{20000, 256},
                            std::pair<size_t, size_t>{70000, 320}}) {
    DataTable table = MakeCorrelatedBlocks(rows, 16, 4, 0.98, 7);
    EngineOptions options;
    options.num_workers = 1;
    auto engine = InsightEngine::Create(table, std::move(options));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_EQ(engine->profile().numeric_sketch(0).signature.num_bits(), bits);
    for (size_t k : {size_t{1}, size_t{3}}) {
      for (bool fixed : {false, true}) {
        SCOPED_TRACE("rows " + std::to_string(rows) + " top-" +
                     std::to_string(k) + (fixed ? " fixed" : ""));
        InsightQuery query = ExactTopK(k);
        if (fixed) query.fixed_attributes = {table.column_name(5)};
        auto exhaustive = ExecuteExhaustive(table, query);
        ASSERT_TRUE(exhaustive.ok()) << exhaustive.status().ToString();
        auto pruned = engine->Execute(query);
        ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
        ExpectSameRanking(*pruned, *exhaustive);
        ExpectTelemetryConsistent(*pruned, *exhaustive);
        EXPECT_GT(pruned->prune.pairs_pruned, 0u);
      }
    }
  }
}

TEST(PairwisePruneTest, NullAndConstantColumnsAlwaysRefinedExactly) {
  // Columns with nulls (cosine estimator != pairwise-deletion Pearson) or
  // zero variance have no valid bound: their pairs are flagged unsafe and
  // must reach the exact kernel regardless of their estimates.
  CorrelatedPair strong = MakeGaussianPair(2000, 0.95, 5);
  CorrelatedPair second = MakeGaussianPair(2000, 0.9, 6);
  CorrelatedPair noise = MakeGaussianPair(2000, 0.0, 8);

  DataTable table;
  ASSERT_TRUE(table.AddNumericColumn("x", strong.x).ok());
  ASSERT_TRUE(table.AddNumericColumn("y", strong.y).ok());
  ASSERT_TRUE(table.AddNumericColumn("u", second.x).ok());
  ASSERT_TRUE(table.AddNumericColumn("v", second.y).ok());
  std::vector<double> scaled = strong.x;
  for (double& value : scaled) value = 2.5 * value + 1.0;
  ASSERT_TRUE(table.AddNumericColumn("x_scaled", scaled).ok());
  ASSERT_TRUE(table.AddNumericColumn("noise_a", noise.x).ok());
  ASSERT_TRUE(table.AddNumericColumn("noise_b", noise.y).ok());
  auto holey = std::make_unique<NumericColumn>();
  for (size_t i = 0; i < 2000; ++i) {
    if (i % 37 == 0) {
      holey->AppendNull();
    } else {
      holey->Append(strong.y[i] + second.x[i]);
    }
  }
  ASSERT_TRUE(table.AddColumn("holey", std::move(holey)).ok());
  ASSERT_TRUE(
      table.AddNumericColumn("flat", std::vector<double>(2000, 3.0)).ok());

  InsightEngine engine = MakeEngine(table);
  InsightQuery query = ExactTopK(3);
  auto exhaustive = ExecuteExhaustive(table, query);
  ASSERT_TRUE(exhaustive.ok()) << exhaustive.status().ToString();
  auto pruned = engine.Execute(query);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();

  ExpectSameRanking(*pruned, *exhaustive);
  ExpectTelemetryConsistent(*pruned, *exhaustive);
  EXPECT_GT(pruned->prune.pairs_unsafe, 0u);
  EXPECT_GT(pruned->prune.pairs_pruned, 0u);
}

TEST(PairwisePruneTest, AgreeingUnsafePairsCannotInflateThreshold) {
  // Adversarial threshold contamination: constant (zero-variance) columns get
  // identical all-set signatures, so every constant-constant pair sits at
  // Hamming 0 — a sketch-derived score_lo near 1.0 — while its exact Pearson
  // is the 0.0 sentinel. With top_k such mutually-agreeing UNSAFE pairs, a
  // threshold built from all lower bounds would rise above the genuine top-k
  // pairs' upper bounds (|rho| ~ 0.65 has score_hi ~ 0.85 at 2048 bits) and
  // prune them. Unsafe bounds must stay vacuous and must not contribute to
  // the threshold, so the pruned top-k still matches exhaustive exactly.
  CorrelatedPair first = MakeGaussianPair(2000, 0.7, 31);
  CorrelatedPair second = MakeGaussianPair(2000, 0.65, 32);
  CorrelatedPair third = MakeGaussianPair(2000, 0.6, 33);

  DataTable table;
  ASSERT_TRUE(table.AddNumericColumn("a0", first.x).ok());
  ASSERT_TRUE(table.AddNumericColumn("a1", first.y).ok());
  ASSERT_TRUE(table.AddNumericColumn("b0", second.x).ok());
  ASSERT_TRUE(table.AddNumericColumn("b1", second.y).ok());
  ASSERT_TRUE(table.AddNumericColumn("c0", third.x).ok());
  ASSERT_TRUE(table.AddNumericColumn("c1", third.y).ok());
  // Power-of-two constants so `dot - mean * ones_dot` cancels EXACTLY in the
  // sketcher (scaling by 2^k is rounding-free): every hyperplane projection
  // centers to +0.0, all three signatures come out all-set, and the three
  // flat-flat pairs mutually agree at Hamming 0.
  ASSERT_TRUE(
      table.AddNumericColumn("flat0", std::vector<double>(2000, 1.0)).ok());
  ASSERT_TRUE(
      table.AddNumericColumn("flat1", std::vector<double>(2000, 2.0)).ok());
  ASSERT_TRUE(
      table.AddNumericColumn("flat2", std::vector<double>(2000, 4.0)).ok());

  InsightEngine engine = MakeEngine(table);
  InsightQuery query = ExactTopK(3);
  auto exhaustive = ExecuteExhaustive(table, query);
  ASSERT_TRUE(exhaustive.ok()) << exhaustive.status().ToString();
  auto pruned = engine.Execute(query);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();

  // The exhaustive top-3 must be the three planted pairs, all nonzero —
  // i.e. none of the constant-column pairs (exact score 0.0).
  ASSERT_EQ(exhaustive->insights.size(), 3u);
  for (const Insight& insight : exhaustive->insights) {
    EXPECT_GT(insight.score, 0.4);
  }
  ExpectSameRanking(*pruned, *exhaustive);
  ExpectTelemetryConsistent(*pruned, *exhaustive);
  // Constant-constant and constant-numeric pairs are all unsafe; a healthy
  // planner still prunes the weak safe (cross) pairs.
  EXPECT_GE(pruned->prune.pairs_unsafe, 3u);
  EXPECT_GT(pruned->prune.pairs_pruned, 0u);
}

TEST(PairwisePruneTest, NearThresholdTiesStayIdentical) {
  // Adversarial ties: three mutually |rho| = 1 columns put identical scores
  // at (and above) the top-k boundary, and min_score sits exactly ON a
  // planted pair's score. Inclusive filters + deterministic tie-breaking
  // must survive pruning bit-for-bit.
  CorrelatedPair base = MakeGaussianPair(2000, 0.0, 21);
  std::vector<double> negated = base.x;
  for (double& value : negated) value = -value;
  std::vector<double> rescaled = base.x;
  for (double& value : rescaled) value = 0.5 * value - 2.0;
  std::vector<double> mixed(2000);
  for (size_t i = 0; i < 2000; ++i) {
    mixed[i] = 0.6 * base.x[i] + 0.8 * base.y[i];
  }

  DataTable table;
  ASSERT_TRUE(table.AddNumericColumn("c0", base.x).ok());
  ASSERT_TRUE(table.AddNumericColumn("c1", negated).ok());
  ASSERT_TRUE(table.AddNumericColumn("c2", rescaled).ok());
  ASSERT_TRUE(table.AddNumericColumn("c3", mixed).ok());
  ASSERT_TRUE(table.AddNumericColumn("c4", base.y).ok());
  CorrelatedPair filler = MakeGaussianPair(2000, 0.0, 22);
  ASSERT_TRUE(table.AddNumericColumn("c5", filler.x).ok());
  ASSERT_TRUE(table.AddNumericColumn("c6", filler.y).ok());

  InsightEngine engine = MakeEngine(table);
  for (size_t top_k : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
    InsightQuery query = ExactTopK(top_k);
    auto exhaustive = ExecuteExhaustive(table, query);
    ASSERT_TRUE(exhaustive.ok()) << exhaustive.status().ToString();
    auto pruned = engine.Execute(query);
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    ExpectSameRanking(*pruned, *exhaustive);
    ExpectTelemetryConsistent(*pruned, *exhaustive);
  }

  // min_score exactly equal to the c0-c3 pair's exact score (inclusive
  // bound): that pair must appear in both executions. The boundary comes
  // from the engine itself — the blocked refine kernel's rounding differs
  // from sequential PearsonCorrelation in the last bit, and the filter
  // compares engine scores.
  AttributeTuple boundary_tuple;
  boundary_tuple.indices = {0, 3};
  auto boundary_insight = engine.EvaluateTuple(
      "linear_relationship", boundary_tuple, "pearson", ExecutionMode::kExact);
  ASSERT_TRUE(boundary_insight.ok()) << boundary_insight.status().ToString();
  double boundary = boundary_insight->raw_value;
  InsightQuery query = ExactTopK(10);
  query.min_score = std::abs(boundary);
  auto exhaustive = ExecuteExhaustive(table, query);
  ASSERT_TRUE(exhaustive.ok()) << exhaustive.status().ToString();
  auto pruned = engine.Execute(query);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  ExpectSameRanking(*pruned, *exhaustive);
  bool boundary_present = false;
  for (const Insight& insight : pruned->insights) {
    if (insight.score == std::abs(boundary)) boundary_present = true;
  }
  EXPECT_TRUE(boundary_present);
}

TEST(PairwisePruneTest, OverviewRefinedCellsBitIdenticalPrunedCellsBounded) {
  DataTable table = MakeCorrelatedBlocks(3000, 20, 4, 0.7, 11);
  InsightEngine engine = MakeEngine(table);

  PairwiseOverviewOptions exhaustive_options;
  exhaustive_options.metric = "pearson";
  exhaustive_options.mode = ExecutionMode::kExact;
  auto exhaustive =
      engine.ComputePairwiseOverview("linear_relationship", exhaustive_options);
  ASSERT_TRUE(exhaustive.ok()) << exhaustive.status().ToString();
  EXPECT_FALSE(exhaustive->prune.used);
  EXPECT_TRUE(exhaustive->cell_provenance.empty());

  PairwiseOverviewOptions pruned_options = exhaustive_options;
  pruned_options.refine_min_score = 0.4;

  std::vector<double> serial_matrix;
  for (size_t workers : {size_t{1}, size_t{8}}) {
    InsightEngine engine_at_workers = MakeEngine(table, workers);
    auto pruned = engine_at_workers.ComputePairwiseOverview(
        "linear_relationship", pruned_options);
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    ASSERT_TRUE(pruned->prune.used);
    const size_t d = pruned->attribute_names.size();
    ASSERT_EQ(pruned->cell_provenance.size(), d * d);
    size_t estimated_cells = 0;
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = 0; j < d; ++j) {
        size_t c = i * d + j;
        if (pruned->cell_provenance[c] == Provenance::kExact) {
          EXPECT_EQ(pruned->matrix[c], exhaustive->matrix[c])
              << "cell " << i << "," << j;
        } else {
          ++estimated_cells;
          // The planner may only serve an estimate when the exact value is
          // provably below the refinement threshold.
          EXPECT_LT(std::abs(exhaustive->matrix[c]),
                    pruned_options.refine_min_score)
              << "cell " << i << "," << j;
        }
        if (i == j) {
          EXPECT_EQ(pruned->cell_provenance[c], Provenance::kExact);
        }
      }
    }
    EXPECT_GT(estimated_cells, 0u) << "planner pruned nothing";
    EXPECT_EQ(pruned->prune.pairs_pruned + pruned->prune.pairs_refined,
              pruned->prune.pairs_total);
    if (workers == 1) {
      serial_matrix = pruned->matrix;
    } else {
      EXPECT_EQ(pruned->matrix, serial_matrix);  // Bit-identical across pools.
    }
  }
}

TEST(PairwisePruneTest, PlannerBypassedWhenIneligible) {
  DataTable table = MakeCorrelatedBlocks(2000, 12, 4, 0.7, 3);
  InsightEngine engine = MakeEngine(table);

  // max_score breaks the top-k threshold argument: exhaustive fallback.
  InsightQuery capped = ExactTopK(5);
  capped.max_score = 0.9;
  auto capped_result = engine.Execute(capped);
  ASSERT_TRUE(capped_result.ok()) << capped_result.status().ToString();
  EXPECT_FALSE(capped_result->prune.used);

  // Sketch mode has no exact refinement to prune toward.
  InsightQuery sketch = ExactTopK(5);
  sketch.mode = ExecutionMode::kSketch;
  auto sketch_result = engine.Execute(sketch);
  ASSERT_TRUE(sketch_result.ok()) << sketch_result.status().ToString();
  EXPECT_FALSE(sketch_result->prune.used);

  // top_k covering every candidate leaves nothing to prune.
  auto full_result = engine.Execute(ExactTopK(1000));
  ASSERT_TRUE(full_result.ok()) << full_result.status().ToString();
  EXPECT_FALSE(full_result->prune.used);

  // Engines without a sketch profile never plan; the same query on the
  // profiled engine does.
  auto unprofiled = ExecuteExhaustive(table, ExactTopK(5));
  ASSERT_TRUE(unprofiled.ok()) << unprofiled.status().ToString();
  EXPECT_FALSE(unprofiled->prune.used);
  auto profiled = engine.Execute(ExactTopK(5));
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  EXPECT_TRUE(profiled->prune.used);
}

TEST(PairwisePruneTest, BatchMembersPruneLikeSingleQueries) {
  DataTable table = MakeCorrelatedBlocks(3000, 24, 4, 0.7, 7);
  InsightEngine engine = MakeEngine(table);

  InsightQuery all_pairs = ExactTopK(10);
  InsightQuery drill_down = ExactTopK(5);
  drill_down.fixed_attributes = {table.column_name(3)};
  InsightQuery capped = ExactTopK(5);
  capped.max_score = 0.9;
  InsightQuery sketch = ExactTopK(5);
  sketch.mode = ExecutionMode::kSketch;
  const std::vector<InsightQuery> batch = {all_pairs, drill_down, capped,
                                           sketch};
  const std::vector<bool> eligible = {true, true, false, false};

  std::vector<InsightQueryResult> expected;
  for (size_t q = 0; q < 3; ++q) {
    auto reference = ExecuteExhaustive(table, batch[q]);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    expected.push_back(std::move(*reference));
  }
  // A profile-less engine has no sketches, so the sketch member's reference
  // is the serial profiled engine's own lone Execute.
  auto sketch_reference = engine.Execute(sketch);
  ASSERT_TRUE(sketch_reference.ok()) << sketch_reference.status().ToString();
  expected.push_back(std::move(*sketch_reference));

  for (size_t workers : {size_t{1}, size_t{8}}) {
    auto results = MakeEngine(table, workers).ExecuteBatch(batch);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->size(), batch.size());
    for (size_t q = 0; q < batch.size(); ++q) {
      SCOPED_TRACE("workers " + std::to_string(workers) + " member " +
                   std::to_string(q));
      const InsightQueryResult& member = (*results)[q];
      ExpectSameRanking(member, expected[q]);
      if (eligible[q]) {
        ExpectTelemetryConsistent(member, expected[q]);
      } else {
        EXPECT_FALSE(member.prune.used);
      }
    }
    EXPECT_GT((*results)[0].prune.pairs_pruned, 0u);
  }
}

TEST(PairwisePruneTest, InvalidOverviewThresholdRejected) {
  DataTable table = MakeCorrelatedBlocks(500, 8, 4, 0.7, 2);
  InsightEngine engine = MakeEngine(table);
  PairwiseOverviewOptions options;
  options.metric = "pearson";
  options.mode = ExecutionMode::kExact;
  // NaN would silently disable pruning and +inf would serve every safe cell
  // of an exact overview from its sketch estimate.
  for (double threshold : {-0.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    options.refine_min_score = threshold;
    auto overview =
        engine.ComputePairwiseOverview("linear_relationship", options);
    ASSERT_FALSE(overview.ok()) << threshold;
    EXPECT_EQ(overview.status().code(), StatusCode::kInvalidArgument)
        << threshold;
  }
}

}  // namespace
}  // namespace foresight
