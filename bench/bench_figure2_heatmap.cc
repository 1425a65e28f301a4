// E5 — Figure 2: the pairwise-correlation overview visualization — "all the
// pairwise attribute correlations as a heatmap with the size and intensity
// of circles denoting the strength of correlations".
//
// Regenerates the figure on the synthetic OECD table (and on a planted-block
// table with exact ground truth): prints the ASCII heatmap, emits the
// Vega-Lite spec, and verifies (a) the planted block structure is recovered
// exactly, and (b) the sketch-mode heatmap agrees with the exact one in sign
// and magnitude for all strong cells.

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/engine.h"
#include "data/generators.h"
#include "viz/ascii.h"
#include "viz/vega.h"

using namespace foresight;

int main() {
  // --- Part 1: the figure itself, on the OECD analogue. ---
  std::printf("E5: Figure 2 overview heatmap (synthetic OECD, 24 numeric "
              "attributes)\n\n");
  DataTable oecd = MakeOecdLike(5000, 1);
  EngineOptions options;
  options.preprocess.sketch.hyperplane_bits = 1024;
  auto engine = InsightEngine::Create(oecd, std::move(options));
  if (!engine.ok()) return 1;

  auto exact = engine->ComputePairwiseOverview(
      "linear_relationship",
      {.metric = "pearson", .mode = ExecutionMode::kExact});
  auto sketch = engine->ComputePairwiseOverview(
      "linear_relationship",
      {.metric = "pearson", .mode = ExecutionMode::kSketch});
  if (!exact.ok() || !sketch.ok()) return 1;

  std::printf("%s\n", RenderCorrelationHeatmapAscii(*exact).c_str());

  JsonValue spec = CorrelationHeatmapSpec(*exact, "OECD pairwise correlations");
  std::ofstream("figure2_oecd.vl.json") << spec.Dump(2);
  std::printf("Vega-Lite spec written to figure2_oecd.vl.json (%zu bytes)\n\n",
              spec.Dump().size());

  // Exact-vs-sketch agreement over the same matrix.
  size_t d = exact->attribute_names.size();
  double total_error = 0.0;
  size_t strong = 0, strong_sign_ok = 0;
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i + 1; j < d; ++j) {
      double e = exact->at(i, j), s = sketch->at(i, j);
      total_error += std::abs(e - s);
      if (std::abs(e) > 0.3) {
        ++strong;
        if (e * s > 0.0) ++strong_sign_ok;
      }
    }
  }
  size_t cells = d * (d - 1) / 2;
  std::printf("sketch vs exact: mean |error| = %.4f over %zu cells; "
              "sign agreement on strong cells = %zu/%zu\n",
              total_error / static_cast<double>(cells), cells, strong_sign_ok,
              strong);

  // --- Part 2: planted ground truth recovery. ---
  std::printf("\nPlanted-block verification (8 blocks x 4 attrs, rho = 0.65, "
              "n = 50000):\n");
  DataTable blocks = MakeCorrelatedBlocks(50000, 32, 4, 0.65, 5);
  // k = 1024 bits: the rho = 0 estimator's std error is pi * sqrt(1/(4k))
  // ~ 0.05, so a 0.20 tolerance is 4 sigma across the 496 cells.
  EngineOptions block_options;
  block_options.preprocess.sketch.hyperplane_bits = 1024;
  auto block_engine = InsightEngine::Create(blocks, std::move(block_options));
  if (!block_engine.ok()) return 1;
  auto block_exact = block_engine->ComputePairwiseOverview(
      "linear_relationship",
      {.metric = "pearson", .mode = ExecutionMode::kExact});
  auto block_sketch = block_engine->ComputePairwiseOverview(
      "linear_relationship",
      {.metric = "pearson", .mode = ExecutionMode::kSketch});
  if (!block_exact.ok() || !block_sketch.ok()) return 1;

  size_t in_block_ok_exact = 0, in_block_total = 0;
  size_t cross_ok_exact = 0, cross_total = 0;
  size_t in_block_ok_sketch = 0, cross_ok_sketch = 0;
  for (size_t i = 0; i < 32; ++i) {
    for (size_t j = i + 1; j < 32; ++j) {
      bool same_block = (i / 4) == (j / 4);
      double e = block_exact->at(i, j);
      double s = block_sketch->at(i, j);
      if (same_block) {
        ++in_block_total;
        if (std::abs(e - 0.65) < 0.05) ++in_block_ok_exact;
        if (std::abs(s - 0.65) < 0.2) ++in_block_ok_sketch;
      } else {
        ++cross_total;
        if (std::abs(e) < 0.05) ++cross_ok_exact;
        if (std::abs(s) < 0.2) ++cross_ok_sketch;
      }
    }
  }
  std::printf("  exact : in-block %zu/%zu within 0.05 of 0.65, cross-block "
              "%zu/%zu within 0.05 of 0\n",
              in_block_ok_exact, in_block_total, cross_ok_exact, cross_total);
  std::printf("  sketch: in-block %zu/%zu within 0.20 of 0.65, cross-block "
              "%zu/%zu within 0.20 of 0\n",
              in_block_ok_sketch, in_block_total, cross_ok_sketch, cross_total);
  bool pass = in_block_ok_exact == in_block_total &&
              cross_ok_exact == cross_total &&
              in_block_ok_sketch == in_block_total &&
              cross_ok_sketch == cross_total && strong_sign_ok == strong;
  std::printf("\n%s\n", pass ? "PASS: block structure recovered; sketch "
                               "heatmap matches exact on all strong cells."
                             : "FAIL: see mismatches above.");
  return pass ? 0 : 1;
}
