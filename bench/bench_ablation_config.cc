// A1 (ablation) — how each SketchConfig knob trades accuracy against
// preprocessing time and memory, on one dataset with known ground truth.
// Covers the design choices DESIGN.md calls out: hyperplane bits for
// correlation, row-sample size for sample-served metrics (Spearman / NMI /
// segmentation), SpaceSaving capacity for RelFreq, and entropy registers.

#include <cmath>
#include <cstdio>

#include "core/engine.h"
#include "data/generators.h"
#include "stats/correlation.h"
#include "stats/dependence.h"
#include "stats/frequency.h"
#include "util/timer.h"

using namespace foresight;

namespace {

/// Mean |sketch - exact| over all pairwise correlations.
double OverviewError(const InsightEngine& engine) {
  auto exact = engine.ComputePairwiseOverview(
      "linear_relationship",
      {.metric = "pearson", .mode = ExecutionMode::kExact});
  auto sketch = engine.ComputePairwiseOverview(
      "linear_relationship",
      {.metric = "pearson", .mode = ExecutionMode::kSketch});
  if (!exact.ok() || !sketch.ok()) return -1.0;
  size_t d = exact->attribute_names.size();
  double total = 0.0;
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i + 1; j < d; ++j) {
      total += std::abs(exact->at(i, j) - sketch->at(i, j));
    }
  }
  return total / static_cast<double>(d * (d - 1) / 2);
}

/// Mean |sketch - exact| of the monotonic (Spearman) metric over all pairs.
double SpearmanError(const InsightEngine& engine) {
  const InsightClass* c = engine.registry().Find("monotonic_relationship");
  double total = 0.0;
  size_t count = 0;
  for (const AttributeTuple& tuple : c->EnumerateCandidates(engine.table())) {
    auto exact = c->EvaluateExact(engine.table(), tuple, "spearman");
    auto sketch = c->EvaluateSketch(engine.profile(), tuple, "spearman");
    if (exact.ok() && sketch.ok()) {
      total += std::abs(*exact - *sketch);
      ++count;
    }
  }
  return count > 0 ? total / static_cast<double>(count) : -1.0;
}

}  // namespace

int main() {
  std::printf("Ablation: SketchConfig knobs vs accuracy/time/memory\n");
  DataTable table = MakeOecdLike(30000, 9);

  std::printf("\n[A] hyperplane_bits -> correlation-overview error\n");
  std::printf("%-10s %-14s %-14s %-12s\n", "bits", "mean |err|",
              "preproc (s)", "mem (KiB)");
  for (size_t bits : {64, 128, 256, 512, 1024, 2048}) {
    EngineOptions options;
    options.preprocess.sketch.hyperplane_bits = bits;
    WallTimer timer;
    auto engine = InsightEngine::Create(table, std::move(options));
    double seconds = timer.ElapsedSeconds();
    if (!engine.ok()) continue;
    std::printf("%-10zu %-14.4f %-14.2f %-12.1f\n", bits,
                OverviewError(*engine), seconds,
                static_cast<double>(engine->profile().EstimateMemoryBytes()) /
                    1024.0);
  }

  std::printf("\n[B] row_sample_size -> Spearman estimate error\n");
  std::printf("%-10s %-14s %-14s\n", "sample", "mean |err|", "preproc (s)");
  for (size_t sample : {256, 512, 1024, 2048, 4096}) {
    EngineOptions options;
    options.preprocess.sketch.hyperplane_bits = 128;  // Keep this knob fixed.
    options.preprocess.row_sample_size = sample;
    WallTimer timer;
    auto engine = InsightEngine::Create(table, std::move(options));
    double seconds = timer.ElapsedSeconds();
    if (!engine.ok()) continue;
    std::printf("%-10zu %-14.4f %-14.2f\n", sample, SpearmanError(*engine),
                seconds);
  }

  std::printf("\n[C] spacesaving_capacity -> RelFreq(5) error (IMDB genres)\n");
  DataTable imdb = MakeImdbLike(30000, 10);
  size_t director = *imdb.ColumnIndex("director_name");
  FrequencyTable exact_freq(imdb.column(director).AsCategorical());
  double exact_rf = exact_freq.RelFreq(5);
  std::printf("exact RelFreq(5) = %.4f over %zu distinct directors\n",
              exact_rf, exact_freq.cardinality());
  std::printf("%-10s %-14s\n", "capacity", "|err|");
  for (size_t capacity : {8, 16, 32, 64, 128}) {
    PreprocessOptions options;
    options.sketch.hyperplane_bits = 64;
    options.sketch.spacesaving_capacity = capacity;
    auto profile = Preprocessor::Profile(imdb, options);
    if (!profile.ok()) continue;
    double estimate =
        profile->categorical_sketch(director).heavy_hitters.RelFreqEstimate(5);
    std::printf("%-10zu %-14.4f\n", capacity, std::abs(estimate - exact_rf));
  }

  std::printf("\n[D] entropy_k -> normalized-entropy error (IMDB keywords)\n");
  size_t keyword = *imdb.ColumnIndex("plot_keyword_1");
  FrequencyTable keyword_freq(imdb.column(keyword).AsCategorical());
  double exact_entropy = keyword_freq.Entropy();
  std::printf("exact H = %.4f nats\n", exact_entropy);
  std::printf("%-10s %-14s\n", "k", "|err|");
  for (size_t k : {32, 64, 128, 256, 512}) {
    PreprocessOptions options;
    options.sketch.hyperplane_bits = 64;
    options.sketch.entropy_k = k;
    auto profile = Preprocessor::Profile(imdb, options);
    if (!profile.ok()) continue;
    double estimate =
        profile->categorical_sketch(keyword).entropy.EstimateEntropy();
    std::printf("%-10zu %-14.4f\n", k, std::abs(estimate - exact_entropy));
  }

  std::printf("\nReading: every knob buys accuracy roughly as 1/sqrt(size);\n"
              "the defaults (auto bits, 2048 sample, 64 counters, 128\n"
              "registers) sit at the knee of each curve.\n");
  return 0;
}
