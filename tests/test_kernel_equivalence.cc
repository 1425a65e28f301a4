// Panel-blocked ingestion must be BIT-IDENTICAL to the per-row oracle —
// BundleBuilder::AccumulateNumeric over each partition, partials merged in
// partition order — sketch for sketch, across panel block sizes (including 1,
// a non-divisor, and one spanning the whole table), partition counts, and
// worker counts, with null patterns that exercise the compaction path
// (scattered nulls, all-null, trailing nulls into a partial block). Plus
// RandomPanelCache unit behavior: content, generate-once under contention,
// and planned-use freeing.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/profile.h"
#include "data/generators.h"
#include "data/table.h"
#include "sketch/panel_cache.h"
#include "sketch/serialize.h"
#include "util/thread_pool.h"

namespace foresight {
namespace {

constexpr size_t kRows = 137;  // Prime: every block size leaves a tail.

DataTable MakeNullPatternTable() {
  DataTable table;
  std::vector<double> dense_a(kRows), dense_b(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    double x = static_cast<double>(i);
    dense_a[i] = 0.25 * x - 3.0;
    dense_b[i] = 100.0 - x * x * 0.01;
  }
  EXPECT_TRUE(table.AddNumericColumn("dense_a", dense_a).ok());
  EXPECT_TRUE(table.AddNumericColumn("dense_b", dense_b).ok());
  EXPECT_TRUE(
      table.AddNumericColumn("constant", std::vector<double>(kRows, 3.25))
          .ok());

  auto sparse = std::make_unique<NumericColumn>();
  for (size_t i = 0; i < kRows; ++i) {
    if (i % 5 == 0) {
      sparse->AppendNull();
    } else {
      sparse->Append(static_cast<double>(i % 11) - 5.0);
    }
  }
  EXPECT_TRUE(table.AddColumn("sparse", std::move(sparse)).ok());

  auto all_null = std::make_unique<NumericColumn>();
  for (size_t i = 0; i < kRows; ++i) all_null->AppendNull();
  EXPECT_TRUE(table.AddColumn("all_null", std::move(all_null)).ok());

  // Valid head, null tail: the tail falls into the final partial panel
  // block for every tested block size.
  auto head_only = std::make_unique<NumericColumn>();
  for (size_t i = 0; i < kRows; ++i) {
    if (i < 100) {
      head_only->Append(std::sin(static_cast<double>(i)) * 10.0);
    } else {
      head_only->AppendNull();
    }
  }
  EXPECT_TRUE(table.AddColumn("head_only", std::move(head_only)).ok());

  std::vector<std::string> labels(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    labels[i] = "bucket_" + std::to_string(i % 7);
  }
  EXPECT_TRUE(table.AddCategoricalColumn("cat", labels).ok());
  return table;
}

std::string ComparableProfileJson(const TableProfile& profile) {
  JsonValue json = profile.ToJson();
  json.Set("preprocess_seconds", 0.0);
  return json.Dump();
}

/// `parts` near-equal partitions of `n` rows, as partition_boundaries.
std::vector<size_t> NearEqualBoundaries(size_t n, size_t parts) {
  std::vector<size_t> boundaries;
  for (size_t p = 0; p < parts; ++p) boundaries.push_back(n * (p + 1) / parts);
  return boundaries;
}

/// The per-row oracle for numeric ingestion: AccumulateNumeric regenerates
/// each row's random components and folds the rows in order, once per
/// partition of NearEqualBoundaries(n, parts); the partials merge in
/// partition order and are finalized. Serialized per numeric column.
std::vector<std::string> OracleNumericSketches(const DataTable& table,
                                               size_t parts) {
  const size_t n = table.num_rows();
  BundleBuilder builder(PreprocessOptions{}.sketch, n);
  std::vector<std::string> sketches;
  for (size_t c : table.NumericColumnIndices()) {
    const NumericColumn& column = table.column(c).AsNumeric();
    NumericColumnSketch merged = builder.MakeNumericSketch();
    for (size_t p = 0; p < parts; ++p) {
      NumericColumnSketch partial = builder.MakeNumericSketch();
      builder.AccumulateNumeric(column, n * p / parts, n * (p + 1) / parts,
                                partial);
      merged.Merge(partial);
    }
    builder.FinalizeNumeric(merged);
    sketches.push_back(NumericSketchToJson(merged).Dump());
  }
  return sketches;
}

std::vector<std::string> ProfileNumericSketches(const TableProfile& profile) {
  std::vector<std::string> sketches;
  for (size_t c : profile.table().NumericColumnIndices()) {
    sketches.push_back(NumericSketchToJson(profile.numeric_sketch(c)).Dump());
  }
  return sketches;
}

TEST(KernelEquivalence, BlockedMatchesOracleAcrossBlockSizesAndPartitions) {
  DataTable table = MakeNullPatternTable();
  ThreadPool pool(3);
  for (size_t parts : {size_t{1}, size_t{3}, size_t{8}}) {
    const std::vector<std::string> expected =
        OracleNumericSketches(table, parts);
    PreprocessOptions serial_options;
    serial_options.partition_boundaries =
        NearEqualBoundaries(table.num_rows(), parts);
    auto serial = Preprocessor::Profile(table, serial_options);
    ASSERT_TRUE(serial.ok()) << serial.status();
    EXPECT_EQ(expected, ProfileNumericSketches(*serial)) << "parts=" << parts;
    const std::string serial_json = ComparableProfileJson(*serial);

    for (size_t block_rows : {size_t{1}, size_t{7}, size_t{64}, kRows}) {
      PreprocessOptions options;
      options.partition_boundaries = serial_options.partition_boundaries;
      options.panel_block_rows = block_rows;
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        auto blocked = Preprocessor::Profile(table, options, p);
        ASSERT_TRUE(blocked.ok()) << blocked.status();
        EXPECT_EQ(expected, ProfileNumericSketches(*blocked))
            << "parts=" << parts << " block_rows=" << block_rows
            << " pool=" << (p != nullptr);
        // The rest of the profile (categorical sketches, row sample, ranks)
        // is just as invariant.
        EXPECT_EQ(serial_json, ComparableProfileJson(*blocked))
            << "parts=" << parts << " block_rows=" << block_rows
            << " pool=" << (p != nullptr);
      }
    }
  }
}

TEST(KernelEquivalence, WideTableMatchesOracleAcrossWorkersAndBlockSizes) {
  DataTable table = MakeBenchmarkTable(3000, 12, 3, 7);
  const std::vector<std::string> expected = OracleNumericSketches(table, 1);
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (size_t block_rows : {size_t{0}, size_t{64}, size_t{3000}}) {
      PreprocessOptions options;
      options.panel_block_rows = block_rows;
      auto blocked = Preprocessor::Profile(table, options, p);
      ASSERT_TRUE(blocked.ok()) << blocked.status();
      EXPECT_EQ(expected, ProfileNumericSketches(*blocked))
          << "block_rows=" << block_rows << " pool=" << (p != nullptr);
    }
  }
}

TEST(KernelEquivalence, CenteredProjectionCacheMatchesComputation) {
  DataTable table = MakeNullPatternTable();
  auto profile = Preprocessor::Profile(table, {});
  ASSERT_TRUE(profile.ok()) << profile.status();
  for (size_t c : table.NumericColumnIndices()) {
    const NumericColumnSketch& sketch = profile->numeric_sketch(c);
    ASSERT_GT(sketch.centered_projection.k(), 0u) << "column " << c;
    EXPECT_EQ(sketch.centered_projection.components(),
              sketch.CenteredProjection().components())
        << "column " << c;
  }
  // The cache is derived state: a serialization round trip must rebuild it.
  JsonValue json = profile->ToJson();
  EXPECT_EQ(json.Dump().find("centered_projection"), std::string::npos);
  auto loaded = Preprocessor::LoadProfile(table, json);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  for (size_t c : table.NumericColumnIndices()) {
    const NumericColumnSketch& sketch = loaded->numeric_sketch(c);
    EXPECT_EQ(sketch.centered_projection.components(),
              sketch.CenteredProjection().components())
        << "loaded column " << c;
  }
}

TEST(PanelCache, BlockContentMatchesPerRowGeneration) {
  HyperplaneSketcher hyperplane(64, 42);
  ProjectionSketcher projection(16, 43);
  RandomPanelCache cache(hyperplane, projection, /*n_rows=*/100,
                         /*block_rows=*/33);
  ASSERT_EQ(cache.num_blocks(), 4u);  // 33 + 33 + 33 + 1.
  for (size_t b = 0; b < cache.num_blocks(); ++b) {
    auto panel = cache.Acquire(b);
    ASSERT_NE(panel, nullptr);
    EXPECT_EQ(panel->row_begin, cache.block_begin(b));
    EXPECT_EQ(panel->num_rows, cache.block_end(b) - cache.block_begin(b));
    std::vector<double> expected_h, expected_p;
    for (size_t j = 0; j < panel->num_rows; ++j) {
      hyperplane.GenerateRowHyperplanes(panel->row_begin + j, expected_h);
      projection.GenerateRowComponents(panel->row_begin + j, expected_p);
      for (size_t i = 0; i < 64; ++i) {
        EXPECT_EQ(panel->hyperplane_row(j)[i], expected_h[i]);
      }
      for (size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(panel->projection_row(j)[i], expected_p[i]);
      }
    }
  }
  EXPECT_EQ(cache.blocks_generated(), 4u);
  // Re-acquire without a plan: blocks stay resident, nothing regenerates.
  cache.Acquire(0);
  EXPECT_EQ(cache.blocks_generated(), 4u);
}

TEST(PanelCache, GenerateOnceUnderContention) {
  HyperplaneSketcher hyperplane(128, 7);
  ProjectionSketcher projection(32, 8);
  RandomPanelCache cache(hyperplane, projection, /*n_rows=*/4096,
                         /*block_rows=*/1024);
  ThreadPool pool(4);
  pool.ParallelFor(0, 64, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      auto panel = cache.Acquire(i % cache.num_blocks());
      ASSERT_NE(panel, nullptr);
      EXPECT_EQ(panel->num_rows, 1024u);
    }
  });
  EXPECT_EQ(cache.blocks_generated(), cache.num_blocks());
}

TEST(PanelCache, PlannedUsesFreeBlocks) {
  HyperplaneSketcher hyperplane(64, 1);
  ProjectionSketcher projection(8, 2);
  RandomPanelCache cache(hyperplane, projection, /*n_rows=*/64,
                         /*block_rows=*/32);
  cache.PlanUses({2, 1});
  auto first = cache.Acquire(0);
  cache.Release(0);
  // One planned use left: still resident, no regeneration on re-acquire.
  auto second = cache.Acquire(0);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.blocks_generated(), 1u);
  cache.Release(0);
  // All planned uses spent: the cache dropped its reference, but outstanding
  // shared_ptrs stay valid.
  EXPECT_EQ(first->num_rows, 32u);
}

}  // namespace
}  // namespace foresight
