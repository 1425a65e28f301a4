// Tests for the byte-budgeted multi-dataset registry
// (core/dataset_registry.h): lazy single-flight loading, LRU eviction under
// a global byte budget (the resident total must never exceed it — checked
// continuously by concurrent probes, which is also the TSAN surface for the
// registry's locking), snapshot-vs-rebuild equivalence, and failure paths.
#include "core/dataset_registry.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/snapshot.h"
#include "data/csv.h"
#include "data/generators.h"
#include "data/table.h"
#include "serve/wire.h"
#include "snapshot_fakes.h"
#include "util/json.h"

namespace foresight {
namespace {

/// A temp directory of K small CSV datasets ("ds0".."dsK-1"), each with a
/// binary snapshot next to it. Every dataset has a distinct seed, so results
/// differ across datasets (routing bugs can't hide).
class DatasetRegistryTest : public testing::Test {
 protected:
  static constexpr size_t kDatasets = 4;
  static constexpr size_t kRows = 220;

  DatasetRegistryTest() {
    dir_ = testing::TempDir() + "/foresight_registry_test";
    std::remove(dir_.c_str());
    std::filesystem::create_directories(dir_);
    for (size_t i = 0; i < kDatasets; ++i) {
      const std::string id = "ds" + std::to_string(i);
      DataTable generated = MakeBenchmarkTable(kRows, 6, 2, 100 + i);
      const std::string csv_path = dir_ + "/" + id + ".csv";
      Status written = CsvWriter::WriteFile(generated, csv_path);
      EXPECT_TRUE(written.ok()) << written.ToString();
      // Snapshot the CSV-parsed table (the exact doubles a loader will see).
      auto table = CsvReader::ReadFile(csv_path);
      EXPECT_TRUE(table.ok());
      auto profile = Preprocessor::Profile(*table);
      EXPECT_TRUE(profile.ok());
      Status snap =
          WriteProfileSnapshot(*profile, dir_ + "/" + id + ".fsnap");
      EXPECT_TRUE(snap.ok()) << snap.ToString();
    }
  }

  ~DatasetRegistryTest() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::vector<DatasetSpec> Specs() {
    auto specs = DatasetRegistry::ScanDirectory(dir_);
    EXPECT_TRUE(specs.ok()) << specs.status().ToString();
    return std::move(specs).value();
  }

  /// unique_ptr because DatasetRegistry owns a Mutex and cannot move.
  std::unique_ptr<DatasetRegistry> MakeRegistry(size_t budget) {
    DatasetRegistryOptions options;
    options.memory_budget_bytes = budget;
    auto registry = std::make_unique<DatasetRegistry>(std::move(options));
    for (DatasetSpec& spec : Specs()) {
      Status added = registry->Add(std::move(spec));
      EXPECT_TRUE(added.ok()) << added.ToString();
    }
    return registry;
  }

  /// Bytes one resident dataset pins (they are all the same shape).
  size_t OneDatasetBytes() {
    std::unique_ptr<DatasetRegistry> registry = MakeRegistry(0);
    auto pinned = registry->Acquire("ds0");
    EXPECT_TRUE(pinned.ok());
    return (*pinned)->resident_bytes();
  }

  std::string dir_;
};

TEST_F(DatasetRegistryTest, ScanDirectoryFindsEverythingInOrder) {
  std::vector<DatasetSpec> specs = Specs();
  ASSERT_EQ(specs.size(), kDatasets);
  for (size_t i = 0; i < kDatasets; ++i) {
    EXPECT_EQ(specs[i].id, "ds" + std::to_string(i));
    EXPECT_FALSE(specs[i].snapshot_path.empty());
  }
}

TEST_F(DatasetRegistryTest, AddValidatesAndRejectsDuplicates) {
  DatasetRegistry registry;
  EXPECT_FALSE(registry.Add({"", "x.csv", ""}).ok());
  EXPECT_FALSE(registry.Add({"a", "", ""}).ok());
  EXPECT_TRUE(registry.Add({"a", "x.csv", ""}).ok());
  Status duplicate = registry.Add({"a", "y.csv", ""});
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(registry.contains("a"));
  EXPECT_EQ(registry.size(), 1u);
}

TEST_F(DatasetRegistryTest, AcquireLoadsLazilyAndCountsHits) {
  std::unique_ptr<DatasetRegistry> registry = MakeRegistry(0);
  EXPECT_EQ(registry->stats().loads, 0u);

  auto first = registry->Acquire("ds0");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE((*first)->loaded_from_snapshot());
  EXPECT_GT((*first)->resident_bytes(), 0u);

  auto second = registry->Acquire("ds0");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // Same resident object.

  DatasetRegistryStats stats = registry->stats();
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.resident_datasets, 1u);
  EXPECT_EQ(stats.total_datasets, kDatasets);

  auto missing = registry->Acquire("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(DatasetRegistryTest, SnapshotAndRebuildAnswerIdentically) {
  // Strip the snapshot from one spec: that dataset rebuilds its profile.
  // Both paths must produce byte-identical query results.
  std::unique_ptr<DatasetRegistry> with_snapshots = MakeRegistry(0);
  DatasetRegistry without;
  for (DatasetSpec& spec : Specs()) {
    spec.snapshot_path.clear();
    ASSERT_TRUE(without.Add(std::move(spec)).ok());
  }

  auto from_snapshot = with_snapshots->Acquire("ds1");
  auto rebuilt = without.Acquire("ds1");
  ASSERT_TRUE(from_snapshot.ok());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE((*from_snapshot)->loaded_from_snapshot());
  EXPECT_FALSE((*rebuilt)->loaded_from_snapshot());

  InsightQuery query;
  query.class_name = "linear_relationship";
  query.top_k = 8;
  query.mode = ExecutionMode::kSketch;
  auto snapshot_result = (*from_snapshot)->session().Execute(query);
  auto rebuilt_result = (*rebuilt)->session().Execute(query);
  ASSERT_TRUE(snapshot_result.ok());
  ASSERT_TRUE(rebuilt_result.ok());
  EXPECT_EQ(WireResultV1(*snapshot_result).Dump(),
            WireResultV1(*rebuilt_result).Dump());
}

TEST_F(DatasetRegistryTest, RebuildProfilesOnTheDatasetWorkers) {
  // A dataset without a snapshot builds its profile on its own engine's
  // pool, so the registry's worker count reaches preprocessing; the profile
  // is still the serial one byte for byte.
  DatasetRegistryOptions options;
  options.num_workers = 2;
  options.collect_metrics = true;
  DatasetRegistry registry(std::move(options));
  for (DatasetSpec& spec : Specs()) {
    spec.snapshot_path.clear();
    ASSERT_TRUE(registry.Add(std::move(spec)).ok());
  }
  auto pinned = registry.Acquire("ds2");
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_FALSE((*pinned)->loaded_from_snapshot());
  const InsightEngine& engine = (*pinned)->engine();
  EXPECT_EQ(engine.num_workers(), 2u);
  ASSERT_NE(engine.metrics(), nullptr);
  // No query has run yet, so every ParallelFor so far was preprocessing.
  EXPECT_GT(
      engine.metrics()->counter("thread_pool.parallel_fors_total").value(),
      0u);

  auto table = CsvReader::ReadFile(dir_ + "/ds2.csv");
  ASSERT_TRUE(table.ok());
  auto serial = Preprocessor::Profile(*table);
  ASSERT_TRUE(serial.ok());
  // Wall-clock preprocessing time is the one field allowed to differ.
  auto comparable = [](const TableProfile& profile) {
    JsonValue json = profile.ToJson();
    json.Set("preprocess_seconds", 0.0);
    return json.Dump();
  };
  EXPECT_EQ(comparable(engine.profile()), comparable(*serial));
}

TEST_F(DatasetRegistryTest, CorruptSnapshotFallsBackToRebuild) {
  std::vector<DatasetSpec> specs = Specs();
  {
    std::ofstream out(specs[0].snapshot_path, std::ios::binary);
    out << "FSNAPBIN garbage follows";
  }
  DatasetRegistry registry;
  for (DatasetSpec& spec : specs) {
    ASSERT_TRUE(registry.Add(std::move(spec)).ok());
  }
  auto pinned = registry.Acquire("ds0");
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_FALSE((*pinned)->loaded_from_snapshot());
  EXPECT_EQ(registry.stats().load_failures, 0u);  // Fallback, not failure.
}

TEST_F(DatasetRegistryTest, OldProfileVersionFallsBackToRebuild) {
  // Checksum-correct snapshots of the right table whose profile documents
  // are older versions (1 stored signatures, 2 a reservoir sample per
  // numeric column): stale, so the dataset rebuilds and serves from the
  // fresh profile.
  const std::string csv_path = dir_ + "/ds0.csv";
  auto table = CsvReader::ReadFile(csv_path);
  ASSERT_TRUE(table.ok());
  auto profile = Preprocessor::Profile(*table);
  ASSERT_TRUE(profile.ok());
  for (int version : {1, 2}) {
    SCOPED_TRACE(version);
    JsonValue document = profile->ToJson();
    document.Set("version", version);
    const std::string stale =
        SnapshotWithDocument(EncodeProfileSnapshot(*profile), document);
    ASSERT_TRUE(InspectProfileSnapshot(stale).ok());
    {
      std::ofstream out(dir_ + "/ds0.fsnap",
                        std::ios::binary | std::ios::trunc);
      out << stale;
    }
    std::unique_ptr<DatasetRegistry> registry = MakeRegistry(0);
    auto pinned = registry->Acquire("ds0");
    ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
    EXPECT_FALSE((*pinned)->loaded_from_snapshot());
    EXPECT_EQ(registry->stats().load_failures, 0u);
    InsightQuery query;
    query.class_name = "linear_relationship";
    query.mode = ExecutionMode::kSketch;
    query.top_k = 3;
    auto result = (*pinned)->session().Execute(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->insights.empty());
  }
}

TEST_F(DatasetRegistryTest, MissingTableIsALoadFailureAndRetries) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Add({"ghost", dir_ + "/missing.csv", ""}).ok());
  EXPECT_FALSE(registry.Acquire("ghost").ok());
  EXPECT_EQ(registry.stats().load_failures, 1u);
  // The entry is not poisoned: a later Acquire tries the load again.
  EXPECT_FALSE(registry.Acquire("ghost").ok());
  EXPECT_EQ(registry.stats().load_failures, 2u);
}

TEST_F(DatasetRegistryTest, EvictionKeepsResidentBytesWithinBudget) {
  const size_t one = OneDatasetBytes();
  // Room for two datasets, not three.
  std::unique_ptr<DatasetRegistry> registry = MakeRegistry(2 * one + one / 2);

  ASSERT_TRUE(registry->Acquire("ds0").ok());
  ASSERT_TRUE(registry->Acquire("ds1").ok());
  EXPECT_EQ(registry->stats().resident_datasets, 2u);
  EXPECT_EQ(registry->stats().evictions, 0u);

  // Touch ds0 so ds1 is the LRU, then admit ds2: ds1 must be the eviction.
  ASSERT_TRUE(registry->Acquire("ds0").ok());
  ASSERT_TRUE(registry->Acquire("ds2").ok());
  DatasetRegistryStats stats = registry->stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_datasets, 2u);
  EXPECT_LE(stats.resident_bytes, registry->options().memory_budget_bytes);
  EXPECT_LE(stats.peak_resident_bytes,
            registry->options().memory_budget_bytes);

  std::vector<DatasetEntryInfo> entries = registry->ListEntries();
  ASSERT_EQ(entries.size(), kDatasets);
  EXPECT_TRUE(entries[0].resident);   // ds0: recently touched.
  EXPECT_FALSE(entries[1].resident);  // ds1: evicted.
  EXPECT_TRUE(entries[2].resident);   // ds2: just admitted.

  // An evicted dataset reloads on demand (and evicts the new LRU, ds0).
  ASSERT_TRUE(registry->Acquire("ds1").ok());
  EXPECT_EQ(registry->stats().loads, 4u);
  EXPECT_FALSE(registry->ListEntries()[0].resident);
}

TEST_F(DatasetRegistryTest, OversizedDatasetIsServedUnpinned) {
  const size_t one = OneDatasetBytes();
  std::unique_ptr<DatasetRegistry> registry = MakeRegistry(one / 2);  // Nothing fits.
  auto pinned = registry->Acquire("ds0");
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  // The caller's pin works; the registry holds nothing.
  InsightQuery query;
  query.class_name = "skew";
  query.top_k = 3;
  EXPECT_TRUE((*pinned)->session().Execute(query).ok());
  DatasetRegistryStats stats = registry->stats();
  EXPECT_EQ(stats.resident_datasets, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
}

TEST_F(DatasetRegistryTest, ConcurrentAcquiresOfOneIdLoadOnce) {
  std::unique_ptr<DatasetRegistry> registry = MakeRegistry(0);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto pinned = registry->Acquire("ds2");
      if (!pinned.ok() || (*pinned)->id() != "ds2") failures.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Single-flight: one load despite 8 concurrent cold acquirers.
  EXPECT_EQ(registry->stats().loads, 1u);
  EXPECT_EQ(registry->stats().misses, 1u);
  EXPECT_EQ(registry->stats().hits, 7u);
}

TEST_F(DatasetRegistryTest, ChurnUnderTightBudgetHoldsTheInvariant) {
  // The TSAN stress: every dataset fights for a budget that holds only two,
  // while a probe thread continuously asserts the budget invariant and
  // queries run against pinned datasets that may be concurrently evicted.
  const size_t one = OneDatasetBytes();
  std::unique_ptr<DatasetRegistry> registry = MakeRegistry(2 * one + one / 2);
  constexpr int kThreads = 6;
  constexpr int kIterations = 25;

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<bool> budget_exceeded{false};
  std::thread probe([&] {
    while (!stop.load()) {
      if (registry->stats().resident_bytes >
          registry->options().memory_budget_bytes) {
        budget_exceeded.store(true);
      }
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const std::string id =
            "ds" + std::to_string((t + i) % kDatasets);
        auto pinned = registry->Acquire(id);
        if (!pinned.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Query through the pin even if the registry evicts it right now.
        InsightQuery query;
        query.class_name = "dispersion";
        query.top_k = 2;
        if (!(*pinned)->session().Execute(query).ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  stop.store(true);
  probe.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_FALSE(budget_exceeded.load());
  DatasetRegistryStats stats = registry->stats();
  EXPECT_LE(stats.resident_bytes, registry->options().memory_budget_bytes);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kIterations);
}

TEST_F(DatasetRegistryTest, WireListingMatchesRegistryState) {
  std::unique_ptr<DatasetRegistry> registry = MakeRegistry(0);
  ASSERT_TRUE(registry->Acquire("ds3").ok());
  JsonValue listing = WireDatasetsResponseV1(
      registry->ListEntries(), registry->stats(),
      registry->options().memory_budget_bytes);
  ASSERT_TRUE(listing.is_object());
  const JsonValue* datasets = listing.Get("datasets");
  ASSERT_NE(datasets, nullptr);
  ASSERT_EQ(datasets->size(), kDatasets);
  EXPECT_EQ(datasets->at(3).Get("id")->as_string(), "ds3");
  EXPECT_TRUE(datasets->at(3).Get("resident")->as_bool());
  EXPECT_FALSE(datasets->at(0).Get("resident")->as_bool());
  const JsonValue* summary = listing.Get("registry");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->Get("total_datasets")->as_number(),
            static_cast<double>(kDatasets));
}

TEST_F(DatasetRegistryTest, AppendGrowsDatasetAndReportsOutcome) {
  std::unique_ptr<DatasetRegistry> registry = MakeRegistry(0);
  auto pinned = registry->Acquire("ds0");
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  const size_t bytes_before = (*pinned)->resident_bytes();
  EXPECT_FALSE((*pinned)->mutated());

  const DataTable delta = MakeBenchmarkTable(3, 6, 2, 999);
  auto outcome = registry->Append("ds0", delta);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->rows_before, kRows);
  EXPECT_EQ(outcome->rows_appended, 3u);
  EXPECT_EQ(outcome->num_rows, kRows + 3);
  EXPECT_TRUE(outcome->delta_merged);
  EXPECT_GT(outcome->serving_epoch, 0u);
  EXPECT_GT(outcome->resident_bytes, bytes_before);

  // The same resident object grew in place: the original pin observes the
  // appended rows, is flagged mutated, and its accounting tracks the growth.
  EXPECT_EQ((*pinned)->table().num_rows(), kRows + 3);
  EXPECT_TRUE((*pinned)->mutated());
  EXPECT_EQ((*pinned)->resident_bytes(), outcome->resident_bytes);
  EXPECT_EQ(registry->stats().resident_bytes, outcome->resident_bytes);

  // Queries against the grown dataset answer normally.
  InsightQuery query;
  query.class_name = "skew";
  query.top_k = 3;
  EXPECT_TRUE((*pinned)->session().Execute(query).ok());

  // Error paths: unknown id, then a schema-mismatched delta that must leave
  // the dataset untouched.
  EXPECT_EQ(registry->Append("nope", delta).status().code(),
            StatusCode::kNotFound);
  DataTable wrong;
  ASSERT_TRUE(wrong.AddNumericColumn("imposter", {1.0}).ok());
  EXPECT_FALSE(registry->Append("ds0", wrong).ok());
  EXPECT_EQ((*pinned)->table().num_rows(), kRows + 3);
}

TEST_F(DatasetRegistryTest, MutatedDatasetIsExemptFromEviction) {
  // An appended dataset's only source of truth is the resident copy — its
  // on-disk CSV and snapshot no longer carry the appended rows, so evicting
  // it would silently drop data on reload. Eviction must skip it even when
  // that overshoots the byte budget.
  const size_t one = OneDatasetBytes();
  std::unique_ptr<DatasetRegistry> registry = MakeRegistry(2 * one + one / 2);

  ASSERT_TRUE(registry->Acquire("ds0").ok());
  const DataTable delta = MakeBenchmarkTable(2, 6, 2, 777);
  ASSERT_TRUE(registry->Append("ds0", delta).ok());

  // Churn every other dataset through the two-slot budget; ds0 would be the
  // LRU victim each time if mutation didn't exempt it.
  for (const char* id : {"ds1", "ds2", "ds3", "ds1", "ds2"}) {
    ASSERT_TRUE(registry->Acquire(id).ok());
  }
  DatasetRegistryStats stats = registry->stats();
  EXPECT_GT(stats.evictions, 0u);
  std::vector<DatasetEntryInfo> entries = registry->ListEntries();
  EXPECT_TRUE(entries[0].resident);  // ds0 survived every eviction pass.
  auto again = registry->Acquire("ds0");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->table().num_rows(), kRows + 2);
}

TEST_F(DatasetRegistryTest, AppendsRaceQueriesAndEvictionsCoherently) {
  // TSAN surface for the append path: concurrent appends (exclusive on the
  // per-dataset mutex), queries (shared, as the serving layer takes it), and
  // cold loads of other datasets churning the registry around them. Every
  // append must land exactly once: 220 + appenders * rounds rows at the end.
  std::unique_ptr<DatasetRegistry> registry = MakeRegistry(0);
  constexpr int kAppenders = 2;
  constexpr int kRounds = 4;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      const DataTable delta = MakeBenchmarkTable(1, 6, 2, 500 + t);
      for (int i = 0; i < kRounds; ++i) {
        if (!registry->Append("ds0", delta).ok()) failures.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      InsightQuery query;
      query.class_name = "dispersion";
      query.top_k = 3;
      for (int i = 0; i < 6; ++i) {
        auto pinned = registry->Acquire("ds0");
        if (!pinned.ok()) {
          failures.fetch_add(1);
          continue;
        }
        ReaderLock guard((*pinned)->data_mutex());
        if (!(*pinned)->session().Execute(query).ok()) failures.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 6; ++i) {
      for (const char* id : {"ds1", "ds2", "ds3"}) {
        if (!registry->Acquire(id).ok()) failures.fetch_add(1);
      }
    }
  });
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  auto final_pin = registry->Acquire("ds0");
  ASSERT_TRUE(final_pin.ok());
  EXPECT_EQ((*final_pin)->table().num_rows(),
            kRows + static_cast<size_t>(kAppenders * kRounds));
  EXPECT_EQ(registry->stats().resident_bytes,
            (*final_pin)->resident_bytes() + [&] {
              size_t others = 0;
              for (const DatasetEntryInfo& entry : registry->ListEntries()) {
                if (entry.id != "ds0") others += entry.resident_bytes;
              }
              return others;
            }());
}

TEST_F(DatasetRegistryTest, StaleSnapshotFallsBackToRebuildAfterFileGrowth) {
  // The on-disk staleness contract: a snapshot written before rows were
  // appended to the backing CSV must be rejected by its row-count prelude,
  // and the registry must rebuild from the grown CSV instead of serving a
  // profile that disagrees with the table (`foresight_snapshot refresh` is
  // the offline repair for exactly this state).
  const std::string csv_path = dir_ + "/ds0.csv";
  auto table = CsvReader::ReadFile(csv_path);
  ASSERT_TRUE(table.ok());
  const DataTable delta = MakeBenchmarkTable(5, 6, 2, 321);
  ASSERT_TRUE(table->AppendRows(delta).ok());
  ASSERT_TRUE(CsvWriter::WriteFile(*table, csv_path).ok());

  std::unique_ptr<DatasetRegistry> registry = MakeRegistry(0);
  auto pinned = registry->Acquire("ds0");
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_FALSE((*pinned)->loaded_from_snapshot());  // Stale snapshot refused.
  EXPECT_EQ((*pinned)->table().num_rows(), kRows + 5);
  InsightQuery query;
  query.class_name = "skew";
  query.top_k = 3;
  EXPECT_TRUE((*pinned)->session().Execute(query).ok());
}

}  // namespace
}  // namespace foresight
