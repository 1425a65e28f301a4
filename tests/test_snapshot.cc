// Tests for binary profile snapshots (core/snapshot.h): lossless round-trips
// (the restored profile must be byte-identical to the original, and queries
// over it bit-identical across classes and worker counts), header/inspect
// metadata, and rejection of corrupt, truncated, or mismatched files.
#include "core/snapshot.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/profile.h"
#include "data/generators.h"
#include "data/table.h"
#include "serve/wire.h"
#include "util/fd.h"
#include "util/json.h"
#include "util/json_binary.h"
#include "util/thread_pool.h"

namespace foresight {
namespace {

class SnapshotTest : public testing::Test {
 protected:
  SnapshotTest() : table_(MakeOecdLike(600, 17)) {
    auto profile = Preprocessor::Profile(table_);
    EXPECT_TRUE(profile.ok()) << profile.status().ToString();
    profile_ = std::move(profile).value();
    bytes_ = EncodeProfileSnapshot(profile_);
  }

  DataTable table_;
  TableProfile profile_;
  std::string bytes_;
};

TEST_F(SnapshotTest, RoundTripIsByteIdentical) {
  auto restored = LoadProfileSnapshot(table_, bytes_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // Full-document equality: config, row sample, every sketch, and the
  // original preprocess_seconds all survive the binary round-trip exactly.
  EXPECT_EQ(restored->ToJson().Dump(), profile_.ToJson().Dump());
  EXPECT_EQ(restored->EstimateMemoryBytes(), profile_.EstimateMemoryBytes());
  EXPECT_EQ(restored->sampled_rows(), profile_.sampled_rows());
}

TEST_F(SnapshotTest, ParallelLoadMatchesSerialLoad) {
  ThreadPool pool(4);
  auto serial = LoadProfileSnapshot(table_, bytes_);
  auto parallel = LoadProfileSnapshot(table_, bytes_, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->ToJson().Dump(), parallel->ToJson().Dump());
}

TEST_F(SnapshotTest, QueriesOverRestoredProfileAreBitIdentical) {
  // The acceptance gate: every query class, at worker counts 1 and 8, must
  // produce byte-identical wire results from the snapshot-restored engine
  // and the freshly preprocessed one.
  const char* classes[] = {
      "linear_relationship",     "monotonic_relationship",
      "general_dependence",      "dispersion",
      "skew",                    "heavy_tails",
      "outliers",                "multimodality",
      "missing_values",          "heterogeneous_frequencies",
      "low_entropy",             "segmentation",
  };
  for (size_t workers : {size_t{1}, size_t{8}}) {
    auto restored = LoadProfileSnapshot(table_, bytes_);
    ASSERT_TRUE(restored.ok());
    EngineOptions options;
    options.num_workers = workers;
    options.collect_metrics = false;
    auto from_snapshot =
        InsightEngine::CreateFromProfile(table_, std::move(restored).value(),
                                         std::move(options));
    ASSERT_TRUE(from_snapshot.ok()) << from_snapshot.status().ToString();

    EngineOptions fresh_options;
    fresh_options.num_workers = workers;
    fresh_options.collect_metrics = false;
    auto fresh = InsightEngine::Create(table_, std::move(fresh_options));
    ASSERT_TRUE(fresh.ok());

    for (const char* class_name : classes) {
      for (ExecutionMode mode :
           {ExecutionMode::kExact, ExecutionMode::kSketch}) {
        InsightQuery query;
        query.class_name = class_name;
        query.top_k = 5;
        query.mode = mode;
        auto snapshot_result = from_snapshot->Execute(query);
        auto fresh_result = fresh->Execute(query);
        ASSERT_EQ(snapshot_result.ok(), fresh_result.ok())
            << class_name << " workers=" << workers;
        if (!snapshot_result.ok()) continue;
        EXPECT_EQ(WireResultV1(*snapshot_result).Dump(),
                  WireResultV1(*fresh_result).Dump())
            << class_name << " mode=" << static_cast<int>(mode)
            << " workers=" << workers;
      }
    }
  }
}

TEST_F(SnapshotTest, InspectReportsTheEncodedShape) {
  auto info = InspectProfileSnapshot(bytes_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kSnapshotFormatVersion);
  EXPECT_EQ(info->num_rows, table_.num_rows());
  EXPECT_EQ(info->num_columns, table_.num_columns());
  ASSERT_EQ(info->columns.size(), table_.num_columns());
  EXPECT_EQ(info->profile_bytes, profile_.EstimateMemoryBytes());
  EXPECT_EQ(kSnapshotPreludeBytes + info->header_bytes + info->payload_bytes,
            bytes_.size());
  // Column strings are "name:type" in table order.
  EXPECT_EQ(info->columns.front(),
            table_.column_name(0) + std::string(":numeric"));
}

TEST_F(SnapshotTest, FileRoundTripThroughAtomicWrite) {
  const std::string path = testing::TempDir() + "/snapshot_roundtrip.fsnap";
  Status written = WriteProfileSnapshot(profile_, path);
  ASSERT_TRUE(written.ok()) << written.ToString();
  auto info = InspectProfileSnapshotFile(path);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  auto restored = LoadProfileSnapshotFile(table_, path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->ToJson().Dump(), profile_.ToJson().Dump());
  // No temp file may survive a successful rename.
  auto leftover = ReadFileBytes(path + ".tmp");
  EXPECT_FALSE(leftover.ok());
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, RejectsWrongTable) {
  // Same schema, different row count: the shape check must fire before any
  // sample rematerialization.
  DataTable other = MakeOecdLike(601, 17);
  EXPECT_FALSE(LoadProfileSnapshot(other, bytes_).ok());

  // Different schema entirely.
  DataTable different = MakeBenchmarkTable(600, 4, 1, 9);
  EXPECT_FALSE(LoadProfileSnapshot(different, bytes_).ok());
}

TEST_F(SnapshotTest, RejectsCorruptPreludes) {
  // Wrong magic.
  std::string bad_magic = bytes_;
  bad_magic[0] = 'X';
  EXPECT_FALSE(InspectProfileSnapshot(bad_magic).ok());

  // Unsupported version.
  std::string bad_version = bytes_;
  bad_version[8] = 2;
  EXPECT_FALSE(InspectProfileSnapshot(bad_version).ok());

  // Nonzero reserved field.
  std::string bad_reserved = bytes_;
  bad_reserved[12] = 1;
  EXPECT_FALSE(InspectProfileSnapshot(bad_reserved).ok());

  // Header length pointing past the end of the file.
  std::string bad_length = bytes_;
  bad_length[22] = static_cast<char>(0x7F);
  EXPECT_FALSE(InspectProfileSnapshot(bad_length).ok());
}

TEST_F(SnapshotTest, ChecksumCatchesPayloadCorruption) {
  // Flip one payload byte: the CRC must reject it even though the FJB1
  // decoder might happily accept the mutated bytes.
  std::string corrupt = bytes_;
  corrupt[corrupt.size() - 9] ^= 0x01;
  EXPECT_FALSE(InspectProfileSnapshot(corrupt).ok());
  EXPECT_FALSE(LoadProfileSnapshot(table_, corrupt).ok());
  // Header-only inspection skips the payload checksum by design.
  EXPECT_TRUE(
      InspectProfileSnapshot(corrupt, /*verify_payload=*/false).ok());
}

TEST_F(SnapshotTest, RejectsTrailingBytes) {
  std::string padded = bytes_ + std::string(4, '\0');
  EXPECT_FALSE(InspectProfileSnapshot(padded).ok());
  EXPECT_FALSE(LoadProfileSnapshot(table_, padded).ok());
}

TEST_F(SnapshotTest, MissingFileIsAnError) {
  EXPECT_FALSE(InspectProfileSnapshotFile("/nonexistent/x.fsnap").ok());
  EXPECT_FALSE(
      LoadProfileSnapshotFile(table_, "/nonexistent/x.fsnap").ok());
}

TEST(SnapshotSeedTest, FuzzSeedLoadsAgainstTheHarnessTable) {
  // fuzz/fuzz_snapshot.cc loads every input against this table, and its
  // seed snapshot must load too, or the fuzzer never reaches the profile
  // validators. profile_doc.fjb1 is the same snapshot's payload.
  const DataTable table = MakeBenchmarkTable(48, 3, 1, 7);
  const std::string corpus = FORESIGHT_FUZZ_CORPUS_DIR "/snapshot/";
  auto loaded = LoadProfileSnapshotFile(table, corpus + "table_48x4.fsnap");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto payload = ReadFileBytes(corpus + "profile_doc.fjb1");
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  auto document = JsonBinaryDecode(*payload);
  ASSERT_TRUE(document.ok()) << document.status().ToString();
  EXPECT_EQ(document->Dump(), loaded->ToJson().Dump());
}

}  // namespace
}  // namespace foresight
