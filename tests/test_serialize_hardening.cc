// Hardening tests for sketch/serialize.cc: hostile or corrupt snapshot
// documents must come back as Status errors — never abort, over-read, or
// allocate memory proportional to attacker-chosen geometry fields. The
// targeted cases mirror classes of inputs the fuzz harnesses
// (fuzz/fuzz_sketch.cc, fuzz/fuzz_snapshot.cc) explore; the bit-flip sweeps
// replay the fuzzers' cheapest mutation directly against real serialized
// payloads — both the per-sketch JSON documents and whole binary profile
// snapshots (core/snapshot.h).
#include "sketch/serialize.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/profile.h"
#include "core/snapshot.h"
#include "data/column.h"
#include "data/generators.h"
#include "data/table.h"
#include "sketch/bundle.h"
#include "snapshot_fakes.h"
#include "util/json.h"
#include "util/json_binary.h"
#include "util/string_util.h"

namespace foresight {
namespace {

JsonValue ParseOrDie(const std::string& text) {
  auto parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().message();
  return *parsed;
}

// A small but fully populated pair of column sketches to corrupt.
class SerializeHardeningTest : public testing::Test {
 protected:
  SerializeHardeningTest() {
    NumericColumn numeric;
    for (int i = 0; i < 200; ++i) {
      if (i % 23 == 0) {
        numeric.AppendNull();
      } else {
        numeric.Append(0.5 * i - 17.0);
      }
    }
    CategoricalColumn categorical;
    const char* words[] = {"alpha", "beta", "gamma", "delta"};
    for (int i = 0; i < 200; ++i) categorical.Append(words[(i * i) % 4]);

    SketchConfig config;
    config.kll_k = 32;
    config.spacesaving_capacity = 8;
    config.entropy_k = 16;
    config.projection_dims = 8;
    config.hyperplane_bits = 64;
    BundleBuilder builder(config, numeric.size());
    numeric_ = builder.SketchNumeric(numeric);
    categorical_ = builder.SketchCategorical(categorical);
  }

  NumericColumnSketch numeric_;
  CategoricalColumnSketch categorical_;
};

TEST_F(SerializeHardeningTest, RejectsNegativeAndFractionalCounts) {
  JsonValue doc = MomentsToJson(numeric_.moments);
  doc.Set("n", -1);
  EXPECT_FALSE(MomentsFromJson(doc).ok());
  doc.Set("n", 1.5);
  EXPECT_FALSE(MomentsFromJson(doc).ok());
  // 2e19 exceeds 2^64 - 1: must be an overflow error, not a silent wrap.
  doc.Set("n", 2e19);
  EXPECT_FALSE(MomentsFromJson(doc).ok());
}

TEST_F(SerializeHardeningTest, RejectsStringCountsThatStrtoullWouldAccept) {
  // strtoull happily parses "-1" (wrapping to 2^64-1), empty strings and
  // leading whitespace; the strict parser must not.
  JsonValue doc = MomentsToJson(numeric_.moments);
  doc.Set("n", "-1");
  EXPECT_FALSE(MomentsFromJson(doc).ok());
  doc.Set("n", "");
  EXPECT_FALSE(MomentsFromJson(doc).ok());
  doc.Set("n", " 5");
  EXPECT_FALSE(MomentsFromJson(doc).ok());
  doc.Set("n", "0x10");
  EXPECT_FALSE(MomentsFromJson(doc).ok());
  doc.Set("n", "99999999999999999999999");  // > 20 digits
  EXPECT_FALSE(MomentsFromJson(doc).ok());
}

TEST_F(SerializeHardeningTest, RejectsKllLevelCountAboveShiftWidth) {
  // Level weights are computed as 1 << level; 64+ levels would be shift UB.
  JsonValue doc = KllToJson(numeric_.quantiles);
  JsonValue levels = JsonValue::Array();
  for (int i = 0; i < 65; ++i) levels.Append(JsonValue::Array());
  doc.Set("levels", std::move(levels));
  auto result = KllFromJson(doc);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST_F(SerializeHardeningTest, RejectsAllocationBombGeometry) {
  // Each ctor allocates from its geometry fields, so oversized dimensions
  // must be rejected before any sketch object is constructed.
  JsonValue entropy = EntropyToJson(categorical_.entropy);
  entropy.Set("k", 1e18);
  EXPECT_FALSE(EntropyFromJson(entropy).ok());
}

TEST_F(SerializeHardeningTest, RejectsSpaceSavingCounterOverflow) {
  JsonValue doc = SpaceSavingToJson(categorical_.heavy_hitters);
  doc.Set("capacity", 1);  // Fewer than the serialized counters.
  EXPECT_FALSE(SpaceSavingFromJson(doc).ok());
}

TEST_F(SerializeHardeningTest, RejectsEntropyRegisterMismatch) {
  JsonValue doc = EntropyToJson(categorical_.entropy);
  doc.Set("k", 8);  // Real payload carries 16 registers.
  EXPECT_FALSE(EntropyFromJson(doc).ok());
}

TEST_F(SerializeHardeningTest, RejectsMismatchedProjectionLengths) {
  // CenteredProjection() combines projection and projection_ones
  // component-wise under a CHECK; the deserializer must reject the mismatch.
  JsonValue doc = NumericSketchToJson(numeric_);
  JsonValue shorter = JsonValue::Object();
  JsonValue components = JsonValue::Array();
  components.Append(1.0);
  shorter.Set("components", std::move(components));
  doc.Set("projection_ones", std::move(shorter));
  auto result = NumericSketchFromJson(doc);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST_F(SerializeHardeningTest, RejectsWrongTypesEverywhere) {
  // Scalar fields replaced by arrays/objects/strings must error, not crash.
  for (const char* field : {"n", "mean", "m2", "m3", "m4", "min", "max"}) {
    JsonValue doc = MomentsToJson(numeric_.moments);
    doc.Set(field, JsonValue::Array());
    EXPECT_FALSE(MomentsFromJson(doc).ok()) << field;
  }
  JsonValue kll = KllToJson(numeric_.quantiles);
  kll.Set("levels", "oops");
  EXPECT_FALSE(KllFromJson(kll).ok());
}

TEST_F(SerializeHardeningTest, BitFlippedPayloadsNeverCrash) {
  // The fuzzers' cheapest mutation, replayed exhaustively: flip one bit per
  // byte of a real serialized bundle. Every variant must either fail with a
  // Status or deserialize to a sketch that re-serializes cleanly.
  const std::string compact = NumericSketchToJson(numeric_).Dump();
  for (size_t i = 0; i < compact.size(); ++i) {
    std::string flipped = compact;
    flipped[i] = static_cast<char>(flipped[i] ^ (1 << (i % 8)));
    auto parsed = JsonValue::Parse(flipped);
    if (!parsed.ok()) continue;
    auto sketch = NumericSketchFromJson(*parsed);
    if (!sketch.ok()) continue;
    (void)NumericSketchToJson(*sketch).Dump();
  }

  const std::string cat = CategoricalSketchToJson(categorical_).Dump();
  for (size_t i = 0; i < cat.size(); ++i) {
    std::string flipped = cat;
    flipped[i] = static_cast<char>(flipped[i] ^ (1 << (i % 8)));
    auto parsed = JsonValue::Parse(flipped);
    if (!parsed.ok()) continue;
    auto sketch = CategoricalSketchFromJson(*parsed);
    if (!sketch.ok()) continue;
    (void)CategoricalSketchToJson(*sketch).Dump();
  }
}

TEST_F(SerializeHardeningTest, TruncatedPayloadsAlwaysError) {
  // Every proper prefix of a serialized document is malformed JSON or an
  // incomplete object; none may crash and none may deserialize.
  const std::string compact = CategoricalSketchToJson(categorical_).Dump();
  for (size_t len = 0; len < compact.size(); ++len) {
    auto parsed = JsonValue::Parse(compact.substr(0, len));
    if (!parsed.ok()) continue;  // Most prefixes die in the JSON layer.
    EXPECT_FALSE(CategoricalSketchFromJson(*parsed).ok()) << "prefix " << len;
  }
}

TEST_F(SerializeHardeningTest, CanonicalFormIsAFixedPoint) {
  // Serialize -> deserialize -> serialize must be byte-stable (the fuzz
  // harnesses assert this for arbitrary accepted inputs; pin it here for
  // the canonical ones).
  JsonValue first = NumericSketchToJson(numeric_);
  auto decoded = NumericSketchFromJson(first);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(NumericSketchToJson(*decoded).Dump(), first.Dump());

  JsonValue cat_first = CategoricalSketchToJson(categorical_);
  auto cat_decoded = CategoricalSketchFromJson(cat_first);
  ASSERT_TRUE(cat_decoded.ok());
  EXPECT_EQ(CategoricalSketchToJson(*cat_decoded).Dump(), cat_first.Dump());
}

TEST_F(SerializeHardeningTest, NonObjectDocumentsError) {
  for (const char* text : {"null", "[]", "42", "\"str\"", "true"}) {
    JsonValue doc = ParseOrDie(text);
    EXPECT_FALSE(NumericSketchFromJson(doc).ok()) << text;
    EXPECT_FALSE(CategoricalSketchFromJson(doc).ok()) << text;
    EXPECT_FALSE(SketchConfigFromJson(doc).ok()) << text;
    EXPECT_FALSE(KllFromJson(doc).ok()) << text;
  }
}

// The same sweeps at the level of whole binary profile snapshots: the
// container (prelude, checksums, FJB1 documents) plus every per-sketch
// validator behind it must degrade any corruption to a Status.
class SnapshotHardeningTest : public testing::Test {
 protected:
  SnapshotHardeningTest() : table_(MakeBenchmarkTable(60, 3, 1, 7)) {
    auto profile = Preprocessor::Profile(table_);
    EXPECT_TRUE(profile.ok());
    bytes_ = EncodeProfileSnapshot(*profile);
    document_ = profile->ToJson();
    // The fixture's own document loads both ways, so a variant that
    // ExpectRefused turns away fails for what it changed.
    EXPECT_TRUE(Preprocessor::LoadProfile(table_, document_).ok());
    EXPECT_TRUE(
        LoadProfileSnapshot(table_, SnapshotWithDocument(bytes_, document_))
            .ok());
  }

  /// The fixture's profile document with column `column` sketched again
  /// under `config`: well formed, but of another geometry than the rest.
  JsonValue WithColumnSketchedUnder(size_t column,
                                    const SketchConfig& config) const {
    BundleBuilder builder(config, table_.num_rows());
    const Column& data = table_.column(column);
    JsonValue sketch =
        data.type() == ColumnType::kNumeric
            ? NumericSketchToJson(builder.SketchNumeric(data.AsNumeric()))
            : CategoricalSketchToJson(
                  builder.SketchCategorical(data.AsCategorical()));
    const char* kind =
        data.type() == ColumnType::kNumeric ? "numeric" : "categorical";
    JsonValue document = document_;
    JsonValue sketches = *document.Get(kind);
    sketches.Set(table_.column_name(column), std::move(sketch));
    document.Set(kind, std::move(sketches));
    return document;
  }

  /// Both loaders must refuse `document`: as a JSON profile and inside a
  /// checksum-correct snapshot.
  void ExpectRefused(const JsonValue& document) const {
    EXPECT_FALSE(Preprocessor::LoadProfile(table_, document).ok());
    EXPECT_FALSE(
        LoadProfileSnapshot(table_, SnapshotWithDocument(bytes_, document))
            .ok());
  }

  DataTable table_;
  std::string bytes_;
  JsonValue document_;
};

TEST_F(SnapshotHardeningTest, BitFlippedSnapshotsNeverCrash) {
  // Flip one bit per byte of a real snapshot file image. The checksums
  // reject nearly every variant; any accepted one must load to a profile
  // that re-encodes cleanly.
  for (size_t i = 0; i < bytes_.size(); ++i) {
    std::string flipped = bytes_;
    flipped[i] = static_cast<char>(flipped[i] ^ (1 << (i % 8)));
    auto info = InspectProfileSnapshot(flipped);
    auto loaded = LoadProfileSnapshot(table_, flipped);
    if (loaded.ok()) {
      (void)EncodeProfileSnapshot(*loaded);
    } else {
      // An unloadable snapshot must also be uninspectable or carry intact
      // summary metadata — either way, no crash and no over-read.
      (void)info;
    }
  }
}

TEST_F(SnapshotHardeningTest, TruncatedSnapshotsAlwaysError) {
  // Every proper prefix must fail: shorter than the prelude, shorter than
  // the declared lengths, or failing a checksum over missing bytes.
  const size_t step = bytes_.size() > 512 ? 7 : 1;
  for (size_t len = 0; len < bytes_.size(); len += step) {
    const std::string prefix = bytes_.substr(0, len);
    EXPECT_FALSE(InspectProfileSnapshot(prefix).ok()) << "prefix " << len;
    EXPECT_FALSE(LoadProfileSnapshot(table_, prefix).ok())
        << "prefix " << len;
  }
}

TEST_F(SnapshotHardeningTest, ChecksumCorrectGarbageDocumentsAreRejected) {
  // A snapshot whose prelude and checksums are self-consistent but whose
  // header/payload documents are garbage must be rejected on structure —
  // the layer BELOW the checksums is also hostile-input-hardened.
  const std::string fake = FakeSnapshot("not an FJB1 document", "nor is this");
  EXPECT_FALSE(InspectProfileSnapshot(fake).ok());
  EXPECT_FALSE(LoadProfileSnapshot(table_, fake).ok());

  // A well-formed header whose row count is negative: rejected, never cast
  // to a size.
  JsonValue header = JsonValue::Object();
  header.Set("format", "foresight.snapshot");
  header.Set("num_rows", -1.0);
  header.Set("num_columns", 0);
  header.Set("columns", JsonValue::Array());
  const std::string negative_rows = FakeSnapshot(
      JsonBinaryEncode(header), JsonBinaryEncode(JsonValue::Object()));
  EXPECT_FALSE(InspectProfileSnapshot(negative_rows).ok());
  EXPECT_FALSE(LoadProfileSnapshot(table_, negative_rows).ok());
}

TEST_F(SnapshotHardeningTest, RefusesColumnsOfAnotherGeometry) {
  // Well-formed documents whose sketches disagree on geometry. Each used to
  // load, then abort the first sketch query that paired the odd column or
  // the first append that merged into it; a zero projection width aborted
  // the load itself.
  auto with_config = [&](const char* key, double value) {
    JsonValue document = document_;
    JsonValue config = *document.Get("config");
    config.Set(key, value);
    document.Set("config", std::move(config));
    return document;
  };
  SketchConfig wide_hyperplanes;  // The fixture's 60 rows resolve to 64 bits.
  wide_hyperplanes.hyperplane_bits = 128;
  SketchConfig narrow_projection;
  narrow_projection.projection_dims = 8;
  SketchConfig small_entropy;
  small_entropy.entropy_k = 16;
  const size_t categorical = table_.CategoricalColumnIndices()[0];
  const std::pair<const char*, JsonValue> cases[] = {
      {"numeric column at 128 bits",
       WithColumnSketchedUnder(0, wide_hyperplanes)},
      {"numeric column at 8 projection dims",
       WithColumnSketchedUnder(1, narrow_projection)},
      {"categorical column at entropy k 16",
       WithColumnSketchedUnder(categorical, small_entropy)},
      // Every column agrees on 64 bits where the config asks for 128: an
      // append would sketch a 128-bit delta and merge it into them.
      {"config at 128 bits", with_config("hyperplane_bits", 128)},
      {"config at 0 projection dims", with_config("projection_dims", 0)},
  };
  for (const auto& [label, document] : cases) {
    SCOPED_TRACE(label);
    ExpectRefused(document);
  }
}

TEST_F(SnapshotHardeningTest, RefusesOtherProfileVersions) {
  // Version 1 documents stored Count-Min sketches and signatures, version 2
  // a reservoir sample per numeric column; a snapshot holding either is
  // stale and falls back to a rebuild.
  for (double version : {1.0, 2.0, 4.0}) {
    SCOPED_TRACE(version);
    JsonValue document = document_;
    document.Set("version", version);
    ExpectRefused(document);
  }
  JsonValue unversioned = document_;
  unversioned.Remove("version");
  ExpectRefused(unversioned);
}

}  // namespace
}  // namespace foresight
