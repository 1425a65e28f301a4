// Fuzz harness for binary profile snapshots (core/snapshot.h) and the FJB1
// binary JsonValue codec underneath them (util/json_binary.h). Snapshot
// files cross trust boundaries — they are read back from disk at cold start
// by every dataset the registry serves — so arbitrary bytes must come back
// as a Status error, never abort, over-read, or allocate from an
// attacker-chosen length field.
//
// Three layers are exercised per input:
//   1. Raw FJB1 decoding of the bytes; accepted documents must re-encode
//      and re-decode to the same logical value (canonical fixed point).
//   2. Snapshot inspection (prelude, checksums, header document), with and
//      without payload verification.
//   3. Full profile loading against a fixed table; accepted profiles must
//      re-encode to a snapshot that inspects, loads, and re-encodes
//      byte-identically, and then serve: a 1-worker engine answers a sketch
//      query for every arity-2 class under each of its metrics and one for
//      low_entropy, then takes a one-row append. A profile the loader
//      accepts must never abort where a server would use it.
//
// The seed corpus contains a real snapshot of the same table the harness
// loads against (tier-1 test_snapshot checks that it loads), so coverage
// reaches past the checksums into the profile validators and the serving
// path instead of dying at the prelude. Regenerate it with
//   foresight_snapshot build --synthetic-rows=48 --synthetic-numeric=3
//       --synthetic-categorical=1 --seed=7 --csv-out=t.csv
//       --out=corpus/snapshot/table_48x4.fsnap
// and store the snapshot's payload document (the bytes after the prelude
// and header) as corpus/snapshot/profile_doc.fjb1.
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/profile.h"
#include "core/snapshot.h"
#include "data/generators.h"
#include "data/table.h"
#include "util/json.h"
#include "util/json_binary.h"
#include "util/logging.h"

namespace foresight {
namespace {

/// The table the seed-corpus snapshot was built from (see
/// fuzz/corpus/snapshot/). Must stay in sync with that file.
DataTable MakeFuzzTable() { return MakeBenchmarkTable(48, 3, 1, 7); }

const DataTable& FuzzTable() {
  static const DataTable* table = new DataTable(MakeFuzzTable());
  return *table;
}

/// Serves an accepted snapshot the way a registry dataset would, on a fresh
/// copy of the table (the append grows it).
void ServeSnapshot(std::string_view bytes) {
  DataTable table = MakeFuzzTable();
  StatusOr<TableProfile> profile = LoadProfileSnapshot(table, bytes);
  FORESIGHT_CHECK(profile.ok());
  EngineOptions options;
  options.num_workers = 1;
  StatusOr<InsightEngine> engine = InsightEngine::CreateFromProfile(
      table, std::move(*profile), std::move(options));
  FORESIGHT_CHECK(engine.ok());
  const InsightClassRegistry& registry = engine->registry();
  for (const std::string& name : registry.names()) {
    const InsightClass& insight_class = *registry.Find(name);
    std::vector<std::string> metrics = insight_class.metric_names();
    if (name == "low_entropy") {
      metrics = {""};  // The class default.
    } else if (insight_class.arity() != 2) {
      continue;
    }
    for (const std::string& metric : metrics) {
      InsightQuery query;
      query.class_name = name;
      query.metric = metric;
      query.mode = ExecutionMode::kSketch;
      query.top_k = 3;
      (void)engine->Execute(query);
    }
  }
  (void)engine->AppendPartition(table, MakeBenchmarkTable(1, 3, 1, 8));
}

void ExerciseJsonBinary(std::string_view bytes) {
  StatusOr<JsonValue> decoded = JsonBinaryDecode(bytes);
  if (!decoded.ok()) return;
  const std::string canonical = JsonBinaryEncode(*decoded);
  StatusOr<JsonValue> again = JsonBinaryDecode(canonical);
  FORESIGHT_CHECK(again.ok());
  FORESIGHT_CHECK(JsonBinaryEncode(*again) == canonical);
  FORESIGHT_CHECK(again->Dump() == decoded->Dump());
}

void ExerciseSnapshot(std::string_view bytes) {
  (void)InspectProfileSnapshot(bytes, /*verify_payload=*/false);
  (void)InspectProfileSnapshot(bytes, /*verify_payload=*/true);

  StatusOr<TableProfile> loaded = LoadProfileSnapshot(FuzzTable(), bytes);
  if (!loaded.ok()) return;

  // Accepted profiles must round-trip through the canonical encoding.
  const std::string canonical = EncodeProfileSnapshot(*loaded);
  StatusOr<SnapshotInfo> info = InspectProfileSnapshot(canonical);
  FORESIGHT_CHECK(info.ok());
  StatusOr<TableProfile> again = LoadProfileSnapshot(FuzzTable(), canonical);
  FORESIGHT_CHECK(again.ok());
  FORESIGHT_CHECK(EncodeProfileSnapshot(*again) == canonical);

  ServeSnapshot(bytes);
}

}  // namespace
}  // namespace foresight

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view bytes(reinterpret_cast<const char*>(data), size);
  foresight::ExerciseJsonBinary(bytes);
  foresight::ExerciseSnapshot(bytes);
  return 0;
}
