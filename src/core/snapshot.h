#ifndef FORESIGHT_CORE_SNAPSHOT_H_
#define FORESIGHT_CORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/profile.h"
#include "data/table.h"
#include "util/status.h"

namespace foresight {

class ThreadPool;

/// Binary profile snapshots.
///
/// The paper's premise (§3) is that preprocessing is paid once so queries
/// stay interactive — but a process restart used to re-pay the full
/// `Preprocessor::Profile` cost per table. A snapshot persists the profile's
/// mergeable state (sketch config, shared row sample, every column's sketch
/// bundle; derived signatures are rebuilt on load) so attaching a dataset
/// costs milliseconds of decoding instead of a rebuild. Contents go through
/// the same hostile-input-hardened per-sketch serializers as the JSON
/// profile documents (`TableProfile::ToJson` /
/// `Preprocessor::LoadProfile`), but the document travels as the FJB1
/// binary JsonValue encoding (util/json_binary.h): doubles are bit-exact raw
/// bytes, so a loaded profile is bit-identical to the freshly preprocessed
/// one and loading skips all text parsing.
///
/// File layout (all integers little-endian):
///   [ 0..8)   magic "FSNAPBIN"
///   [ 8..12)  u32 format version (currently 1)
///   [12..16)  u32 reserved, must be zero
///   [16..24)  u64 header length in bytes
///   [24..32)  u64 payload length in bytes
///   [32..40)  u64 CRC-64 of the header bytes
///   [40..48)  u64 CRC-64 of the payload bytes
///   [48..48+header)          header: FJB1-encoded summary document
///   [48+header..48+h+payload) payload: FJB1-encoded profile document
///
/// The header duplicates cheap summary facts (row/column counts, column
/// names, estimated profile bytes) so `inspect` and registry admission can
/// read 1 KB instead of decoding the multi-MB payload. The file must end
/// exactly at the declared payload end: trailing bytes are rejected, and
/// both checksums are verified before any payload decoding.
///
/// Versioning: the reader accepts only `kSnapshotFormatVersion`; the
/// embedded profile document additionally carries its own version (3), and
/// `Preprocessor::LoadProfile` refuses any other, as it refuses columns whose
/// sketch geometry disagrees with the document's config. Snapshots are a
/// cache, never the source of truth — on any mismatch callers fall back to
/// re-preprocessing.
inline constexpr uint32_t kSnapshotFormatVersion = 1;
inline constexpr std::string_view kSnapshotMagic = "FSNAPBIN";
inline constexpr size_t kSnapshotPreludeBytes = 48;

/// Summary facts decoded from a snapshot's header (payload untouched).
struct SnapshotInfo {
  uint32_t version = 0;
  uint64_t header_bytes = 0;
  uint64_t payload_bytes = 0;
  size_t num_rows = 0;
  size_t num_columns = 0;
  /// Column names in table order, "name:numeric" / "name:categorical".
  std::vector<std::string> columns;
  /// TableProfile::EstimateMemoryBytes() at encode time.
  uint64_t profile_bytes = 0;
  /// Wall seconds the original preprocessing run took (reporting only).
  double preprocess_seconds = 0.0;
};

/// Encodes `profile` as a complete snapshot file image.
std::string EncodeProfileSnapshot(const TableProfile& profile);

/// Writes `profile` to `path` atomically (temp file + rename), so a crashed
/// writer can never leave a truncated snapshot behind under the final name.
Status WriteProfileSnapshot(const TableProfile& profile,
                            const std::string& path);

/// Validates the prelude + header checksum and decodes the summary header.
/// Does not decode (but does checksum) the payload when `verify_payload`.
StatusOr<SnapshotInfo> InspectProfileSnapshot(std::string_view bytes,
                                              bool verify_payload = true);

/// Fully decodes a snapshot against `table` (which must be the table the
/// profile was built from; names/types/row count are validated, and the
/// table must outlive the returned profile). When `pool` is non-null the
/// sample vectors rematerialize in parallel; results are bit-identical
/// either way.
StatusOr<TableProfile> LoadProfileSnapshot(const DataTable& table,
                                           std::string_view bytes,
                                           ThreadPool* pool = nullptr);

/// File variants of the above.
StatusOr<SnapshotInfo> InspectProfileSnapshotFile(const std::string& path,
                                                  bool verify_payload = true);
StatusOr<TableProfile> LoadProfileSnapshotFile(const DataTable& table,
                                               const std::string& path,
                                               ThreadPool* pool = nullptr);

}  // namespace foresight

#endif  // FORESIGHT_CORE_SNAPSHOT_H_
