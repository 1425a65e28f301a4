// Checksum-correct snapshot images around arbitrary bytes or documents, for
// tests that must reach the layers below a snapshot's prelude and checksums
// (core/snapshot.h).
#ifndef FORESIGHT_TESTS_SNAPSHOT_FAKES_H_
#define FORESIGHT_TESTS_SNAPSHOT_FAKES_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/snapshot.h"
#include "util/json.h"
#include "util/json_binary.h"
#include "util/string_util.h"

namespace foresight {

/// A snapshot file image of `header` and `payload` with a valid prelude and
/// both checksums, whatever the two hold.
inline std::string FakeSnapshot(std::string_view header,
                                std::string_view payload) {
  std::string fake(kSnapshotMagic);
  auto append = [&fake](uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      fake.push_back(static_cast<char>(value >> (8 * i)));
    }
  };
  append(kSnapshotFormatVersion, 4);
  append(0, 4);
  append(header.size(), 8);
  append(payload.size(), 8);
  append(Crc64(header), 8);
  append(Crc64(payload), 8);
  fake += header;
  fake += payload;
  return fake;
}

/// `snapshot`, a valid image, with its profile document replaced by
/// `document`. The header is kept, so the result still inspects cleanly.
inline std::string SnapshotWithDocument(std::string_view snapshot,
                                        const JsonValue& document) {
  StatusOr<SnapshotInfo> info = InspectProfileSnapshot(snapshot);
  if (!info.ok()) return "";
  return FakeSnapshot(
      snapshot.substr(kSnapshotPreludeBytes, info->header_bytes),
      JsonBinaryEncode(document));
}

}  // namespace foresight

#endif  // FORESIGHT_TESTS_SNAPSHOT_FAKES_H_
