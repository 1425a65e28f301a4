#include "core/snapshot.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <utility>

#include "util/fd.h"
#include "util/json.h"
#include "util/json_binary.h"
#include "util/string_util.h"

namespace foresight {

namespace {

void AppendU32(std::string& out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void AppendU64(std::string& out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

uint32_t ReadU32(std::string_view bytes, size_t offset) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[offset + i]))
             << (8 * i);
  }
  return value;
}

uint64_t ReadU64(std::string_view bytes, size_t offset) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[offset + i]))
             << (8 * i);
  }
  return value;
}

JsonValue BuildHeader(const TableProfile& profile) {
  const DataTable& table = profile.table();
  JsonValue header = JsonValue::Object();
  header.Set("format", "foresight.snapshot");
  header.Set("num_rows", table.num_rows());
  header.Set("num_columns", table.num_columns());
  JsonValue columns = JsonValue::Array();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    std::string entry = table.column_name(c);
    entry += table.column(c).type() == ColumnType::kNumeric ? ":numeric"
                                                            : ":categorical";
    columns.Append(std::move(entry));
  }
  header.Set("columns", std::move(columns));
  header.Set("profile_bytes", profile.EstimateMemoryBytes());
  header.Set("preprocess_seconds", profile.preprocess_seconds());
  return header;
}

struct Prelude {
  uint32_t version = 0;
  uint64_t header_len = 0;
  uint64_t payload_len = 0;
  uint64_t header_crc = 0;
  uint64_t payload_crc = 0;
};

/// Validates the fixed-size prelude and the declared-vs-actual file size;
/// checksums are verified by the caller (header always, payload on demand).
StatusOr<Prelude> ParsePrelude(std::string_view bytes) {
  if (bytes.size() < kSnapshotPreludeBytes) {
    return Status::ParseError("snapshot shorter than its fixed prelude");
  }
  if (bytes.substr(0, kSnapshotMagic.size()) != kSnapshotMagic) {
    return Status::ParseError("not a foresight snapshot (bad magic)");
  }
  Prelude prelude;
  prelude.version = ReadU32(bytes, 8);
  if (prelude.version != kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(prelude.version) +
        " (reader supports " + std::to_string(kSnapshotFormatVersion) + ")");
  }
  if (ReadU32(bytes, 12) != 0) {
    return Status::ParseError("snapshot reserved field must be zero");
  }
  prelude.header_len = ReadU64(bytes, 16);
  prelude.payload_len = ReadU64(bytes, 24);
  prelude.header_crc = ReadU64(bytes, 32);
  prelude.payload_crc = ReadU64(bytes, 40);
  // Sum in a widening-safe order: each length alone must also fit.
  const uint64_t body = bytes.size() - kSnapshotPreludeBytes;
  if (prelude.header_len > body || prelude.payload_len > body ||
      prelude.header_len + prelude.payload_len != body) {
    return Status::ParseError(
        "snapshot length fields do not match the file size");
  }
  return prelude;
}

std::string_view HeaderBytes(std::string_view bytes, const Prelude& prelude) {
  return bytes.substr(kSnapshotPreludeBytes, prelude.header_len);
}

std::string_view PayloadBytes(std::string_view bytes, const Prelude& prelude) {
  return bytes.substr(kSnapshotPreludeBytes + prelude.header_len,
                      prelude.payload_len);
}

StatusOr<SnapshotInfo> DecodeHeader(std::string_view header_bytes,
                                    const Prelude& prelude) {
  FORESIGHT_ASSIGN_OR_RETURN(JsonValue header, JsonBinaryDecode(header_bytes));
  const JsonValue* format = header.Get("format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != "foresight.snapshot") {
    return Status::ParseError("snapshot header has wrong format marker");
  }
  SnapshotInfo info;
  info.version = prelude.version;
  info.header_bytes = prelude.header_len;
  info.payload_bytes = prelude.payload_len;
  const JsonValue* num_rows = header.Get("num_rows");
  const JsonValue* num_columns = header.Get("num_columns");
  if (num_rows == nullptr || !num_rows->is_number() || num_columns == nullptr ||
      !num_columns->is_number()) {
    return Status::ParseError("snapshot header missing row/column counts");
  }
  std::optional<size_t> rows = SizeFromJsonNumber(num_rows->as_number());
  std::optional<size_t> cols = SizeFromJsonNumber(num_columns->as_number());
  if (!rows.has_value() || !cols.has_value()) {
    return Status::ParseError(
        "snapshot header row/column counts must be whole numbers");
  }
  info.num_rows = *rows;
  info.num_columns = *cols;
  const JsonValue* columns = header.Get("columns");
  if (columns == nullptr || !columns->is_array() ||
      columns->size() != info.num_columns) {
    return Status::ParseError("snapshot header column list is inconsistent");
  }
  for (size_t i = 0; i < columns->size(); ++i) {
    if (!columns->at(i).is_string()) {
      return Status::ParseError("snapshot header column entries must be "
                                "strings");
    }
    info.columns.push_back(columns->at(i).as_string());
  }
  if (const JsonValue* profile_bytes = header.Get("profile_bytes");
      profile_bytes != nullptr && profile_bytes->is_number()) {
    std::optional<size_t> bytes =
        SizeFromJsonNumber(profile_bytes->as_number());
    if (!bytes.has_value()) {
      return Status::ParseError(
          "snapshot header profile_bytes must be a whole number");
    }
    info.profile_bytes = *bytes;
  }
  if (const JsonValue* seconds = header.Get("preprocess_seconds");
      seconds != nullptr && seconds->is_number()) {
    info.preprocess_seconds = seconds->as_number();
  }
  return info;
}

}  // namespace

std::string EncodeProfileSnapshot(const TableProfile& profile) {
  const std::string header = JsonBinaryEncode(BuildHeader(profile));
  const std::string payload = JsonBinaryEncode(profile.ToJson());
  std::string out;
  out.reserve(kSnapshotPreludeBytes + header.size() + payload.size());
  out.append(kSnapshotMagic);
  AppendU32(out, kSnapshotFormatVersion);
  AppendU32(out, 0);  // reserved
  AppendU64(out, header.size());
  AppendU64(out, payload.size());
  AppendU64(out, Crc64(header));
  AppendU64(out, Crc64(payload));
  out.append(header);
  out.append(payload);
  return out;
}

Status WriteProfileSnapshot(const TableProfile& profile,
                            const std::string& path) {
  const std::string bytes = EncodeProfileSnapshot(profile);
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("cannot open '" + tmp_path + "' for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp_path.c_str());
      return Status::IOError("short write to '" + tmp_path + "'");
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot rename '" + tmp_path + "' to '" + path +
                           "'");
  }
  return Status::OK();
}

StatusOr<SnapshotInfo> InspectProfileSnapshot(std::string_view bytes,
                                              bool verify_payload) {
  FORESIGHT_ASSIGN_OR_RETURN(Prelude prelude, ParsePrelude(bytes));
  const std::string_view header = HeaderBytes(bytes, prelude);
  if (Crc64(header) != prelude.header_crc) {
    return Status::ParseError("snapshot header checksum mismatch");
  }
  if (verify_payload &&
      Crc64(PayloadBytes(bytes, prelude)) != prelude.payload_crc) {
    return Status::ParseError("snapshot payload checksum mismatch");
  }
  return DecodeHeader(header, prelude);
}

StatusOr<TableProfile> LoadProfileSnapshot(const DataTable& table,
                                           std::string_view bytes,
                                           ThreadPool* pool) {
  FORESIGHT_ASSIGN_OR_RETURN(SnapshotInfo info,
                             InspectProfileSnapshot(bytes, true));
  if (info.num_rows != table.num_rows() ||
      info.num_columns != table.num_columns()) {
    return Status::InvalidArgument(
        "snapshot shape (" + std::to_string(info.num_rows) + "x" +
        std::to_string(info.num_columns) + ") does not match the table (" +
        std::to_string(table.num_rows()) + "x" +
        std::to_string(table.num_columns()) + ")");
  }
  FORESIGHT_ASSIGN_OR_RETURN(Prelude prelude, ParsePrelude(bytes));
  FORESIGHT_ASSIGN_OR_RETURN(JsonValue document,
                             JsonBinaryDecode(PayloadBytes(bytes, prelude)));
  // Per-column name/type validation and all sketch-geometry hardening happen
  // inside LoadProfile via the shared serializers.
  return Preprocessor::LoadProfile(table, document, pool);
}

StatusOr<SnapshotInfo> InspectProfileSnapshotFile(const std::string& path,
                                                  bool verify_payload) {
  FORESIGHT_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return InspectProfileSnapshot(bytes, verify_payload);
}

StatusOr<TableProfile> LoadProfileSnapshotFile(const DataTable& table,
                                               const std::string& path,
                                               ThreadPool* pool) {
  FORESIGHT_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return LoadProfileSnapshot(table, bytes, pool);
}

}  // namespace foresight
