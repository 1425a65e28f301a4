#ifndef FORESIGHT_UTIL_STRING_UTIL_H_
#define FORESIGHT_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace foresight {

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view input);

/// Strict double parse: the whole (trimmed) string must be a finite or
/// infinite numeric literal. Returns nullopt for empty or non-numeric input.
std::optional<double> ParseDouble(std::string_view input);

/// Strict int64 parse of the whole (trimmed) string.
std::optional<int64_t> ParseInt64(std::string_view input);

/// Matches `arg` against a `--name=` size flag given as `prefix`: false when
/// it is some other argument. On a match the value must be a plain
/// non-negative decimal integer; anything else (negative, empty, trailing
/// junk, overflow) sets *bad_value and leaves *out untouched, so the caller
/// prints usage.
bool ParseSizeFlag(std::string_view arg, std::string_view prefix, size_t* out,
                   bool* bad_value);

/// True if `value` case-insensitively equals one of the conventional CSV
/// missing-value markers: "", "na", "n/a", "nan", "null", "none", "?".
bool IsMissingToken(std::string_view value);

/// Formats a double compactly with up to `precision` significant digits
/// ("0.5", "1.25e-06"); never produces locale-dependent separators.
std::string FormatDouble(double value, int precision = 6);

/// 64-bit FNV-1a hash. Deterministic across platforms and standard-library
/// implementations (unlike std::hash), so values derived from it — e.g. the
/// query cache's shard assignment — are stable in tests and telemetry.
uint64_t Fnv1a64(std::string_view data);

/// CRC-64 (ECMA-182 polynomial, reflected, init/xorout 0xFF..FF — the
/// "CRC-64/XZ" parameterization). Used as the integrity checksum of binary
/// profile snapshots (core/snapshot.h): unlike FNV it has guaranteed
/// burst-error detection, and it is deterministic across platforms.
uint64_t Crc64(std::string_view data);

}  // namespace foresight

#endif  // FORESIGHT_UTIL_STRING_UTIL_H_
