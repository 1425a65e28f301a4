#ifndef FORESIGHT_UTIL_JSON_H_
#define FORESIGHT_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace foresight {

/// A self-contained JSON document model used for Vega-Lite chart specs and
/// exploration-session serialization. Supports the full JSON data model;
/// object keys preserve insertion order (Vega-Lite specs read better that way).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Constructors for each JSON type.
  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool value) : type_(Type::kBool), bool_(value) {}
  JsonValue(double value) : type_(Type::kNumber), number_(value) {}
  JsonValue(int value) : type_(Type::kNumber), number_(value) {}
  JsonValue(int64_t value)
      : type_(Type::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(size_t value)
      : type_(Type::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(const char* value) : type_(Type::kString), string_(value) {}
  JsonValue(std::string value)
      : type_(Type::kString), string_(std::move(value)) {}

  static JsonValue Array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  /// An all-number array stored packed: one vector<double> instead of one
  /// JsonValue node per element (~12x smaller, allocation-free to walk).
  /// Indistinguishable through the public API — size()/at()/Append()/Dump()
  /// behave exactly like the element-wise representation — but at() and a
  /// non-number Append() first rebuild element nodes, a one-time
  /// representation change that is NOT safe against concurrent access to the
  /// same value. Bulk readers use packed_numbers() to skip that entirely.
  /// An empty input produces a plain (unpacked) empty array.
  static JsonValue PackedNumberArray(std::vector<double> values);
  static JsonValue Object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }

  /// Array access. `Append` is valid only on arrays.
  void Append(JsonValue value);
  size_t size() const;
  const JsonValue& at(size_t index) const;
  /// Non-null iff this is a packed number array (see PackedNumberArray);
  /// points at all elements in order. Null after at()/Append() forced the
  /// element-wise representation.
  const std::vector<double>* packed_numbers() const {
    return packed_ ? &packed_numbers_ : nullptr;
  }

  /// Object access. `Set` overwrites; `Get` returns nullptr when absent.
  void Set(std::string key, JsonValue value);
  const JsonValue* Get(std::string_view key) const;
  bool Has(std::string_view key) const { return Get(key) != nullptr; }
  /// Removes `key` from an object; returns whether it was present. Lets
  /// callers strip an envelope field before handing the document to a strict
  /// unknown-field-rejecting decoder.
  bool Remove(std::string_view key);
  const std::vector<std::pair<std::string, JsonValue>>& items() const {
    return object_;
  }

  /// Serializes to a JSON string. `indent < 0` produces compact output;
  /// `indent >= 0` pretty-prints with that many spaces per level.
  std::string Dump(int indent = -1) const;

  /// Parses a JSON document. Returns ParseError with position info on failure.
  static StatusOr<JsonValue> Parse(std::string_view text);

 private:
  void DumpTo(std::string& out, int indent, int depth) const;
  /// Rebuilds array_ from packed_numbers_ (logical value unchanged, so const
  /// with mutable storage; see the PackedNumberArray thread-safety caveat).
  void UnpackNumbers() const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  mutable bool packed_ = false;
  mutable std::vector<double> packed_numbers_;
  mutable std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Escapes a string for embedding in JSON output (without the quotes).
std::string JsonEscape(std::string_view input);

/// A JSON number read as a count or index: `value` when it is a finite,
/// non-negative whole number no larger than 2^53 (where every integer is
/// exact in a double), else nullopt. Casting a negative, NaN or too-large
/// double straight to size_t is undefined behaviour, and a fractional one
/// would be silently truncated.
std::optional<size_t> SizeFromJsonNumber(double value);

}  // namespace foresight

#endif  // FORESIGHT_UTIL_JSON_H_
