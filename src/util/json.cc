#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.h"

namespace foresight {

JsonValue JsonValue::PackedNumberArray(std::vector<double> values) {
  JsonValue v;
  v.type_ = Type::kArray;
  if (!values.empty()) {
    v.packed_ = true;
    v.packed_numbers_ = std::move(values);
  }
  return v;
}

void JsonValue::UnpackNumbers() const {
  array_.reserve(packed_numbers_.size());
  for (double number : packed_numbers_) array_.emplace_back(number);
  packed_numbers_.clear();
  packed_numbers_.shrink_to_fit();
  packed_ = false;
}

void JsonValue::Append(JsonValue value) {
  FORESIGHT_CHECK(type_ == Type::kArray);
  if (packed_) {
    if (value.is_number()) {
      packed_numbers_.push_back(value.as_number());
      return;
    }
    UnpackNumbers();
  }
  array_.push_back(std::move(value));
}

size_t JsonValue::size() const {
  if (type_ == Type::kArray) {
    return packed_ ? packed_numbers_.size() : array_.size();
  }
  if (type_ == Type::kObject) return object_.size();
  return 0;
}

const JsonValue& JsonValue::at(size_t index) const {
  FORESIGHT_CHECK(type_ == Type::kArray);
  if (packed_) UnpackNumbers();
  FORESIGHT_CHECK(index < array_.size());
  return array_[index];
}

void JsonValue::Set(std::string key, JsonValue value) {
  FORESIGHT_CHECK(type_ == Type::kObject);
  for (auto& [existing_key, existing_value] : object_) {
    if (existing_key == key) {
      existing_value = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

const JsonValue* JsonValue::Get(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [existing_key, value] : object_) {
    if (existing_key == key) return &value;
  }
  return nullptr;
}

bool JsonValue::Remove(std::string_view key) {
  if (type_ != Type::kObject) return false;
  for (auto it = object_.begin(); it != object_.end(); ++it) {
    if (it->first == key) {
      object_.erase(it);
      return true;
    }
  }
  return false;
}

std::optional<size_t> SizeFromJsonNumber(double value) {
  constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53
  // The negated range test also rejects NaN.
  if (!(value >= 0.0 && value <= kMaxExactInteger) ||
      value != std::floor(value)) {
    return std::nullopt;
  }
  return static_cast<size_t>(value);
}

std::string JsonEscape(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  for (char c : input) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void AppendNumber(std::string& out, double value) {
  if (std::isnan(value) || std::isinf(value)) {
    // JSON has no NaN/Inf; emit null, matching common serializer behaviour.
    out += "null";
    return;
  }
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      std::abs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
    out += buffer;
  } else {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out += buffer;
  }
}

void AppendIndent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void JsonValue::DumpTo(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      AppendNumber(out, number_);
      break;
    case Type::kString:
      out += '"';
      out += JsonEscape(string_);
      out += '"';
      break;
    case Type::kArray: {
      if (packed_) {
        // Byte-identical to dumping the element-wise representation, without
        // forcing the unpack.
        out += '[';
        for (size_t i = 0; i < packed_numbers_.size(); ++i) {
          if (i > 0) out += ',';
          AppendIndent(out, indent, depth + 1);
          AppendNumber(out, packed_numbers_[i]);
        }
        AppendIndent(out, indent, depth);
        out += ']';
        break;
      }
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        AppendIndent(out, indent, depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      AppendIndent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ',';
        first = false;
        AppendIndent(out, indent, depth + 1);
        out += '"';
        out += JsonEscape(key);
        out += "\":";
        if (indent >= 0) out += ' ';
        value.DumpTo(out, indent, depth + 1);
      }
      AppendIndent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent JSON parser.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  /// Parsing recurses once per nesting level, so untrusted input like
  /// "[[[[..." could otherwise exhaust the stack. 128 levels is far beyond
  /// any document this codebase produces.
  static constexpr int kMaxNestingDepth = 128;

  StatusOr<JsonValue> Parse() {
    SkipWhitespace();
    FORESIGHT_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::ParseError("JSON parse error at offset " +
                              std::to_string(pos_) + ": " + message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue(int depth) {
    if (depth > kMaxNestingDepth) {
      return Error("nesting depth exceeds " +
                   std::to_string(kMaxNestingDepth));
    }
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      FORESIGHT_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue(std::move(s));
    }
    if (ConsumeLiteral("true")) return JsonValue(true);
    if (ConsumeLiteral("false")) return JsonValue(false);
    if (ConsumeLiteral("null")) return JsonValue();
    return ParseNumber();
  }

  StatusOr<JsonValue> ParseObject(int depth) {
    Consume('{');
    JsonValue obj = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return obj;
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      FORESIGHT_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWhitespace();
      FORESIGHT_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      obj.Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return obj;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  StatusOr<JsonValue> ParseArray(int depth) {
    Consume('[');
    JsonValue arr = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return arr;
    for (;;) {
      SkipWhitespace();
      FORESIGHT_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      arr.Append(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return arr;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  StatusOr<std::string> ParseString() {
    Consume('"');
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("unterminated escape");
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("short \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("invalid \\u escape");
              }
            }
            // Encode as UTF-8 (basic multilingual plane only; surrogate
            // pairs are passed through as two 3-byte sequences).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Error("invalid escape character");
        }
      } else {
        out += c;
      }
    }
    return Error("unterminated string");
  }

  StatusOr<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool saw_digit = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '-' || text_[pos_] == '+') &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      if (std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        saw_digit = true;
      }
      ++pos_;
    }
    if (!saw_digit) return Error("invalid number");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("invalid number");
    if (std::isinf(value)) {
      // Overflowing literals (e.g. "1e999") would deserialize as infinity,
      // which Dump() cannot represent — reject instead of round-tripping
      // to null.
      return Error("number out of range");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace foresight
