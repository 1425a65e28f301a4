#include "data/csv.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>

#include "util/fd.h"
#include "util/string_util.h"

namespace foresight {

namespace {

/// Splits CSV text into rows of fields, honoring RFC-4180 quoting. A field
/// is a view into the text; only a field that quoting makes discontiguous (a
/// "" escape, or text after the closing quote) is assembled in a per-row
/// scratch buffer, so fields() stay valid until the next call.
class RowScanner {
 public:
  RowScanner(std::string_view text, char delimiter)
      : text_(text), delimiter_(delimiter) {
    // A quote always opens or continues a quoted field, so a '"' delimiter
    // never ends one.
    if (delimiter != '"') stop_[static_cast<unsigned char>(delimiter)] = true;
    stop_['\n'] = true;
    stop_['\r'] = true;
  }

  /// Reads the next row with content at or after the read position into
  /// fields(), or only its first `max_fields` fields. Blank lines are
  /// skipped; a lone "" counts as content (it is how the writer encodes a
  /// null in a single-column table). Returns false at the end of the text,
  /// or when a quoted field runs to it (then unterminated() is set).
  bool NextRow(size_t max_fields = std::numeric_limits<size_t>::max()) {
    while (pos_ < text_.size()) {
      row_start_ = pos_;
      fields_.clear();
      scratch_.clear();
      owned_.clear();
      const bool kept = ReadRow(max_fields);
      if (unterminated_) return false;
      for (const OwnedField& owned : owned_) {
        fields_[owned.index] =
            std::string_view(scratch_).substr(owned.offset, owned.size);
      }
      if (kept) return true;
    }
    return false;
  }

  /// Moves the read position to `offset`, a row_start() seen earlier.
  void Seek(size_t offset) { pos_ = offset; }

  const std::vector<std::string_view>& fields() const { return fields_; }
  /// Offset of the row NextRow last returned.
  size_t row_start() const { return row_start_; }
  bool unterminated() const { return unterminated_; }
  /// 1 + the newlines read so far, inside quotes or ending a row.
  size_t line() const { return line_; }

 private:
  struct OwnedField {
    size_t index;
    size_t offset;
    size_t size;
  };

  /// First offset at or after `i` holding the delimiter, '\n' or '\r'.
  size_t ScanPlain(size_t i) const {
    while (i < text_.size() && !stop_[static_cast<unsigned char>(text_[i])]) {
      ++i;
    }
    return i;
  }

  void CountNewlines(size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) line_ += text_[i] == '\n';
  }

  /// Reads the quoted field whose opening quote is at pos_, plus any text
  /// after its closing quote. False when the text ends inside the quotes.
  bool ReadQuoted() {
    const size_t open = pos_;
    size_t segment = open + 1;
    bool owned = false;
    const size_t owned_offset = scratch_.size();
    size_t close = 0;
    while (true) {
      const size_t quote = text_.find('"', segment);
      if (quote == std::string_view::npos) {
        CountNewlines(segment, text_.size());
        pos_ = text_.size();
        unterminated_ = true;
        return false;
      }
      CountNewlines(segment, quote);
      if (quote + 1 < text_.size() && text_[quote + 1] == '"') {
        // A "" escape: keep one quote and go on inside the field.
        scratch_.append(text_.substr(segment, quote + 1 - segment));
        owned = true;
        segment = quote + 2;
        continue;
      }
      close = quote;
      break;
    }
    // Text after the closing quote joins the field, quotes included.
    const size_t tail = close + 1;
    pos_ = ScanPlain(tail);
    if (!owned && pos_ == tail) {
      fields_.push_back(text_.substr(open + 1, close - open - 1));
      return true;
    }
    scratch_.append(text_.substr(segment, close - segment));
    scratch_.append(text_.substr(tail, pos_ - tail));
    owned_.push_back(
        {fields_.size(), owned_offset, scratch_.size() - owned_offset});
    fields_.emplace_back();
    return true;
  }

  /// Reads one row's fields; returns whether the row has content.
  bool ReadRow(size_t max_fields) {
    bool first_started = false;
    while (true) {
      const size_t start = pos_;
      bool started = true;
      if (pos_ < text_.size() && text_[pos_] == '"') {
        if (!ReadQuoted()) return false;
      } else {
        pos_ = ScanPlain(pos_);
        fields_.push_back(text_.substr(start, pos_ - start));
        started = pos_ > start;
      }
      if (fields_.size() == 1) first_started = started;
      // Dispatch the terminator in the order the delimiter, '\n' and '\r'
      // take precedence: a '\r' before '\n' is dropped and the '\n' decides.
      while (true) {
        if (pos_ >= text_.size()) return fields_.size() > 1 || first_started;
        const char c = text_[pos_++];
        if (c == delimiter_) {
          if (fields_.size() >= max_fields) return true;
          break;
        }
        if (c == '\n') {
          ++line_;
          return fields_.size() > 1 || first_started;
        }
        if (pos_ < text_.size() && text_[pos_] == '\n') continue;
        return fields_.size() > 1 || first_started;  // A lone '\r'.
      }
    }
  }

  std::string_view text_;
  char delimiter_;
  std::array<bool, 256> stop_{};
  size_t pos_ = 0;
  size_t row_start_ = 0;
  size_t line_ = 1;
  bool unterminated_ = false;
  std::vector<std::string_view> fields_;
  std::string scratch_;
  std::vector<OwnedField> owned_;
};

/// Appends a trimmed token to a categorical column, as a null when it is a
/// missing marker.
void AppendCategorical(CategoricalColumn& column, std::string_view token) {
  if (IsMissingToken(token)) {
    column.AppendNull();
  } else {
    column.Append(token);
  }
}

/// One column under construction. It starts numeric; at its first token that
/// is neither missing nor a number it turns categorical from that row on,
/// and the rows before it are re-read after the main pass.
struct ColumnBuilder {
  std::unique_ptr<NumericColumn> numeric = std::make_unique<NumericColumn>();
  std::unique_ptr<CategoricalColumn> categorical;
  /// First data row `categorical` holds.
  size_t demoted_at = 0;
  bool any_value = false;
  /// Integer-code tracking (CsvOptions::integer_codes_as_categorical):
  /// every value so far is an int64, with at most the allowed distinct count.
  bool maybe_codes = true;
  std::set<int64_t> codes;

  void Add(std::string_view field, size_t row, const CsvOptions& options) {
    const std::string_view token = Trim(field);
    if (categorical != nullptr) {
      AppendCategorical(*categorical, token);
      return;
    }
    if (IsMissingToken(token)) {
      numeric->AppendNull();
      return;
    }
    const std::optional<double> value = ParseDouble(token);
    if (!value.has_value()) {
      numeric.reset();
      codes.clear();
      demoted_at = row;
      categorical = std::make_unique<CategoricalColumn>();
      categorical->Append(token);
      return;
    }
    any_value = true;
    if (std::isnan(*value)) {
      numeric->AppendNull();
    } else {
      numeric->Append(*value);
    }
    if (options.integer_codes_as_categorical && maybe_codes) {
      const std::optional<int64_t> code = ParseInt64(token);
      if (code.has_value()) codes.insert(*code);
      maybe_codes = code.has_value() &&
                    codes.size() <= options.max_integer_code_cardinality;
      if (!maybe_codes) codes.clear();
    }
  }

  /// Rows [0, end) this column still needs from a re-read: those before its
  /// demotion, or all of them when it resolves to integer codes.
  size_t RereadEnd(size_t num_rows, const CsvOptions& options) const {
    if (categorical != nullptr) return demoted_at;
    if (any_value && options.integer_codes_as_categorical && maybe_codes) {
      return num_rows;
    }
    return 0;
  }
};

}  // namespace

StatusOr<DataTable> CsvReader::ReadString(std::string_view text,
                                          const CsvOptions& options) {
  RowScanner scanner(text, options.delimiter);
  auto unterminated = [&] {
    return Status::ParseError("unterminated quoted field (line " +
                              std::to_string(scanner.line()) + ")");
  };
  if (!scanner.NextRow()) {
    if (scanner.unterminated()) return unterminated();
    return Status::InvalidArgument("CSV input contains no rows");
  }

  const size_t num_cols = scanner.fields().size();
  std::vector<std::string> names;
  for (size_t c = 0; c < num_cols; ++c) {
    std::string name;
    if (options.has_header) name = Trim(scanner.fields()[c]);
    if (name.empty()) name = "c" + std::to_string(c);
    names.push_back(std::move(name));
  }

  // One pass: every field is parsed once, straight into its column. The
  // first ragged row stops the building, but the scan runs on to the end,
  // since an unterminated quote anywhere is the error reported first.
  std::vector<ColumnBuilder> builders(num_cols);
  std::vector<size_t> row_starts;
  std::optional<Status> ragged;
  size_t rows_read = 1;
  auto add_row = [&] {
    if (ragged.has_value()) return;
    const std::vector<std::string_view>& fields = scanner.fields();
    if (fields.size() != num_cols) {
      ragged = Status::ParseError(
          "row " + std::to_string(rows_read) + " has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(num_cols));
      return;
    }
    const size_t row = row_starts.size();
    row_starts.push_back(scanner.row_start());
    for (size_t c = 0; c < num_cols; ++c) {
      builders[c].Add(fields[c], row, options);
    }
  };
  if (!options.has_header) add_row();
  while (scanner.NextRow()) {
    ++rows_read;
    add_row();
  }
  if (scanner.unterminated()) return unterminated();
  if (ragged.has_value()) return *ragged;
  const size_t num_rows = row_starts.size();
  if (num_rows == 0) {
    return Status::InvalidArgument("CSV input contains a header but no data");
  }

  // At most one more pass, over the rows before the latest demotion and only
  // up to the last column that needs them: each such column is rebuilt from
  // row 0 so its dictionary keeps first-occurrence order, then takes the
  // rows it already holds.
  std::vector<size_t> reread;
  std::vector<size_t> reread_end(num_cols, 0);
  std::vector<std::unique_ptr<CategoricalColumn>> rebuilt(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    reread_end[c] = builders[c].RereadEnd(num_rows, options);
    if (reread_end[c] == 0) continue;
    reread.push_back(c);
    rebuilt[c] = std::make_unique<CategoricalColumn>();
  }
  const size_t reread_rows =
      *std::max_element(reread_end.begin(), reread_end.end());
  for (size_t row = 0; row < reread_rows; ++row) {
    scanner.Seek(row_starts[row]);
    scanner.NextRow(reread.back() + 1);
    for (size_t c : reread) {
      if (row < reread_end[c]) {
        AppendCategorical(*rebuilt[c], Trim(scanner.fields()[c]));
      }
    }
  }

  DataTable table;
  for (size_t c = 0; c < num_cols; ++c) {
    ColumnBuilder& builder = builders[c];
    std::unique_ptr<Column> column;
    if (rebuilt[c] != nullptr) {
      if (builder.categorical != nullptr) {
        const CategoricalColumn& tail = *builder.categorical;
        for (size_t r = 0; r < tail.size(); ++r) {
          if (tail.is_valid(r)) {
            rebuilt[c]->Append(tail.value(r));
          } else {
            rebuilt[c]->AppendNull();
          }
        }
      }
      column = std::move(rebuilt[c]);
    } else if (builder.categorical != nullptr) {
      column = std::move(builder.categorical);
    } else if (!builder.any_value) {
      // Every token is missing: a categorical column of nulls.
      auto nulls = std::make_unique<CategoricalColumn>();
      for (size_t r = 0; r < num_rows; ++r) nulls->AppendNull();
      column = std::move(nulls);
    } else {
      column = std::move(builder.numeric);
    }
    FORESIGHT_RETURN_IF_ERROR(table.AddColumn(names[c], std::move(column)));
  }
  return table;
}

StatusOr<DataTable> CsvReader::ReadFile(const std::string& path,
                                        const CsvOptions& options) {
  FORESIGHT_ASSIGN_OR_RETURN(std::string text, ReadFileBytes(path));
  return ReadString(text, options);
}

namespace {

std::string QuoteIfNeeded(const std::string& field, char delimiter) {
  bool needs_quote = field.find(delimiter) != std::string::npos ||
                     field.find('"') != std::string::npos ||
                     field.find('\n') != std::string::npos ||
                     field.find('\r') != std::string::npos;
  if (!needs_quote) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string CsvWriter::WriteString(const DataTable& table,
                                   const CsvOptions& options) {
  std::string out;
  if (options.has_header) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += options.delimiter;
      out += QuoteIfNeeded(table.column_name(c), options.delimiter);
    }
    out += '\n';
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += options.delimiter;
      const Column& col = table.column(c);
      if (!col.is_valid(r)) {
        // Empty field encodes null — except in a single-column table, where
        // an entirely empty line would be dropped as blank on re-read; a
        // quoted-empty field survives the round trip.
        if (table.num_columns() == 1) out += "\"\"";
        continue;
      }
      if (col.type() == ColumnType::kNumeric) {
        out += FormatDouble(col.AsNumeric().value(r), 17);
      } else {
        out += QuoteIfNeeded(col.AsCategorical().value(r), options.delimiter);
      }
    }
    out += '\n';
  }
  return out;
}

Status CsvWriter::WriteFile(const DataTable& table, const std::string& path,
                            const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open file for writing: " + path);
  }
  out << WriteString(table, options);
  if (!out) {
    return Status::IOError("failed writing file: " + path);
  }
  return Status::OK();
}

}  // namespace foresight
