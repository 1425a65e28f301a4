#ifndef FORESIGHT_TESTS_CSV_REFERENCE_H_
#define FORESIGHT_TESTS_CSV_REFERENCE_H_

// Reference CSV reader: the tokenize-then-infer implementation CsvReader
// replaced, kept verbatim as the oracle that test_csv and fuzz_csv compare
// CsvReader against. It splits the whole text into rows of std::string
// fields, then infers each column's type and converts it in separate passes;
// slow, but each step is easy to check by eye. The helpers below it compare
// two readers' results cell by cell.

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "data/csv.h"
#include "util/string_util.h"

namespace foresight::csv_reference {

/// The allocating missing-marker check the reference was written against.
inline bool IsMissingToken(std::string_view value) {
  std::string lower(Trim(value));
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return lower.empty() || lower == "na" || lower == "n/a" || lower == "nan" ||
         lower == "null" || lower == "none" || lower == "?";
}

/// Splits CSV text into rows of fields, honoring RFC-4180 quoting.
inline StatusOr<std::vector<std::vector<std::string>>> Tokenize(
    std::string_view text, char delimiter) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  bool row_had_content = false;
  size_t line = 1;

  auto end_field = [&] {
    row_had_content = row_had_content || field_started || !field.empty();
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    end_field();
    // Skip rows with no content at all (blank lines, trailing newline). A
    // lone quoted-empty field ("") counts as content: it is how the writer
    // encodes a null in a single-column table.
    if (row.size() > 1 || !row[0].empty() || row_had_content) {
      rows.push_back(std::move(row));
    }
    row.clear();
    row_had_content = false;
  };

  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++line;
        field += c;
      }
    } else if (c == '"') {
      if (field.empty() && !field_started) {
        in_quotes = true;
        field_started = true;
      } else {
        field += c;  // Interior quote in an unquoted field: keep literally.
      }
    } else if (c == delimiter) {
      end_field();
    } else if (c == '\n') {
      ++line;
      end_row();
    } else if (c == '\r') {
      // Swallow; handles \r\n and lone \r line endings.
      if (i + 1 >= text.size() || text[i + 1] != '\n') {
        end_row();
      }
    } else {
      field += c;
      field_started = true;
    }
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quoted field (line " +
                              std::to_string(line) + ")");
  }
  if (!field.empty() || field_started || !row.empty()) end_row();
  return rows;
}

inline bool LooksLikeIntegerCodes(
    const std::vector<std::vector<std::string>>& rows, size_t first_data_row,
    size_t col, size_t max_cardinality) {
  std::set<int64_t> distinct;
  for (size_t r = first_data_row; r < rows.size(); ++r) {
    const std::string& token = rows[r][col];
    if (IsMissingToken(token)) continue;
    std::optional<int64_t> value = ParseInt64(token);
    if (!value.has_value()) return false;
    distinct.insert(*value);
    if (distinct.size() > max_cardinality) return false;
  }
  return !distinct.empty();
}

inline StatusOr<DataTable> ReadString(std::string_view text,
                                      const CsvOptions& options = {}) {
  FORESIGHT_ASSIGN_OR_RETURN(auto rows, Tokenize(text, options.delimiter));
  if (rows.empty()) {
    return Status::InvalidArgument("CSV input contains no rows");
  }

  size_t num_cols = rows[0].size();
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != num_cols) {
      return Status::ParseError(
          "row " + std::to_string(r + 1) + " has " +
          std::to_string(rows[r].size()) + " fields, expected " +
          std::to_string(num_cols));
    }
  }

  std::vector<std::string> names;
  size_t first_data_row = 0;
  if (options.has_header) {
    first_data_row = 1;
    for (size_t c = 0; c < num_cols; ++c) {
      std::string name(Trim(rows[0][c]));
      if (name.empty()) name = "c" + std::to_string(c);
      names.push_back(std::move(name));
    }
  } else {
    for (size_t c = 0; c < num_cols; ++c) names.push_back("c" + std::to_string(c));
  }
  if (first_data_row >= rows.size()) {
    return Status::InvalidArgument("CSV input contains a header but no data");
  }

  // Infer per-column types: numeric iff every non-missing token parses.
  std::vector<ColumnType> types(num_cols, ColumnType::kNumeric);
  for (size_t c = 0; c < num_cols; ++c) {
    bool all_numeric = true;
    bool any_value = false;
    for (size_t r = first_data_row; r < rows.size(); ++r) {
      const std::string& token = rows[r][c];
      if (IsMissingToken(token)) continue;
      any_value = true;
      if (!ParseDouble(token).has_value()) {
        all_numeric = false;
        break;
      }
    }
    if (!all_numeric || !any_value) {
      types[c] = ColumnType::kCategorical;
    } else if (options.integer_codes_as_categorical &&
               LooksLikeIntegerCodes(rows, first_data_row, c,
                                     options.max_integer_code_cardinality)) {
      types[c] = ColumnType::kCategorical;
    }
  }

  DataTable table;
  for (size_t c = 0; c < num_cols; ++c) {
    std::unique_ptr<Column> column;
    if (types[c] == ColumnType::kNumeric) {
      auto numeric = std::make_unique<NumericColumn>();
      for (size_t r = first_data_row; r < rows.size(); ++r) {
        const std::string& token = rows[r][c];
        if (IsMissingToken(token)) {
          numeric->AppendNull();
        } else {
          double value = *ParseDouble(token);
          if (std::isnan(value)) {
            numeric->AppendNull();
          } else {
            numeric->Append(value);
          }
        }
      }
      column = std::move(numeric);
    } else {
      auto categorical = std::make_unique<CategoricalColumn>();
      for (size_t r = first_data_row; r < rows.size(); ++r) {
        const std::string& token = rows[r][c];
        if (IsMissingToken(token)) {
          categorical->AppendNull();
        } else {
          categorical->Append(Trim(token));
        }
      }
      column = std::move(categorical);
    }
    FORESIGHT_RETURN_IF_ERROR(table.AddColumn(names[c], std::move(column)));
  }
  return table;
}

/// Empty when `a` and `b` hold the same columns: names, types, validity,
/// value bits (nulls included), dictionaries and codes. Otherwise names the
/// first difference.
inline std::string TableDifference(const DataTable& a, const DataTable& b) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) {
    return "shape " + std::to_string(a.num_rows()) + "x" +
           std::to_string(a.num_columns()) + " vs " +
           std::to_string(b.num_rows()) + "x" +
           std::to_string(b.num_columns());
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const std::string where = "column " + std::to_string(c);
    if (a.column_name(c) != b.column_name(c)) {
      return where + " name '" + a.column_name(c) + "' vs '" +
             b.column_name(c) + "'";
    }
    const Column& x = a.column(c);
    const Column& y = b.column(c);
    if (x.type() != y.type()) return where + " type";
    for (size_t r = 0; r < a.num_rows(); ++r) {
      if (x.is_valid(r) != y.is_valid(r)) {
        return where + " validity at row " + std::to_string(r);
      }
    }
    if (x.type() == ColumnType::kNumeric) {
      const std::vector<double>& xv = x.AsNumeric().values();
      const std::vector<double>& yv = y.AsNumeric().values();
      for (size_t r = 0; r < xv.size(); ++r) {
        if (std::bit_cast<uint64_t>(xv[r]) != std::bit_cast<uint64_t>(yv[r])) {
          return where + " value bits at row " + std::to_string(r);
        }
      }
    } else {
      if (x.AsCategorical().dictionary() != y.AsCategorical().dictionary()) {
        return where + " dictionary";
      }
      if (x.AsCategorical().codes() != y.AsCategorical().codes()) {
        return where + " codes";
      }
    }
  }
  return "";
}

/// Empty when both results are the same error (code and message) or equal
/// tables under TableDifference; otherwise says how they differ.
inline std::string ResultDifference(const StatusOr<DataTable>& expected,
                                    const StatusOr<DataTable>& actual) {
  if (expected.ok() != actual.ok()) {
    return "expected " +
           (expected.ok() ? std::string("a table")
                          : expected.status().ToString()) +
           ", got " +
           (actual.ok() ? std::string("a table") : actual.status().ToString());
  }
  if (!expected.ok()) {
    if (expected.status().code() == actual.status().code() &&
        expected.status().message() == actual.status().message()) {
      return "";
    }
    return "expected " + expected.status().ToString() + ", got " +
           actual.status().ToString();
  }
  return TableDifference(*expected, *actual);
}

/// The fuzz_csv option byte: delimiter, header and integer coding, so one
/// corpus covers the option space deterministically.
inline CsvOptions OptionsFromFuzzByte(uint8_t byte) {
  static constexpr char kDelimiters[] = {',', ';', '\t', '|'};
  CsvOptions options;
  options.delimiter = kDelimiters[byte & 3];
  options.has_header = (byte & 4) != 0;
  options.integer_codes_as_categorical = (byte & 8) != 0;
  options.max_integer_code_cardinality = 1 + (byte >> 4);
  return options;
}

}  // namespace foresight::csv_reference

#endif  // FORESIGHT_TESTS_CSV_REFERENCE_H_
