#include "data/csv.h"

#include <cmath>
#include <fstream>
#include <set>

#include "util/fd.h"
#include "util/string_util.h"

namespace foresight {

namespace {

/// Splits CSV text into rows of fields, honoring RFC-4180 quoting.
StatusOr<std::vector<std::vector<std::string>>> Tokenize(std::string_view text,
                                                         char delimiter) {
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

bool LooksLikeIntegerCodes(const std::vector<std::vector<std::string>>& rows,
                           size_t first_data_row, size_t col,
                           size_t max_cardinality) {
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

}  // namespace

StatusOr<DataTable> CsvReader::ReadString(std::string_view text,
                                          const CsvOptions& options) {
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
