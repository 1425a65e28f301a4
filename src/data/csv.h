#ifndef FORESIGHT_DATA_CSV_H_
#define FORESIGHT_DATA_CSV_H_

#include <string>
#include <string_view>

#include "data/table.h"
#include "util/status.h"

namespace foresight {

/// Options controlling CSV parsing and type inference.
struct CsvOptions {
  char delimiter = ',';
  /// First row holds column names. When false, columns are named "c0", "c1"...
  bool has_header = true;
  /// A column whose non-missing tokens all parse as numbers becomes numeric,
  /// UNLESS it has at most this many distinct integer values AND
  /// `integer_codes_as_categorical` is set (useful for coded survey data).
  bool integer_codes_as_categorical = false;
  size_t max_integer_code_cardinality = 12;
};

/// RFC-4180-style CSV reader with automatic type inference.
///
/// - Quoted fields may contain delimiters, escaped quotes ("") and newlines.
/// - Conventional missing markers (empty, NA, N/A, NaN, null, none, ?) become
///   nulls.
/// - A column is numeric iff every non-missing token parses as a double;
///   otherwise it is categorical.
///
/// One pass over the text parses each field once, straight into its column.
/// A column that meets a non-numeric token turns categorical from that row
/// on; its earlier rows are re-read afterwards, in at most one more pass for
/// all such columns together.
class CsvReader {
 public:
  /// Parses CSV text into a table.
  static StatusOr<DataTable> ReadString(std::string_view text,
                                        const CsvOptions& options = {});

  /// Reads and parses a CSV file.
  static StatusOr<DataTable> ReadFile(const std::string& path,
                                      const CsvOptions& options = {});
};

/// CSV writer: nulls are written as empty fields, fields containing the
/// delimiter, quotes or newlines are quoted, numbers with 17 significant
/// digits. Reading the output back with the same options keeps the shape,
/// keeps nulls null, and keeps the bits of each value in a column that reads
/// back numeric. It is not an exact inverse of CsvReader: a categorical "NA"
/// (or any missing marker) reads back as null, " padded " reads back
/// trimmed, and a categorical column whose values all parse as numbers
/// ("1", "2", "3") reads back numeric.
class CsvWriter {
 public:
  static std::string WriteString(const DataTable& table,
                                 const CsvOptions& options = {});
  static Status WriteFile(const DataTable& table, const std::string& path,
                          const CsvOptions& options = {});
};

}  // namespace foresight

#endif  // FORESIGHT_DATA_CSV_H_
