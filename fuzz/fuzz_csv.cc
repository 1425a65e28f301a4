// Fuzz harness for CsvReader::ReadString (data/csv.cc), the entry point for
// user-supplied datasets.
//
// The first input byte selects parser options (delimiter, header, integer
// coding) so one corpus covers the option space deterministically; the rest
// is the CSV text.
//
// Invariants checked beyond "does not crash":
//   - CsvReader agrees with the reference reader (tests/csv_reference.h) on
//     every input: the same error, code and message, or an identical table.
//   - A table that parsed writes out through CsvWriter and re-parses with
//     the same options into the same shape (rows x columns). CsvWriter is
//     not an exact inverse (see data/csv.h), so values are not compared.
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "csv_reference.h"
#include "data/csv.h"
#include "util/logging.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  foresight::CsvOptions options;
  if (size > 0) {
    options = foresight::csv_reference::OptionsFromFuzzByte(data[0]);
    ++data;
    --size;
  }
  std::string_view text(reinterpret_cast<const char*>(data), size);

  foresight::StatusOr<foresight::DataTable> table =
      foresight::CsvReader::ReadString(text, options);
  const std::string diff = foresight::csv_reference::ResultDifference(
      foresight::csv_reference::ReadString(text, options), table);
  FORESIGHT_CHECK_MSG(diff.empty(), diff.c_str());
  if (!table.ok()) return 0;

  std::string written = foresight::CsvWriter::WriteString(*table, options);
  foresight::StatusOr<foresight::DataTable> reread =
      foresight::CsvReader::ReadString(written, options);
  FORESIGHT_CHECK(reread.ok());
  FORESIGHT_CHECK(reread->num_rows() == table->num_rows());
  FORESIGHT_CHECK(reread->num_columns() == table->num_columns());
  return 0;
}
