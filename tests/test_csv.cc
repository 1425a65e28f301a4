#include "data/csv.h"

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "csv_reference.h"
#include "data/generators.h"
#include "util/fd.h"
#include "util/random.h"

namespace foresight {
namespace {

std::string WriteTempFile(const std::string& name, const std::string& bytes) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

TEST(CsvReaderTest, ParsesHeaderAndTypes) {
  auto table = CsvReader::ReadString("name,age,score\nalice,30,1.5\nbob,25,2.5\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->num_columns(), 3u);
  EXPECT_EQ(table->schema().column(0).type, ColumnType::kCategorical);
  EXPECT_EQ(table->schema().column(1).type, ColumnType::kNumeric);
  EXPECT_EQ(table->schema().column(2).type, ColumnType::kNumeric);
  EXPECT_EQ(table->column(0).AsCategorical().value(1), "bob");
  EXPECT_DOUBLE_EQ(table->column(2).AsNumeric().value(0), 1.5);
}

TEST(CsvReaderTest, HandlesMissingMarkers) {
  auto table = CsvReader::ReadString("x,y\n1,NA\n,hello\n3,world\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->column(0).null_count(), 1u);
  EXPECT_FALSE(table->column(0).is_valid(1));
  EXPECT_FALSE(table->column(1).is_valid(0));
  EXPECT_EQ(table->column(1).AsCategorical().value(1), "hello");
}

TEST(CsvReaderTest, QuotedFieldsWithDelimitersAndQuotes) {
  auto table = CsvReader::ReadString(
      "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n\"multi\nline\",2\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->column(0).AsCategorical().value(0), "x,y");
  EXPECT_EQ(table->column(1).AsCategorical().value(0), "he said \"hi\"");
  EXPECT_EQ(table->column(0).AsCategorical().value(1), "multi\nline");
}

TEST(CsvReaderTest, NoHeaderGeneratesNames) {
  CsvOptions options;
  options.has_header = false;
  auto table = CsvReader::ReadString("1,2\n3,4\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->column_name(0), "c0");
  EXPECT_EQ(table->column_name(1), "c1");
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(CsvReaderTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  auto table = CsvReader::ReadString("a;b\n1;2\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_columns(), 2u);
  EXPECT_DOUBLE_EQ(table->column(1).AsNumeric().value(0), 2.0);
}

TEST(CsvReaderTest, CrLfLineEndings) {
  auto table = CsvReader::ReadString("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(table->column(0).AsNumeric().value(1), 3.0);
}

TEST(CsvReaderTest, IntegerCodesAsCategorical) {
  CsvOptions options;
  options.integer_codes_as_categorical = true;
  options.max_integer_code_cardinality = 3;
  auto table = CsvReader::ReadString("code,value\n1,0.5\n2,1.5\n1,2.5\n2,3.5\n",
                                     options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().column(0).type, ColumnType::kCategorical);
  // 'value' has 4 distinct doubles (non-integers), stays numeric.
  EXPECT_EQ(table->schema().column(1).type, ColumnType::kNumeric);
}

TEST(CsvReaderTest, RaggedRowsAreAnError) {
  auto table = CsvReader::ReadString("a,b\n1,2\n3\n");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kParseError);
}

TEST(CsvReaderTest, UnterminatedQuoteIsAnError) {
  auto table = CsvReader::ReadString("a,b\n\"open,2\n");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kParseError);
}

TEST(CsvReaderTest, EmptyInputIsAnError) {
  EXPECT_FALSE(CsvReader::ReadString("").ok());
  EXPECT_FALSE(CsvReader::ReadString("only_header\n").ok());
}

TEST(CsvReaderTest, AllMissingColumnBecomesCategorical) {
  auto table = CsvReader::ReadString("a,b\nNA,1\n,2\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().column(0).type, ColumnType::kCategorical);
  EXPECT_EQ(table->column(0).null_count(), 2u);
}

TEST(CsvReaderTest, EmbeddedNewlineInsideQuotesDoesNotSplitRow) {
  // The quoted field spans a physical newline; both rows must keep 2 fields.
  auto table = CsvReader::ReadString("a,b\n\"line1\nline2\",1\nplain,2\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->column(0).AsCategorical().value(0), "line1\nline2");
}

TEST(CsvReaderTest, QuotedEmptyFieldCountsAsRowContent) {
  // A lone "" line is a present-but-empty field (read back as null), not a
  // blank line to skip — the writer relies on this for single-column nulls.
  auto table = CsvReader::ReadString("v\n1\n\"\"\n3\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 3u);
  EXPECT_FALSE(table->column(0).is_valid(1));
}

TEST(CsvReaderTest, BlankLinesAreStillSkipped) {
  auto table = CsvReader::ReadString("a,b\n1,2\n\n\n3,4\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(CsvReaderTest, MissingFileIsIOError) {
  auto table = CsvReader::ReadFile("/nonexistent/path.csv");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIOError);
}

TEST(CsvReaderTest, ReadFileEqualsReadStringOnTheSameBytes) {
  // Quoted delimiters and newlines, CRLF endings, missing markers, blank
  // lines and a categorical column.
  std::string text = "id,label,score\r\n";
  for (int i = 0; i < 400; ++i) {
    text += std::to_string(i) + ",\"tag, " + std::to_string(i % 7) +
            "\nline\"," + (i % 9 == 0 ? "NA" : std::to_string(0.25 * i)) +
            "\r\n";
    if (i % 100 == 0) text += "\r\n";
  }
  const std::string path = WriteTempFile("foresight_csv_same_bytes.csv", text);
  auto from_file = CsvReader::ReadFile(path);
  auto from_string = CsvReader::ReadString(text);
  ASSERT_TRUE(from_file.ok()) << from_file.status();
  ASSERT_TRUE(from_string.ok()) << from_string.status();
  EXPECT_EQ(from_file->num_rows(), 400u);
  EXPECT_EQ(CsvWriter::WriteString(*from_file),
            CsvWriter::WriteString(*from_string));
}

TEST(ReadFileBytesTest, ReturnsEveryByteUnchanged) {
  // Every byte value, NUL and 0xFF included.
  std::string bytes;
  for (int i = 0; i < 64 * 1024 + 3; ++i) {
    bytes.push_back(static_cast<char>((i * 131 + i / 256) & 0xFF));
  }
  ASSERT_NE(bytes.find('\0'), std::string::npos);
  ASSERT_NE(bytes.find('\xFF'), std::string::npos);
  auto read = ReadFileBytes(WriteTempFile("foresight_read_bytes.bin", bytes));
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, bytes);
}

TEST(ReadFileBytesTest, EmptyFileIsAnEmptyString) {
  auto read = ReadFileBytes(WriteTempFile("foresight_read_empty.bin", ""));
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->empty());
}

TEST(ReadFileBytesTest, MissingPathIsIOError) {
  auto read = ReadFileBytes("/nonexistent/path.bin");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
}

TEST(CsvRoundTripTest, WriteThenReadPreservesData) {
  DataTable table;
  NumericColumn numeric;
  numeric.Append(1.25);
  numeric.AppendNull();
  numeric.Append(-3.5);
  ASSERT_TRUE(
      table.AddColumn("num", std::make_unique<NumericColumn>(std::move(numeric)))
          .ok());
  ASSERT_TRUE(
      table.AddCategoricalColumn("cat", {"plain", "with,comma", "with\"quote"})
          .ok());

  std::string csv = CsvWriter::WriteString(table);
  auto reread = CsvReader::ReadString(csv);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->num_rows(), 3u);
  EXPECT_EQ(reread->schema().column(0).type, ColumnType::kNumeric);
  EXPECT_DOUBLE_EQ(reread->column(0).AsNumeric().value(0), 1.25);
  EXPECT_FALSE(reread->column(0).is_valid(1));
  EXPECT_EQ(reread->column(1).AsCategorical().value(1), "with,comma");
  EXPECT_EQ(reread->column(1).AsCategorical().value(2), "with\"quote");
}

TEST(CsvRoundTripTest, SingleColumnNullsSurviveRoundTrip) {
  // Fuzzer-found: a null in a single-column table used to serialize as an
  // entirely empty line, which the reader then skipped as blank — dropping
  // the row. The writer now emits a quoted-empty field instead.
  DataTable table;
  NumericColumn numeric;
  numeric.Append(1.0);
  numeric.AppendNull();
  numeric.Append(3.0);
  ASSERT_TRUE(
      table.AddColumn("v", std::make_unique<NumericColumn>(std::move(numeric)))
          .ok());

  std::string csv = CsvWriter::WriteString(table);
  auto reread = CsvReader::ReadString(csv);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->num_rows(), 3u);
  EXPECT_FALSE(reread->column(0).is_valid(1));
  EXPECT_DOUBLE_EQ(reread->column(0).AsNumeric().value(2), 3.0);
}

TEST(CsvRoundTripTest, FileRoundTrip) {
  DataTable table;
  ASSERT_TRUE(table.AddNumericColumn("x", {1, 2, 3}).ok());
  std::string path = testing::TempDir() + "/foresight_csv_test.csv";
  ASSERT_TRUE(CsvWriter::WriteFile(table, path).ok());
  auto reread = CsvReader::ReadFile(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->num_rows(), 3u);
}

// ---- Differential: CsvReader against the reference tokenizing reader ----

/// The input with control and non-ASCII bytes escaped, for failure messages.
std::string Escaped(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (byte < 0x20 || byte >= 0x7f) {
      out += "\\x";
      out += kHex[byte >> 4];
      out += kHex[byte & 15];
    } else {
      out += c;
    }
  }
  return out;
}

/// Empty when CsvReader returns what the reference returns on `text`: the
/// same error (code and message) or an identical table.
std::string DifferenceFromReference(std::string_view text,
                                    const CsvOptions& options) {
  const std::string diff =
      csv_reference::ResultDifference(csv_reference::ReadString(text, options),
                                      CsvReader::ReadString(text, options));
  if (diff.empty()) return diff;
  return diff + " (delimiter '" + Escaped(std::string(1, options.delimiter)) +
         "', header " + std::to_string(options.has_header) + ", codes " +
         std::to_string(options.integer_codes_as_categorical) + "/" +
         std::to_string(options.max_integer_code_cardinality) + ") on \"" +
         Escaped(text) + "\"";
}

struct CsvCase {
  std::string text;
  CsvOptions options;
};

CsvOptions WithDelimiter(char delimiter) {
  CsvOptions options;
  options.delimiter = delimiter;
  return options;
}

TEST(CsvDifferentialTest, EveryReaderTestInput) {
  CsvOptions no_header;
  no_header.has_header = false;
  CsvOptions codes;
  codes.integer_codes_as_categorical = true;
  codes.max_integer_code_cardinality = 3;
  std::string same_bytes = "id,label,score\r\n";
  for (int i = 0; i < 400; ++i) {
    same_bytes += std::to_string(i) + ",\"tag, " + std::to_string(i % 7) +
                  "\nline\"," + (i % 9 == 0 ? "NA" : std::to_string(0.25 * i)) +
                  "\r\n";
    if (i % 100 == 0) same_bytes += "\r\n";
  }
  const std::vector<CsvCase> cases = {
      {"name,age,score\nalice,30,1.5\nbob,25,2.5\n", {}},
      {"x,y\n1,NA\n,hello\n3,world\n", {}},
      {"a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n\"multi\nline\",2\n", {}},
      {"1,2\n3,4\n", no_header},
      {"a;b\n1;2\n", WithDelimiter(';')},
      {"a,b\r\n1,2\r\n3,4\r\n", {}},
      {"code,value\n1,0.5\n2,1.5\n1,2.5\n2,3.5\n", codes},
      {"a,b\n1,2\n3\n", {}},
      {"a,b\n\"open,2\n", {}},
      {"", {}},
      {"only_header\n", {}},
      {"a,b\nNA,1\n,2\n", {}},
      {"a,b\n\"line1\nline2\",1\nplain,2\n", {}},
      {"v\n1\n\"\"\n3\n", {}},
      {"a,b\n1,2\n\n\n3,4\n", {}},
      {same_bytes, {}},
  };
  for (const CsvCase& c : cases) {
    EXPECT_EQ(DifferenceFromReference(c.text, c.options), "");
  }
}

TEST(CsvDifferentialTest, ErrorPrecedence) {
  // Unterminated quote over everything, then no rows, the first ragged row,
  // a header without data, duplicate names.
  const std::vector<std::string> inputs = {
      "a,b\n1\n\"open",      "a,b\n1,2,3\n4\n\"x\ny",  "\n\r\n\r",
      "a,a\n",               "a,a\n1,2\n",             "a,b\n1\n2,3,4\n",
      "\"a\"\"\n,b\n1,2\n",  "a,b\n\"1\"x,2\n\"",        "x\n\"a\nb\nc",
      "a\r\n\r\n",           "\"\"",                   "a,b,\n1,2,\n",
  };
  for (const std::string& text : inputs) {
    EXPECT_EQ(DifferenceFromReference(text, {}), "");
    CsvOptions no_header;
    no_header.has_header = false;
    EXPECT_EQ(DifferenceFromReference(text, no_header), "");
  }
}

TEST(CsvDifferentialTest, FuzzCorpusSeeds) {
  size_t seeds = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           FORESIGHT_FUZZ_CORPUS_DIR "/csv")) {
    auto bytes = ReadFileBytes(entry.path().string());
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    if (bytes->empty()) continue;
    const CsvOptions options = csv_reference::OptionsFromFuzzByte(
        static_cast<uint8_t>((*bytes)[0]));
    EXPECT_EQ(DifferenceFromReference(std::string_view(*bytes).substr(1),
                                      options),
              "")
        << entry.path();
    ++seeds;
  }
  EXPECT_GE(seeds, 9u);
}

/// One random CSV input drawn from quoting, line-ending, padding, missing-
/// marker and number-syntax building blocks, with options to match.
CsvCase RandomCase(Rng& rng) {
  static constexpr char kDelimiters[] = {',', ';', '\t', '|'};
  static const std::vector<std::string> kNumbers = {
      "0",      "1",        "2",       "3",      "-1",   "+4",
      "01",     "2.5",      "-0.75",   ".5",     "5.",   "1e3",
      "1E-2",   "+1e+2",    "-0",      "inf",    "-inf", "+inf",
      "Infinity", "-nan",   "+nan",    "0x1A",   "1e400", "1e-400",
      "9223372036854775807",  "9223372036854775808",
      "-9223372036854775809", "123456789012345678901234567890"};
  static const std::vector<std::string> kCodes = {"0", "1", "2", "3",
                                                  "+1", "01", "-2"};
  static const std::vector<std::string> kMissing = {
      "",     "NA",   "na",   "nA",    "N/A",  "n/a",  "NaN",     "nan",
      "NAN",  "null", "NULL", "nUlL",  "None", "NONE", "?",       " ",
      "nulls", "nones", "n/a/", "??",  "N A"};
  static const std::vector<std::string> kText = {
      "a",      "b",        "red",     "Blue",  "x y",       "caf\xC3\xA9",
      "\xFF",   "1.2.3",    "-",       "+",     "e5",        "a\"b",
      "x,y",    "p;q",      "t\tu",    "v|w",   "two\nlines", "cr\rhere",
      "crlf\r\nhere", "\"\"", "say \"hi\""};
  static const std::vector<std::string> kNames = {"a", "b", "a", "",
                                                  " x ", "c1", "n,m"};
  auto pick = [&](const std::vector<std::string>& pool) -> const std::string& {
    return pool[rng.UniformInt(pool.size())];
  };
  auto chance = [&](uint64_t percent) { return rng.UniformInt(100) < percent; };

  CsvCase out;
  out.options.delimiter = kDelimiters[rng.UniformInt(4)];
  out.options.has_header = chance(50);
  out.options.integer_codes_as_categorical = chance(30);
  out.options.max_integer_code_cardinality = 1 + rng.UniformInt(4);

  auto encode = [&](std::string value) {
    if (chance(15)) value = " " + value;
    if (chance(15)) value += "\t ";
    if (chance(30)) {
      std::string quoted = "\"";
      for (char c : value) quoted += c == '"' ? std::string("\"\"") : std::string(1, c);
      quoted += '"';
      if (chance(10)) quoted += pick(kText);  // Text after the closing quote.
      return quoted;
    }
    return value;
  };
  auto line_end = [&]() -> std::string {
    const uint64_t r = rng.UniformInt(20);
    return r < 12 ? "\n" : r < 17 ? "\r\n" : "\r";
  };

  const size_t num_cols = 1 + rng.UniformInt(5);
  const size_t num_rows = rng.UniformInt(12);
  // Per column: 0 codes, 1 numbers, 2 text, 3 numbers turning to text at a
  // random row, 4 all missing.
  std::vector<uint64_t> kinds(num_cols);
  std::vector<size_t> turn(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    kinds[c] = rng.UniformInt(5);
    turn[c] = rng.UniformInt(num_rows + 1);
  }
  std::string& text = out.text;
  if (out.options.has_header) {
    for (size_t c = 0; c < num_cols; ++c) {
      if (c > 0) text += out.options.delimiter;
      text += encode(pick(kNames));
    }
    text += line_end();
  }
  for (size_t r = 0; r < num_rows; ++r) {
    if (chance(5)) text += line_end();  // A blank line.
    size_t fields = num_cols;
    if (chance(3)) fields = chance(50) ? fields + 1 : fields - 1;
    for (size_t c = 0; c < fields; ++c) {
      if (c > 0) text += out.options.delimiter;
      const uint64_t kind = c < num_cols ? kinds[c] : 2;
      std::string value;
      if (kind == 4 || chance(12)) {
        value = pick(kMissing);
      } else if (kind == 0) {
        value = pick(kCodes);
      } else if (kind == 1 || (kind == 3 && r < turn[c])) {
        value = pick(kNumbers);
      } else {
        value = pick(kText);
      }
      text += encode(value);
    }
    if (r + 1 < num_rows || chance(70)) text += line_end();
  }
  if (chance(3)) {
    text.insert(rng.UniformInt(text.size() + 1), "\"open");
  }
  // A few raw edits, from the bytes that change structure.
  static constexpr char kEdits[] = {'"', '\n', '\r', ' ', 'a', '1', ','};
  const size_t edits = chance(15) ? 1 + rng.UniformInt(3) : 0;
  for (size_t e = 0; e < edits; ++e) {
    const char c = chance(30) ? out.options.delimiter
                              : kEdits[rng.UniformInt(std::size(kEdits))];
    const size_t at = rng.UniformInt(text.size() + 1);
    if (at < text.size() && chance(50)) {
      text[at] = c;
    } else {
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c);
    }
  }
  return out;
}

TEST(CsvDifferentialTest, SeededRandomInputs) {
  Rng rng(20240611);
  size_t tables = 0;
  for (int i = 0; i < 60000; ++i) {
    const CsvCase c = RandomCase(rng);
    const std::string diff = DifferenceFromReference(c.text, c.options);
    ASSERT_EQ(diff, "") << "case " << i;
    tables += CsvReader::ReadString(c.text, c.options).ok();
  }
  // The generator must reach the table-building paths, not only errors.
  EXPECT_GT(tables, 15000u);
}

TEST(CsvDifferentialTest, BenchmarkShapedTable) {
  const DataTable table = MakeBenchmarkTable(20000, 58, 6, 11);
  const std::string text = CsvWriter::WriteString(table);
  EXPECT_EQ(DifferenceFromReference(text, {}), "");
  auto read = CsvReader::ReadString(text);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->num_rows(), 20000u);
  EXPECT_EQ(read->num_columns(), 64u);
}

TEST(CsvDifferentialTest, ManyColumnsDemotingAtDifferentLateRows) {
  // Column c holds numbers, some quoted or missing, until row 300 + c, then
  // text mixed with more numbers; every column demotes at its own row.
  constexpr size_t kCols = 200;
  constexpr size_t kRows = 520;
  std::string text;
  for (size_t c = 0; c < kCols; ++c) {
    text += (c > 0 ? "," : "") + std::string("col") + std::to_string(c);
  }
  text += "\n";
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t c = 0; c < kCols; ++c) {
      if (c > 0) text += ',';
      const size_t turn = 300 + c;
      const std::string number = std::to_string((r * 7 + c) % 13);
      if (r < turn || (r > turn && (r + c) % 3 == 0)) {
        if ((r + c) % 11 == 0) {
          text += "NA";
        } else if ((r + c) % 5 == 0) {
          text += "\"" + number + "\"";
        } else {
          text += number;
        }
      } else if (r % 2 == 0) {
        text += "\"say \"\"" + std::to_string(c) + "\"\"\"";
      } else {
        text += " late" + std::to_string(r % 4) + " ";
      }
    }
    text += r % 2 == 0 ? "\n" : "\r\n";
  }
  EXPECT_EQ(DifferenceFromReference(text, {}), "");
  auto read = CsvReader::ReadString(text);
  ASSERT_TRUE(read.ok()) << read.status();
  for (size_t c = 0; c < kCols; ++c) {
    ASSERT_EQ(read->column(c).type(), ColumnType::kCategorical) << c;
  }
  // The rows before each demotion come back as their text, in order.
  EXPECT_EQ(read->column(0).AsCategorical().value(1), "7");
  EXPECT_EQ(read->column(199).AsCategorical().value(499), "late3");
  EXPECT_EQ(read->column(199).AsCategorical().value(502), "say \"199\"");
}

}  // namespace
}  // namespace foresight
