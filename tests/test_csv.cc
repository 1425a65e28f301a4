#include "data/csv.h"

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "util/fd.h"

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

}  // namespace
}  // namespace foresight
