#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "data/column.h"
#include "data/schema.h"
#include "data/table.h"

namespace foresight {
namespace {

TEST(SchemaTest, AddAndFindColumns) {
  Schema schema;
  ASSERT_TRUE(schema.AddColumn({"a", ColumnType::kNumeric, {}}).ok());
  ASSERT_TRUE(schema.AddColumn({"b", ColumnType::kCategorical, {}}).ok());
  EXPECT_EQ(schema.num_columns(), 2u);
  EXPECT_EQ(*schema.FindColumn("b"), 1u);
  EXPECT_FALSE(schema.FindColumn("c").has_value());
}

TEST(SchemaTest, RejectsDuplicateNames) {
  Schema schema;
  ASSERT_TRUE(schema.AddColumn({"a", ColumnType::kNumeric, {}}).ok());
  EXPECT_EQ(schema.AddColumn({"a", ColumnType::kCategorical, {}}).code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaTest, ColumnsOfTypeFiltersByType) {
  Schema schema({{"x", ColumnType::kNumeric, {}},
                 {"c", ColumnType::kCategorical, {}},
                 {"y", ColumnType::kNumeric, {}}});
  EXPECT_EQ(schema.ColumnsOfType(ColumnType::kNumeric),
            (std::vector<size_t>{0, 2}));
  EXPECT_EQ(schema.ColumnsOfType(ColumnType::kCategorical),
            (std::vector<size_t>{1}));
}

TEST(NumericColumnTest, AppendAndNulls) {
  NumericColumn col;
  col.Append(1.5);
  col.AppendNull();
  col.Append(-2.0);
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col.valid_count(), 2u);
  EXPECT_EQ(col.null_count(), 1u);
  EXPECT_TRUE(col.is_valid(0));
  EXPECT_FALSE(col.is_valid(1));
  EXPECT_DOUBLE_EQ(col.value(2), -2.0);
  EXPECT_EQ(col.ValidValues(), (std::vector<double>{1.5, -2.0}));
}

TEST(NumericColumnTest, BulkConstructorIsFullyValid) {
  NumericColumn col({1.0, 2.0, 3.0});
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col.null_count(), 0u);
}

TEST(NumericColumnTest, CloneIsDeep) {
  NumericColumn col({1.0, 2.0});
  auto clone = col.Clone();
  EXPECT_EQ(clone->size(), 2u);
  EXPECT_DOUBLE_EQ(clone->AsNumeric().value(1), 2.0);
}

TEST(CategoricalColumnTest, DictionaryEncoding) {
  CategoricalColumn col;
  col.Append("red");
  col.Append("blue");
  col.Append("red");
  col.AppendNull();
  EXPECT_EQ(col.size(), 4u);
  EXPECT_EQ(col.cardinality(), 2u);
  EXPECT_EQ(col.code(0), col.code(2));
  EXPECT_NE(col.code(0), col.code(1));
  EXPECT_EQ(col.code(3), CategoricalColumn::kNullCode);
  EXPECT_EQ(col.value(0), "red");
  EXPECT_EQ(col.dictionary_value(col.code(1)), "blue");
}

TEST(CategoricalColumnTest, AppendsViewsIntoALargerBuffer) {
  // Values past the 15-byte small-string limit, passed as views that are not
  // NUL-terminated and overlap: the dictionary must copy them, and look them
  // up by their bytes alone.
  std::string buffer =
      "long_category_value_alpha|long_category_value_alpha_beta|";
  const std::string_view alpha(buffer.data(), 25);
  const std::string_view alpha_beta(buffer.data() + 26, 30);
  ASSERT_EQ(alpha, "long_category_value_alpha");
  ASSERT_EQ(alpha_beta, "long_category_value_alpha_beta");
  const std::string_view alpha_prefix(buffer.data() + 26, 25);

  CategoricalColumn col;
  col.Append(alpha_beta);
  col.Append(alpha);
  col.Append(alpha_prefix);
  col.AppendNull();
  col.Append(alpha_beta);
  EXPECT_EQ(col.dictionary(),
            (std::vector<std::string>{"long_category_value_alpha_beta",
                                      "long_category_value_alpha"}));
  EXPECT_EQ(col.codes(), (std::vector<int32_t>{0, 1, 1,
                                               CategoricalColumn::kNullCode,
                                               0}));

  // The dictionary owns its entries: rewriting the buffer changes nothing,
  // and a clone still finds existing values.
  buffer.assign(buffer.size(), 'x');
  EXPECT_EQ(col.value(0), "long_category_value_alpha_beta");
  std::unique_ptr<Column> clone = col.Clone();
  auto& copy = static_cast<CategoricalColumn&>(*clone);
  copy.Append(std::string_view("long_category_value_alpha"));
  EXPECT_EQ(copy.cardinality(), 2u);
  EXPECT_EQ(copy.code(5), 1);
}

TEST(DataTableTest, AddColumnsAndLookup) {
  DataTable table;
  ASSERT_TRUE(table.AddNumericColumn("x", {1, 2, 3}).ok());
  ASSERT_TRUE(table.AddCategoricalColumn("c", {"a", "b", "a"}).ok());
  EXPECT_EQ(table.num_rows(), 3u);
  EXPECT_EQ(table.num_columns(), 2u);
  EXPECT_EQ(*table.ColumnIndex("c"), 1u);
  EXPECT_EQ(table.ColumnIndex("zzz").status().code(), StatusCode::kNotFound);
  EXPECT_NE(table.FindColumn("x"), nullptr);
  EXPECT_EQ(table.FindColumn("zzz"), nullptr);
}

TEST(DataTableTest, RejectsLengthMismatch) {
  DataTable table;
  ASSERT_TRUE(table.AddNumericColumn("x", {1, 2, 3}).ok());
  EXPECT_EQ(table.AddNumericColumn("y", {1, 2}).code(),
            StatusCode::kInvalidArgument);
}

TEST(DataTableTest, RejectsDuplicateName) {
  DataTable table;
  ASSERT_TRUE(table.AddNumericColumn("x", {1}).ok());
  EXPECT_EQ(table.AddNumericColumn("x", {2}).code(),
            StatusCode::kAlreadyExists);
}

TEST(DataTableTest, TypedLookupChecksType) {
  DataTable table;
  ASSERT_TRUE(table.AddNumericColumn("x", {1, 2}).ok());
  ASSERT_TRUE(table.AddCategoricalColumn("c", {"a", "b"}).ok());
  EXPECT_TRUE(table.NumericColumnByName("x").ok());
  EXPECT_EQ(table.NumericColumnByName("c").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(table.CategoricalColumnByName("c").ok());
  EXPECT_EQ(table.CategoricalColumnByName("x").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DataTableTest, TypeIndexLists) {
  DataTable table;
  ASSERT_TRUE(table.AddNumericColumn("x", {1}).ok());
  ASSERT_TRUE(table.AddCategoricalColumn("c", {"a"}).ok());
  ASSERT_TRUE(table.AddNumericColumn("y", {2}).ok());
  EXPECT_EQ(table.NumericColumnIndices(), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(table.CategoricalColumnIndices(), (std::vector<size_t>{1}));
}

TEST(DataTableTest, CloneIsIndependent) {
  DataTable table;
  ASSERT_TRUE(table.AddNumericColumn("x", {1, 2}).ok());
  DataTable copy = table.Clone();
  EXPECT_EQ(copy.num_rows(), 2u);
  EXPECT_EQ(copy.schema(), table.schema());
}

}  // namespace
}  // namespace foresight
