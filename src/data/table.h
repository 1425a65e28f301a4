#ifndef FORESIGHT_DATA_TABLE_H_
#define FORESIGHT_DATA_TABLE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "data/column.h"
#include "data/schema.h"
#include "util/status.h"

namespace foresight {

/// In-memory columnar table: the paper's input matrix `A (n×d)` where each
/// row is a data item and each column an attribute.
///
/// DataTable owns its columns. All columns have the same length. The table is
/// movable but not copyable (use `Clone()` for a deep copy).
class DataTable {
 public:
  DataTable() = default;

  DataTable(DataTable&&) = default;
  DataTable& operator=(DataTable&&) = default;
  DataTable(const DataTable&) = delete;
  DataTable& operator=(const DataTable&) = delete;

  /// Appends a column. Fails if the name already exists or if the length
  /// differs from existing columns.
  Status AddColumn(std::string name, std::unique_ptr<Column> column);

  /// Convenience wrappers for fully valid columns.
  Status AddNumericColumn(std::string name, std::vector<double> values);
  Status AddCategoricalColumn(std::string name,
                              const std::vector<std::string>& values);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  const Schema& schema() const { return schema_; }

  const Column& column(size_t index) const {
    FORESIGHT_CHECK(index < columns_.size());
    return *columns_[index];
  }
  const std::string& column_name(size_t index) const {
    return schema_.column(index).name;
  }

  /// Column lookup by name.
  StatusOr<size_t> ColumnIndex(std::string_view name) const;
  const Column* FindColumn(std::string_view name) const;

  /// Typed lookups; fail with InvalidArgument on a type mismatch.
  StatusOr<const NumericColumn*> NumericColumnByName(
      std::string_view name) const;
  StatusOr<const CategoricalColumn*> CategoricalColumnByName(
      std::string_view name) const;

  /// Adds a semantic metadata tag (e.g. "currency", "date") to a column;
  /// used by InsightQuery::required_tags (§2.1 metadata constraints).
  Status TagColumn(std::string_view name, std::string tag) {
    return schema_.TagColumn(name, std::move(tag));
  }
  std::vector<size_t> ColumnsWithTag(std::string_view tag) const {
    return schema_.ColumnsWithTag(tag);
  }

  /// Indices of numeric columns (the set `B`) and categorical columns (`C`).
  std::vector<size_t> NumericColumnIndices() const {
    return schema_.ColumnsOfType(ColumnType::kNumeric);
  }
  std::vector<size_t> CategoricalColumnIndices() const {
    return schema_.ColumnsOfType(ColumnType::kCategorical);
  }

  /// Appends every row of `delta` to this table. `delta` must have the same
  /// columns (names and types, in order); returns InvalidArgument otherwise
  /// and leaves the table untouched. Categorical values append by string, so
  /// the combined dictionary keeps first-occurrence order — identical to
  /// having ingested the concatenated rows in one pass. Bumps the schema's
  /// mutation counter (see Schema::NoteDataMutation) so epoch-keyed caches
  /// invalidate; an empty delta is a no-op and does not bump.
  Status AppendRows(const DataTable& delta);

  /// Deep copy.
  DataTable Clone() const;

  /// Rough resident footprint of the column data (value buffers, validity
  /// masks, categorical dictionaries). Used by the dataset registry's byte
  /// budget alongside TableProfile::EstimateMemoryBytes.
  size_t EstimateMemoryBytes() const;

 private:
  Schema schema_;
  std::vector<std::unique_ptr<Column>> columns_;
  size_t num_rows_ = 0;
};

}  // namespace foresight

#endif  // FORESIGHT_DATA_TABLE_H_
