#include "data/table.h"

#include <utility>

namespace foresight {

Status DataTable::AddColumn(std::string name, std::unique_ptr<Column> column) {
  FORESIGHT_CHECK(column != nullptr);
  if (!columns_.empty() && column->size() != num_rows_) {
    return Status::InvalidArgument(
        "column '" + name + "' has " + std::to_string(column->size()) +
        " rows; table has " + std::to_string(num_rows_));
  }
  ColumnSpec spec;
  spec.name = std::move(name);
  spec.type = column->type();
  FORESIGHT_RETURN_IF_ERROR(schema_.AddColumn(std::move(spec)));
  if (columns_.empty()) num_rows_ = column->size();
  columns_.push_back(std::move(column));
  return Status::OK();
}

Status DataTable::AddNumericColumn(std::string name,
                                   std::vector<double> values) {
  return AddColumn(std::move(name),
                   std::make_unique<NumericColumn>(std::move(values)));
}

Status DataTable::AddCategoricalColumn(std::string name,
                                       const std::vector<std::string>& values) {
  return AddColumn(std::move(name),
                   std::make_unique<CategoricalColumn>(values));
}

StatusOr<size_t> DataTable::ColumnIndex(std::string_view name) const {
  std::optional<size_t> index = schema_.FindColumn(name);
  if (!index.has_value()) {
    return Status::NotFound("no column named '" + std::string(name) + "'");
  }
  return *index;
}

const Column* DataTable::FindColumn(std::string_view name) const {
  std::optional<size_t> index = schema_.FindColumn(name);
  return index.has_value() ? columns_[*index].get() : nullptr;
}

StatusOr<const NumericColumn*> DataTable::NumericColumnByName(
    std::string_view name) const {
  FORESIGHT_ASSIGN_OR_RETURN(size_t index, ColumnIndex(name));
  const Column& col = column(index);
  if (col.type() != ColumnType::kNumeric) {
    return Status::InvalidArgument("column '" + std::string(name) +
                                   "' is not numeric");
  }
  return &col.AsNumeric();
}

StatusOr<const CategoricalColumn*> DataTable::CategoricalColumnByName(
    std::string_view name) const {
  FORESIGHT_ASSIGN_OR_RETURN(size_t index, ColumnIndex(name));
  const Column& col = column(index);
  if (col.type() != ColumnType::kCategorical) {
    return Status::InvalidArgument("column '" + std::string(name) +
                                   "' is not categorical");
  }
  return &col.AsCategorical();
}

Status DataTable::AppendRows(const DataTable& delta) {
  if (columns_.empty()) {
    return Status::InvalidArgument("cannot append rows to a table with no columns");
  }
  if (delta.num_columns() != num_columns()) {
    return Status::InvalidArgument(
        "append delta has " + std::to_string(delta.num_columns()) +
        " columns; table has " + std::to_string(num_columns()));
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    const ColumnSpec& ours = schema_.column(c);
    const ColumnSpec& theirs = delta.schema().column(c);
    if (ours.name != theirs.name || ours.type != theirs.type) {
      return Status::InvalidArgument("append delta column " +
                                     std::to_string(c) + " ('" + theirs.name +
                                     "') does not match table column '" +
                                     ours.name + "'");
    }
  }
  if (delta.num_rows() == 0) return Status::OK();
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Column& src = *delta.columns_[c];
    if (src.type() == ColumnType::kNumeric) {
      auto& dst = static_cast<NumericColumn&>(*columns_[c]);
      const auto& numeric = src.AsNumeric();
      for (size_t i = 0; i < delta.num_rows(); ++i) {
        if (numeric.is_valid(i)) {
          dst.Append(numeric.value(i));
        } else {
          dst.AppendNull();
        }
      }
    } else {
      auto& dst = static_cast<CategoricalColumn&>(*columns_[c]);
      const auto& categorical = src.AsCategorical();
      for (size_t i = 0; i < delta.num_rows(); ++i) {
        if (categorical.is_valid(i)) {
          dst.Append(categorical.value(i));
        } else {
          dst.AppendNull();
        }
      }
    }
  }
  num_rows_ += delta.num_rows();
  schema_.NoteDataMutation();
  return Status::OK();
}

DataTable DataTable::Clone() const {
  DataTable copy;
  for (size_t i = 0; i < columns_.size(); ++i) {
    Status status = copy.AddColumn(schema_.column(i).name, columns_[i]->Clone());
    FORESIGHT_CHECK(status.ok());
  }
  return copy;
}

size_t DataTable::EstimateMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& column : columns_) {
    bytes += (column->size() + 7) / 8;  // validity bitmask, rounded up
    if (column->type() == ColumnType::kNumeric) {
      bytes += column->AsNumeric().values().size() * sizeof(double);
    } else {
      const auto& categorical = column->AsCategorical();
      bytes += categorical.codes().size() * sizeof(int32_t);
      for (const std::string& entry : categorical.dictionary()) {
        bytes += entry.size() + sizeof(std::string);
      }
    }
  }
  return bytes;
}

}  // namespace foresight
