#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <numbers>
#include <vector>

#include "util/json.h"
#include "util/logging.h"

namespace perfbench {

using foresight::CategoricalColumn;
using foresight::DataTable;
using foresight::JsonValue;
using foresight::NumericColumn;

namespace {

constexpr size_t kBlockWidth = 6;
/// Loading of each block position on the block's latent factor. Positions
/// 0-2 are near-collinear (|rho| >= 0.97), tight enough for the prune
/// planner's sketch bounds to cut top-k linear queries; position 5 is
/// independent noise.
constexpr double kLoadings[kBlockWidth] = {0.995, -0.99, 0.98, 0.6, 0.3, 0.0};
/// One numeric column in this many holds about 4% nulls. Pairs with such a
/// column have no safe sketch bound, so the planner always refines them.
constexpr size_t kNullColumnEvery = 45;
constexpr size_t kCardinalities[] = {4, 12, 40, 100, 300, 24, 64, 200, 1000,
                                     30};
constexpr double kZipfExponent = 1.2;

struct CategoricalSpec {
  std::vector<std::string> labels;
  std::vector<double> cdf;
};

CategoricalSpec MakeCategoricalSpec(size_t k) {
  CategoricalSpec spec;
  const size_t cardinality = kCardinalities[k % std::size(kCardinalities)];
  for (size_t i = 0; i < cardinality; ++i) {
    spec.labels.push_back(CategoricalName(k) + "_" + std::to_string(i));
  }
  spec.cdf = ZipfCdf(cardinality, kZipfExponent);
  return spec;
}

}  // namespace

std::vector<double> ZipfCdf(size_t n, double s) {
  std::vector<double> cdf;
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf.push_back(total);
  }
  for (double& c : cdf) c /= total;
  cdf.back() = 1.0;
  return cdf;
}

size_t ZipfPick(const std::vector<double>& cdf, double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min(static_cast<size_t>(it - cdf.begin()), cdf.size() - 1);
}

double Rng::Normal() {
  const double u1 = 1.0 - Uniform();  // (0, 1]: log stays finite.
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b) {
  Rng mix(seed ^ (a * 0xD1B54A32D192ED03ULL) ^ (b * 0x8CB92BA72F3D8DD7ULL));
  return mix.Next();
}

std::string NumericName(size_t j) { return "n" + std::to_string(j); }
std::string CategoricalName(size_t k) { return "c" + std::to_string(k); }

DataTable GenerateRows(uint64_t seed, const TableShape& shape, size_t begin,
                       size_t end) {
  const size_t blocks = (shape.numeric + kBlockWidth - 1) / kBlockWidth;
  std::vector<std::unique_ptr<NumericColumn>> numeric;
  for (size_t j = 0; j < shape.numeric; ++j) {
    numeric.push_back(std::make_unique<NumericColumn>());
  }
  std::vector<std::unique_ptr<CategoricalColumn>> categorical;
  std::vector<CategoricalSpec> specs;
  for (size_t k = 0; k < shape.categorical; ++k) {
    categorical.push_back(std::make_unique<CategoricalColumn>());
    specs.push_back(MakeCategoricalSpec(k));
  }

  std::vector<double> latent(std::max<size_t>(blocks, 1));
  for (size_t row = begin; row < end; ++row) {
    Rng rng(StreamSeed(seed, row));
    for (double& z : latent) z = rng.Normal();
    for (size_t j = 0; j < shape.numeric; ++j) {
      const double loading = kLoadings[j % kBlockWidth];
      const double x = loading * latent[j / kBlockWidth] +
                       std::sqrt(1.0 - loading * loading) * rng.Normal();
      const double u = rng.Uniform();
      if (j % kNullColumnEvery == 4 && u < 0.04) {
        numeric[j]->AppendNull();
        continue;
      }
      double v = x;
      switch (j % kBlockWidth) {
        case 3:  // Right-skewed (lognormal).
          v = std::exp(0.7 * x);
          break;
        case 4:  // Bimodal.
          v = x + (u < 0.3 ? 3.5 : 0.0);
          break;
        case 5:  // Rare gross outliers.
          v = u < 0.005 ? 12.0 * x : x;
          break;
        default:
          break;
      }
      numeric[j]->Append(10.0 * static_cast<double>(j % 7) +
                         (1.0 + static_cast<double>(j % 4)) * v);
    }
    for (size_t k = 0; k < shape.categorical; ++k) {
      const CategoricalSpec& spec = specs[k];
      const double u = rng.Uniform();
      const double pick = rng.Uniform();
      if (k % 3 == 0 && u < 0.02) {
        categorical[k]->AppendNull();
        continue;
      }
      size_t index = ZipfPick(spec.cdf, pick);
      if (k % 2 == 1 && u >= 0.2) {
        // Tracks block k's latent factor, so it segments that block.
        const double t = (latent[k % latent.size()] + 2.5) / 5.0;
        const double scaled =
            std::clamp(t, 0.0, 1.0) * static_cast<double>(spec.labels.size());
        index = std::min(static_cast<size_t>(scaled), spec.labels.size() - 1);
      }
      categorical[k]->Append(spec.labels[index]);
    }
  }

  DataTable table;
  for (size_t j = 0; j < shape.numeric; ++j) {
    FORESIGHT_CHECK(table.AddColumn(NumericName(j), std::move(numeric[j])).ok());
  }
  for (size_t k = 0; k < shape.categorical; ++k) {
    FORESIGHT_CHECK(
        table.AddColumn(CategoricalName(k), std::move(categorical[k])).ok());
  }
  return table;
}

std::string AppendBody(const DataTable& rows, const std::string& dataset) {
  JsonValue doc = JsonValue::Object();
  if (!dataset.empty()) doc.Set("dataset", dataset);
  JsonValue array = JsonValue::Array();
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    JsonValue row = JsonValue::Array();
    for (size_t c = 0; c < rows.num_columns(); ++c) {
      const foresight::Column& column = rows.column(c);
      if (!column.is_valid(r)) {
        row.Append(JsonValue());
      } else if (column.type() == foresight::ColumnType::kNumeric) {
        row.Append(column.AsNumeric().value(r));
      } else {
        row.Append(column.AsCategorical().value(r));
      }
    }
    array.Append(std::move(row));
  }
  doc.Set("rows", std::move(array));
  return doc.Dump();
}

}  // namespace perfbench
