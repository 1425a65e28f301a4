// The per-column derived views that sketch queries read (DESIGN.md "Derived
// views") against test-local copies of the algorithms they replaced, compared
// bit for bit:
//   - KllSortedView quantiles and ranks vs a sort-and-scan of the sketch;
//   - radix-sorted midranks vs a comparison sort;
//   - general_dependence vs two-pass binned NMI over pairwise-complete
//     sampled rows, on a table with and without null sample slots;
//   - monotonic_relationship vs three-accumulator Pearson over NaN-filtered
//     sample midranks;
//   - top-k-first result assembly vs build-every-insight-then-select;
//   - views after AppendToProfile and LoadProfile vs a from-scratch build.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/insight_classes.h"
#include "core/profile.h"
#include "data/table.h"
#include "sketch/bundle.h"
#include "sketch/kll.h"
#include "stats/correlation.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace foresight {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameBits(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(b[i])) << what << " at " << i;
  }
}

// ---------------------------------------------------------------------------
// Oracles: the algorithms the views replaced, copied.

std::vector<std::pair<double, uint64_t>> SortedItems(const KllSketch& sketch) {
  std::vector<std::pair<double, uint64_t>> items;
  for (size_t l = 0; l < sketch.levels().size(); ++l) {
    for (double v : sketch.levels()[l]) items.emplace_back(v, uint64_t{1} << l);
  }
  std::sort(items.begin(), items.end());
  return items;
}

double ScanQuantile(const KllSketch& sketch, double q) {
  if (sketch.count() == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return sketch.min();
  if (q >= 1.0) return sketch.max();
  auto items = SortedItems(sketch);
  uint64_t total_weight = 0;
  for (const auto& [value, weight] : items) total_weight += weight;
  double target = q * static_cast<double>(total_weight);
  double cumulative = 0.0;
  for (const auto& [value, weight] : items) {
    cumulative += static_cast<double>(weight);
    if (cumulative >= target) return value;
  }
  return sketch.max();
}

double ScanRank(const KllSketch& sketch, double value) {
  if (sketch.count() == 0) return 0.0;
  uint64_t total_weight = 0;
  uint64_t below = 0;
  for (const auto& [item_value, weight] : SortedItems(sketch)) {
    total_weight += weight;
    if (item_value <= value) below += weight;
  }
  if (total_weight == 0) return 0.0;
  return static_cast<double>(below) / static_cast<double>(total_weight);
}

std::vector<double> ComparisonSortRanks(const std::vector<double>& values) {
  size_t n = values.size();
  std::vector<std::pair<double, size_t>> order;
  for (size_t i = 0; i < n; ++i) order.emplace_back(values[i], i);
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<double> ranks(n);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && order[j + 1].first == order[i].first) ++j;
    double avg_rank =
        (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k].second] = avg_rank;
    i = j + 1;
  }
  return ranks;
}

std::vector<size_t> OracleBins(const std::vector<double>& values,
                               size_t bins) {
  std::vector<size_t> ids(values.size(), 0);
  if (values.empty()) return ids;
  auto [min_it, max_it] = std::minmax_element(values.begin(), values.end());
  double lo = *min_it, hi = *max_it;
  if (lo == hi) return ids;
  double width = (hi - lo) / static_cast<double>(bins);
  for (size_t i = 0; i < values.size(); ++i) {
    size_t bin = static_cast<size_t>((values[i] - lo) / width);
    ids[i] = std::min(bin, bins - 1);
  }
  return ids;
}

double OracleEntropy(const std::vector<double>& counts, double total) {
  double h = 0.0;
  for (double c : counts) {
    if (c > 0.0) {
      double p = c / total;
      h -= p * std::log(p);
    }
  }
  return h;
}

double OracleMutualInformation(const std::vector<double>& x,
                               const std::vector<double>& y, size_t bins) {
  size_t n = x.size();
  if (n < 2) return 0.0;
  std::vector<size_t> bx = OracleBins(x, bins);
  std::vector<size_t> by = OracleBins(y, bins);
  std::vector<double> joint(bins * bins, 0.0);
  std::vector<double> mx(bins, 0.0), my(bins, 0.0);
  for (size_t i = 0; i < n; ++i) {
    joint[bx[i] * bins + by[i]] += 1.0;
    mx[bx[i]] += 1.0;
    my[by[i]] += 1.0;
  }
  double total = static_cast<double>(n);
  double mi = 0.0;
  for (size_t a = 0; a < bins; ++a) {
    if (mx[a] == 0.0) continue;
    for (size_t b = 0; b < bins; ++b) {
      double c = joint[a * bins + b];
      if (c == 0.0 || my[b] == 0.0) continue;
      double pxy = c / total;
      mi += pxy * std::log(pxy * total * total / (mx[a] * my[b]));
    }
  }
  return std::max(0.0, mi);
}

double OracleNmi(const std::vector<double>& x, const std::vector<double>& y) {
  constexpr size_t kBins = 16;
  size_t n = x.size();
  if (n < 2) return 0.0;
  std::vector<size_t> bx = OracleBins(x, kBins);
  std::vector<size_t> by = OracleBins(y, kBins);
  std::vector<double> mx(kBins, 0.0), my(kBins, 0.0);
  for (size_t i = 0; i < n; ++i) {
    mx[bx[i]] += 1.0;
    my[by[i]] += 1.0;
  }
  double total = static_cast<double>(n);
  double hx = OracleEntropy(mx, total);
  double hy = OracleEntropy(my, total);
  if (hx <= 0.0 || hy <= 0.0) return 0.0;
  double mi = OracleMutualInformation(x, y, kBins);
  return std::clamp(mi / std::sqrt(hx * hy), 0.0, 1.0);
}

double OraclePearson(const std::vector<double>& x,
                     const std::vector<double>& y) {
  size_t n = x.size();
  if (n < 2) return 0.0;
  double mean_x =
      std::accumulate(x.begin(), x.end(), 0.0) / static_cast<double>(n);
  double mean_y =
      std::accumulate(y.begin(), y.end(), 0.0) / static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double dx = x[i] - mean_x;
    double dy = y[i] - mean_y;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return std::clamp(sxy / std::sqrt(sxx * syy), -1.0, 1.0);
}

/// Rows where neither vector holds NaN, as pairs.
std::pair<std::vector<double>, std::vector<double>> PairwiseComplete(
    const std::vector<double>& a, const std::vector<double>& b) {
  std::pair<std::vector<double>, std::vector<double>> out;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!std::isnan(a[i]) && !std::isnan(b[i])) {
      out.first.push_back(a[i]);
      out.second.push_back(b[i]);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fixtures.

/// A stream with heavy ties, signed zeros and a long tail.
std::vector<double> TiedStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) {
    double v = std::round(rng.Normal() * 4.0) / 2.0;
    if (v == 0.0 && i % 2 == 1) v = -0.0;
    if (i % 97 == 0) v = rng.Normal() * 1e3;
    values[i] = v;
  }
  return values;
}

/// A grid of q: regular steps, the quartiles, and every exact cumulative
/// weight boundary of `sketch` with its two neighbours.
std::vector<double> QuantileGrid(const KllSketch& sketch) {
  std::vector<double> grid = {-1.0, 0.0, 1e-12, 0.25, 0.5, 0.75,
                              1.0 - 1e-12, 1.0, 2.0,
                              std::numeric_limits<double>::quiet_NaN()};
  for (int i = 1; i < 100; ++i) grid.push_back(i / 100.0);
  const KllSortedView view = sketch.SortedView();
  const double total = view.cumulative_weights().empty()
                           ? 1.0
                           : view.cumulative_weights().back();
  for (double c : view.cumulative_weights()) {
    const double q = c / total;
    grid.push_back(q);
    grid.push_back(std::nextafter(q, 0.0));
    grid.push_back(std::nextafter(q, 1.0));
  }
  return grid;
}

void ExpectViewMatchesScan(const KllSketch& sketch, const KllSortedView& view,
                           const std::string& what) {
  for (double q : QuantileGrid(sketch)) {
    ASSERT_EQ(Bits(view.Quantile(q)), Bits(ScanQuantile(sketch, q)))
        << what << " q=" << q;
    ASSERT_EQ(Bits(sketch.Quantile(q)), Bits(ScanQuantile(sketch, q)))
        << what << " q=" << q;
  }
  std::vector<double> probes = {-1e9, -0.0, 0.0, 0.5, 1e9,
                                std::numeric_limits<double>::quiet_NaN()};
  for (const auto& [value, weight] : SortedItems(sketch)) {
    probes.push_back(value);
    probes.push_back(std::nextafter(value, -1e300));
  }
  for (double v : probes) {
    ASSERT_EQ(Bits(view.Rank(v)), Bits(ScanRank(sketch, v)))
        << what << " value=" << v;
    ASSERT_EQ(Bits(sketch.Rank(v)), Bits(ScanRank(sketch, v)))
        << what << " value=" << v;
  }
}

TEST(KllSortedViewTest, QuantileAndRankMatchSortAndScan) {
  // 64 unit-weight items: every boundary q = i/64 is exact.
  KllSketch small(200, 3);
  for (double v : TiedStream(64, 1)) small.Update(v);
  ExpectViewMatchesScan(small, small.SortedView(), "small");

  KllSketch empty(200, 3);
  ExpectViewMatchesScan(empty, empty.SortedView(), "empty");

  // Compacted: several levels, weights up to 2^h.
  KllSketch updated(100, 5);
  for (double v : TiedStream(50000, 2)) updated.Update(v);
  ASSERT_GT(updated.levels().size(), 3u);
  ExpectViewMatchesScan(updated, updated.SortedView(), "updated");

  // Merged across accuracies, and adopted into an empty receiver.
  KllSketch merged(200, 9);
  for (double v : TiedStream(20000, 3)) merged.Update(v);
  merged.Merge(updated);
  ExpectViewMatchesScan(merged, merged.SortedView(), "merged");
  KllSketch adopted(100, 11);
  adopted.Merge(updated);
  ExpectViewMatchesScan(adopted, adopted.SortedView(), "adopted");

  // Rebuilt from raw state, then finalized as a profile load does.
  const BundleBuilder builder(SketchConfig{}, 1000);
  NumericColumnSketch column = builder.MakeNumericSketch();
  column.quantiles = KllSketch::FromRaw(
      merged.k_param(), merged.rng_state(), merged.count(), merged.min(),
      merged.max(), merged.levels());
  builder.FinalizeNumeric(column);
  ExpectViewMatchesScan(column.quantiles, column.quantile_view, "from_raw");
}

TEST(KllSortedViewTest, MergeClearsTheViewAndFinalizeRebuildsIt) {
  const BundleBuilder builder(SketchConfig{}, 1000);
  NumericColumnSketch a = builder.MakeNumericSketch();
  NumericColumnSketch b = builder.MakeNumericSketch();
  for (double v : TiedStream(3000, 4)) a.quantiles.Update(v);
  for (double v : TiedStream(3000, 5)) b.quantiles.Update(v);
  a.moments.Add(1.0);
  b.moments.Add(2.0);
  builder.FinalizeNumeric(a);
  ASSERT_FALSE(a.quantile_view.values().empty());
  a.Merge(b);
  EXPECT_TRUE(a.quantile_view.values().empty());
  builder.FinalizeNumeric(a);
  ExpectViewMatchesScan(a.quantiles, a.quantile_view, "merged column");
}

TEST(FractionalRanksTest, RadixSortMatchesComparisonSort) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> cases = {
      {},
      {7.0},
      {2.0, 1.0},
      {0.0, -0.0, 0.0, -0.0},
      {-0.0, 1.0, 0.0, -1.0, -0.0},
      {denorm, -denorm, 0.0, -0.0, 2 * denorm, -3 * denorm, denorm},
      {inf, -inf, 0.0, inf, -inf, 1e308, -1e308,
       std::numeric_limits<double>::max(),
       std::numeric_limits<double>::lowest()},
      std::vector<double>(300, 4.5),
  };
  std::vector<double> ascending(5000), descending(5000);
  for (size_t i = 0; i < 5000; ++i) {
    ascending[i] = static_cast<double>(i) * 0.5;
    descending[i] = -ascending[i];
  }
  cases.push_back(ascending);
  cases.push_back(descending);
  cases.push_back(TiedStream(2048, 6));
  Rng rng(7);
  std::vector<double> normal(100000);
  for (double& v : normal) v = rng.Normal();
  cases.push_back(normal);
  std::vector<double> mixed = TiedStream(4096, 8);
  for (size_t i = 0; i < mixed.size(); i += 31) {
    mixed[i] = (i % 2 == 0 ? 1.0 : -1.0) * (i % 3 == 0 ? inf : denorm);
  }
  cases.push_back(mixed);
  for (size_t c = 0; c < cases.size(); ++c) {
    ExpectSameBits(FractionalRanks(cases[c]), ComparisonSortRanks(cases[c]),
                   "case " + std::to_string(c));
  }
}

/// 3000 rows (the 2048-row sample is a strict subset) of dense, tied,
/// constant, null-bearing and all-null numeric columns plus a categorical.
DataTable MakeViewTable(size_t rows) {
  DataTable table;
  Rng rng(21);
  std::vector<double> a(rows), b(rows), tied(rows), skewed(rows);
  for (size_t i = 0; i < rows; ++i) {
    a[i] = rng.Normal();
    b[i] = 0.7 * a[i] + 0.3 * rng.Normal();
    tied[i] = std::round(a[i] * 2.0) / 2.0;
    if (tied[i] == 0.0 && i % 2 == 0) tied[i] = -0.0;
    skewed[i] = std::exp(b[i]) + (i % 113 == 0 ? 40.0 : 0.0);
  }
  EXPECT_TRUE(table.AddNumericColumn("a", a).ok());
  EXPECT_TRUE(table.AddNumericColumn("b", b).ok());
  EXPECT_TRUE(table.AddNumericColumn("tied", tied).ok());
  EXPECT_TRUE(table.AddNumericColumn("skewed", skewed).ok());
  EXPECT_TRUE(
      table.AddNumericColumn("constant", std::vector<double>(rows, 3.25))
          .ok());
  auto sparse = std::make_unique<NumericColumn>();
  auto tail_null = std::make_unique<NumericColumn>();
  auto all_null = std::make_unique<NumericColumn>();
  for (size_t i = 0; i < rows; ++i) {
    if (i % 7 == 0) {
      sparse->AppendNull();
    } else {
      sparse->Append(a[i] * a[i] + static_cast<double>(i % 5));
    }
    if (i < rows - 400) {
      tail_null->Append(b[i] - a[i]);
    } else {
      tail_null->AppendNull();
    }
    all_null->AppendNull();
  }
  EXPECT_TRUE(table.AddColumn("sparse", std::move(sparse)).ok());
  EXPECT_TRUE(table.AddColumn("tail_null", std::move(tail_null)).ok());
  EXPECT_TRUE(table.AddColumn("all_null", std::move(all_null)).ok());
  std::vector<std::string> labels(rows);
  for (size_t i = 0; i < rows; ++i) labels[i] = "g" + std::to_string(i % 5);
  EXPECT_TRUE(table.AddCategoricalColumn("cat", labels).ok());
  return table;
}

/// Asserts the table exercises both estimator paths: some pairs have two
/// null-free sample columns, others a null slot on one side.
void ExpectBothPaths(const TableProfile& profile) {
  size_t dense = 0, with_nulls = 0;
  for (size_t c : profile.table().NumericColumnIndices()) {
    (profile.sample(c).dense ? dense : with_nulls) += 1;
  }
  EXPECT_GE(dense, 2u);
  EXPECT_GE(with_nulls, 2u);
}

TEST(DerivedViewOracleTest, GeneralDependenceMatchesTwoPassNmi) {
  const DataTable table = MakeViewTable(3000);
  ThreadPool pool(4);
  auto profile = Preprocessor::Profile(table, {}, &pool);
  ASSERT_TRUE(profile.ok()) << profile.status();
  ExpectBothPaths(*profile);
  auto dependence = MakeGeneralDependenceClass();
  for (const AttributeTuple& tuple : dependence->EnumerateCandidates(table)) {
    auto [x, y] =
        PairwiseComplete(profile->sampled_numeric(tuple.indices[0]),
                         profile->sampled_numeric(tuple.indices[1]));
    auto served = dependence->EvaluateSketch(*profile, tuple,
                                             "normalized_mutual_information");
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(Bits(*served), Bits(OracleNmi(x, y)))
        << tuple.indices[0] << "," << tuple.indices[1];
  }
}

TEST(DerivedViewOracleTest, MonotonicRelationshipMatchesFilteredPearson) {
  const DataTable table = MakeViewTable(3000);
  auto profile = Preprocessor::Profile(table);
  ASSERT_TRUE(profile.ok()) << profile.status();
  ExpectBothPaths(*profile);
  // The sample midranks themselves match a comparison sort of the non-null
  // sample values.
  for (size_t c : table.NumericColumnIndices()) {
    const std::vector<double>& values = profile->sampled_numeric(c);
    std::vector<double> present;
    for (double v : values) {
      if (!std::isnan(v)) present.push_back(v);
    }
    std::vector<double> present_ranks;
    for (double r : profile->sampled_ranks(c)) {
      if (!std::isnan(r)) present_ranks.push_back(r);
    }
    ExpectSameBits(present_ranks, ComparisonSortRanks(present),
                   table.column_name(c));
  }
  auto monotonic = MakeMonotonicRelationshipClass();
  for (const AttributeTuple& tuple : monotonic->EnumerateCandidates(table)) {
    auto [x, y] = PairwiseComplete(profile->sampled_ranks(tuple.indices[0]),
                                   profile->sampled_ranks(tuple.indices[1]));
    auto served = monotonic->EvaluateSketch(*profile, tuple, "spearman");
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(Bits(*served), Bits(OraclePearson(x, y)))
        << tuple.indices[0] << "," << tuple.indices[1];
  }
}

/// Every numeric column's quantile view, and every column's sample views,
/// bit-equal between two profiles of the same table.
void ExpectSameViews(const TableProfile& a, const TableProfile& b) {
  const DataTable& table = a.table();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const std::string name = table.column_name(c);
    const ColumnSample& sa = a.sample(c);
    const ColumnSample& sb = b.sample(c);
    ExpectSameBits(sa.values, sb.values, name + " values");
    ExpectSameBits(sa.ranks, sb.ranks, name + " ranks");
    EXPECT_EQ(sa.codes, sb.codes) << name;
    EXPECT_EQ(sa.dense, sb.dense) << name;
    EXPECT_EQ(sa.bins.ids, sb.bins.ids) << name;
    ExpectSameBits(sa.bins.counts, sb.bins.counts, name + " bin counts");
    EXPECT_EQ(Bits(sa.bins.entropy), Bits(sb.bins.entropy)) << name;
    EXPECT_EQ(Bits(sa.rank_moments.mean), Bits(sb.rank_moments.mean)) << name;
    EXPECT_EQ(Bits(sa.rank_moments.sum_squares),
              Bits(sb.rank_moments.sum_squares))
        << name;
    if (table.column(c).type() != ColumnType::kNumeric) continue;
    const NumericColumnSketch& ka = a.numeric_sketch(c);
    const NumericColumnSketch& kb = b.numeric_sketch(c);
    EXPECT_EQ(ka.quantile_view.values().size(), ka.quantiles.RetainedItems())
        << name << " view not finalized";
    ExpectSameBits(ka.quantile_view.values(), kb.quantile_view.values(),
                   name + " quantile values");
    ExpectSameBits(ka.quantile_view.cumulative_weights(),
                   kb.quantile_view.cumulative_weights(),
                   name + " cumulative weights");
  }
}

/// The sketch values the views serve, for every candidate of the three
/// classes that read them, bit-equal between two profiles.
void ExpectSameSketchValues(const TableProfile& a, const TableProfile& b) {
  const std::pair<std::unique_ptr<InsightClass>, std::string> classes[] = {
      {MakeOutliersClass("iqr"), "mean_standardized_distance"},
      {MakeGeneralDependenceClass(), "normalized_mutual_information"},
      {MakeMonotonicRelationshipClass(), "spearman"}};
  for (const auto& [cls, metric] : classes) {
    for (const AttributeTuple& tuple : cls->EnumerateCandidates(a.table())) {
      auto va = cls->EvaluateSketch(a, tuple, metric);
      auto vb = cls->EvaluateSketch(b, tuple, metric);
      ASSERT_TRUE(va.ok() && vb.ok());
      EXPECT_EQ(Bits(*va), Bits(*vb)) << cls->name();
    }
  }
}

/// Rows [begin, end) of `table` as a table of their own.
DataTable SliceRows(const DataTable& table, size_t begin, size_t end) {
  DataTable out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    std::unique_ptr<Column> slice;
    if (column.type() == ColumnType::kNumeric) {
      auto numeric = std::make_unique<NumericColumn>();
      for (size_t i = begin; i < end; ++i) {
        if (column.AsNumeric().is_valid(i)) {
          numeric->Append(column.AsNumeric().value(i));
        } else {
          numeric->AppendNull();
        }
      }
      slice = std::move(numeric);
    } else {
      auto categorical = std::make_unique<CategoricalColumn>();
      for (size_t i = begin; i < end; ++i) {
        categorical->Append(column.AsCategorical().value(i));
      }
      slice = std::move(categorical);
    }
    EXPECT_TRUE(out.AddColumn(table.column_name(c), std::move(slice)).ok());
  }
  return out;
}

TEST(DerivedViewOracleTest, AppendAndLoadMatchFromScratchBuild) {
  const DataTable full = MakeViewTable(3000);
  const std::vector<size_t> history = {2500, 2800, 3000};
  DataTable table = SliceRows(full, 0, history[0]);
  ThreadPool pool(4);
  PreprocessOptions options;
  // A fixed width: the auto-resolved one changes across these row counts.
  options.sketch.hyperplane_bits = 128;
  auto grown = Preprocessor::Profile(table, options, &pool);
  ASSERT_TRUE(grown.ok()) << grown.status();
  for (size_t step = 1; step < history.size(); ++step) {
    const DataTable delta = SliceRows(full, history[step - 1], history[step]);
    ASSERT_TRUE(table.AppendRows(delta).ok());
    Status appended = Preprocessor::AppendToProfile(
        table, history[step - 1], options, &*grown, &pool);
    ASSERT_TRUE(appended.ok()) << appended.ToString();
  }

  PreprocessOptions rebuild = options;
  rebuild.partition_boundaries = history;
  auto rebuilt = Preprocessor::Profile(table, rebuild);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ExpectBothPaths(*rebuilt);
  ExpectSameViews(*grown, *rebuilt);
  ExpectSameSketchValues(*grown, *rebuilt);

  auto loaded = Preprocessor::LoadProfile(table, grown->ToJson(), &pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameViews(*loaded, *rebuilt);
  ExpectSameSketchValues(*loaded, *rebuilt);
}

// ---------------------------------------------------------------------------
// Result assembly.

/// 120 rows with duplicated columns (tied scores) and constant columns
/// (NaN-valued metrics, excluded from ranking).
DataTable MakeAssemblyTable() {
  const size_t rows = 120;
  DataTable table;
  Rng rng(33);
  std::vector<double> x(rows), y(rows), z(rows);
  std::vector<std::string> group(rows), other(rows);
  for (size_t i = 0; i < rows; ++i) {
    x[i] = rng.Normal();
    y[i] = x[i] * x[i] + 0.2 * rng.Normal();
    z[i] = i % 10 == 0 ? 9.0 : rng.Normal();
    group[i] = "g" + std::to_string(i % 3);
    other[i] = x[i] > 0 ? "hi" : "lo";
  }
  EXPECT_TRUE(table.AddNumericColumn("x", x).ok());
  EXPECT_TRUE(table.AddNumericColumn("x_copy", x).ok());
  EXPECT_TRUE(table.AddNumericColumn("y", y).ok());
  EXPECT_TRUE(table.AddNumericColumn("z", z).ok());
  EXPECT_TRUE(table.AddNumericColumn("z_copy", z).ok());
  EXPECT_TRUE(
      table.AddNumericColumn("flat", std::vector<double>(rows, 1.5)).ok());
  EXPECT_TRUE(
      table.AddNumericColumn("flat_copy", std::vector<double>(rows, 1.5)).ok());
  EXPECT_TRUE(table.AddCategoricalColumn("group", group).ok());
  EXPECT_TRUE(table.AddCategoricalColumn("group_copy", group).ok());
  EXPECT_TRUE(table.AddCategoricalColumn("other", other).ok());
  EXPECT_TRUE(table.AddCategoricalColumn(
                       "single", std::vector<std::string>(rows, "only"))
                  .ok());
  return table;
}

/// Builds an Insight for every candidate, then filters and keeps the top k:
/// the assembly the engine replaced.
std::vector<Insight> BuildAllThenSelect(const InsightEngine& engine,
                                        const InsightQuery& query,
                                        size_t* undefined) {
  const DataTable& table = engine.table();
  const InsightClass& cls = *engine.registry().Find(query.class_name);
  const std::string& metric = query.metric;
  const bool sketch =
      query.mode == ExecutionMode::kSketch && cls.SupportsSketch();
  std::vector<Insight> all;
  for (const AttributeTuple& tuple : cls.EnumerateCandidates(table)) {
    StatusOr<double> raw = sketch
                               ? cls.EvaluateSketch(engine.profile(), tuple,
                                                    metric)
                               : cls.EvaluateExact(table, tuple, metric);
    EXPECT_TRUE(raw.ok()) << raw.status();
    if (!std::isfinite(*raw)) {
      ++*undefined;
      continue;
    }
    Insight insight;
    insight.class_name = cls.name();
    insight.metric_name = metric;
    insight.attributes = tuple;
    for (size_t index : tuple.indices) {
      insight.attribute_names.push_back(table.column_name(index));
    }
    insight.raw_value = *raw;
    insight.score = cls.Score(*raw);
    insight.provenance = sketch ? Provenance::kSketch : Provenance::kExact;
    insight.description = cls.Describe(insight);
    if (query.min_score.has_value() && insight.score < *query.min_score) {
      continue;
    }
    if (query.max_score.has_value() && insight.score > *query.max_score) {
      continue;
    }
    all.push_back(std::move(insight));
  }
  std::sort(all.begin(), all.end(), [](const Insight& a, const Insight& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.attributes.indices < b.attributes.indices;
  });
  if (all.size() > query.top_k) all.resize(query.top_k);
  return all;
}

TEST(DerivedViewOracleTest, TopKFirstAssemblyMatchesBuildAllThenSelect) {
  const DataTable table = MakeAssemblyTable();
  EngineOptions options;
  options.num_workers = 3;
  auto engine = InsightEngine::Create(table, std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status();
  // Every class and metric, in both modes, at several k and score ranges.
  std::vector<InsightQuery> queries;
  const std::optional<double> none;
  for (const std::string& name : engine->registry().names()) {
    for (const std::string& metric :
         engine->registry().Find(name)->metric_names()) {
      for (ExecutionMode mode :
           {ExecutionMode::kSketch, ExecutionMode::kExact}) {
        for (size_t top_k : {size_t{0}, size_t{1}, size_t{3}, size_t{1000}}) {
          for (const auto& [lo, hi] :
               {std::pair{none, none}, std::pair{std::optional(0.2), none},
                std::pair{none, std::optional(0.6)},
                std::pair{std::optional(0.1), std::optional(0.5)}}) {
            InsightQuery query;
            query.class_name = name;
            query.metric = metric;
            query.mode = mode;
            query.top_k = top_k;
            query.min_score = lo;
            query.max_score = hi;
            queries.push_back(std::move(query));
          }
        }
      }
    }
  }
  size_t undefined_seen = 0;
  size_t ties_seen = 0;
  for (const InsightQuery& query : queries) {
    SCOPED_TRACE(query.class_name + "/" + query.metric +
                 " k=" + std::to_string(query.top_k));
    auto served = engine->Execute(query);
    ASSERT_TRUE(served.ok()) << served.status();
    size_t undefined = 0;
    const std::vector<Insight> expected =
        BuildAllThenSelect(*engine, query, &undefined);
    EXPECT_EQ(served->undefined_excluded, undefined);
    undefined_seen += undefined;
    ASSERT_EQ(served->insights.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      const Insight& got = served->insights[i];
      const Insight& want = expected[i];
      EXPECT_EQ(got.class_name, want.class_name);
      EXPECT_EQ(got.metric_name, want.metric_name);
      EXPECT_EQ(got.attributes.indices, want.attributes.indices) << i;
      EXPECT_EQ(got.attribute_names, want.attribute_names);
      EXPECT_EQ(Bits(got.score), Bits(want.score)) << i;
      EXPECT_EQ(Bits(got.raw_value), Bits(want.raw_value)) << i;
      EXPECT_EQ(got.provenance, want.provenance);
      EXPECT_EQ(got.description, want.description);
      if (i > 0 && got.score == served->insights[i - 1].score) ++ties_seen;
    }
    EXPECT_EQ(served->insights.capacity(), served->insights.size());
  }
  EXPECT_GT(undefined_seen, 0u);
  EXPECT_GT(ties_seen, 0u);
}

}  // namespace
}  // namespace foresight
