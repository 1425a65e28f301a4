#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/table.h"

namespace perfbench {

/// splitmix64. The benchmark owns its generator so that a change to the
/// program's own generators or random utilities cannot change a workload.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Uniform() * n); }
  /// Standard normal (Box-Muller).
  double Normal();

 private:
  uint64_t state_;
};

/// An independent stream for (seed, a, b): request streams use (seed,
/// connection, request index), table rows use (seed, row).
uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// Column counts of a generated table. Numeric columns come first, named
/// n0..n{numeric-1}, then categorical c0..c{categorical-1}.
struct TableShape {
  size_t numeric = 0;
  size_t categorical = 0;
};

/// Rows [begin, end) of the seeded table. Numeric columns form correlated
/// blocks of six (one latent factor, loadings from strong to none) whose
/// later columns are skewed, bimodal or outlier-laden; one column in 45
/// holds about 4% nulls. Categoricals are Zipf-skewed or track a block's
/// latent factor, and every third one holds about 2% nulls. Row r depends
/// only on (seed, r), so an appended batch is just a later row range.
foresight::DataTable GenerateRows(uint64_t seed, const TableShape& shape,
                                  size_t begin, size_t end);

std::string NumericName(size_t j);
std::string CategoricalName(size_t k);

/// Cumulative Zipf(s) weights over ranks 1..n (last == 1), and the rank a
/// uniform draw `u` picks from them (0-based).
std::vector<double> ZipfCdf(size_t n, double s);
size_t ZipfPick(const std::vector<double>& cdf, double u);

/// The /v1/append body for `rows`: {"dataset"?: id, "rows": [[cell...]...]}.
std::string AppendBody(const foresight::DataTable& rows,
                       const std::string& dataset);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
