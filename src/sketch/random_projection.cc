#include "sketch/random_projection.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/random.h"

namespace foresight {

namespace {
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

void ProjectionSketch::Merge(const ProjectionSketch& other) {
  if (other.components_.empty()) return;
  if (components_.empty()) {
    *this = other;
    return;
  }
  FORESIGHT_CHECK(components_.size() == other.components_.size());
  for (size_t i = 0; i < components_.size(); ++i) {
    components_[i] += other.components_[i];
  }
}

double ProjectionSketch::EstimateSquaredNorm() const {
  double sum = 0.0;
  for (double c : components_) sum += c * c;
  return sum;
}

double ProjectionSketch::EstimateDot(const ProjectionSketch& a,
                                     const ProjectionSketch& b) {
  FORESIGHT_CHECK(a.k() == b.k());
  double sum = 0.0;
  for (size_t i = 0; i < a.k(); ++i) {
    sum += a.components_[i] * b.components_[i];
  }
  return sum;
}

double ProjectionSketch::EstimateCorrelation(const ProjectionSketch& a,
                                             const ProjectionSketch& b) {
  double na = a.EstimateSquaredNorm();
  double nb = b.EstimateSquaredNorm();
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  double rho = EstimateDot(a, b) / std::sqrt(na * nb);
  return std::clamp(rho, -1.0, 1.0);
}

ProjectionSketcher::ProjectionSketcher(size_t k, uint64_t seed)
    : k_(k), seed_(seed) {
  FORESIGHT_CHECK(k >= 1);
}

void ProjectionSketcher::GenerateRowComponents(size_t row,
                                               std::vector<double>& out) const {
  out.resize(k_);
  GenerateRowComponents(row, out.data());
}

void ProjectionSketcher::GenerateRowComponents(size_t row, double* out) const {
  Rng rng(SplitMix64(seed_ ^ (row * 0x5851f42d4c957f2dULL + 0x14057b7ef767814fULL)));
  rng.FillNormals(out, k_);
}

void ProjectionSketcher::AccumulateRange(const std::vector<double>& values,
                                         size_t row_offset, double mean,
                                         ProjectionSketch& sketch) const {
  if (sketch.k() == 0) sketch = ProjectionSketch(k_);
  FORESIGHT_CHECK(sketch.k() == k_);
  std::vector<double>& components = sketch.mutable_components();
  std::vector<double> row_components(k_);
  double scale = 1.0 / std::sqrt(static_cast<double>(k_));
  for (size_t r = 0; r < values.size(); ++r) {
    GenerateRowComponents(row_offset + r, row_components);
    double v = (values[r] - mean) * scale;
    for (size_t i = 0; i < k_; ++i) {
      components[i] += v * row_components[i];
    }
  }
}

ProjectionSketch ProjectionSketcher::Sketch(const std::vector<double>& values,
                                            double mean) const {
  ProjectionSketch sketch(k_);
  AccumulateRange(values, 0, mean, sketch);
  return sketch;
}

}  // namespace foresight
