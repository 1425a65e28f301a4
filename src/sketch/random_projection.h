#ifndef FORESIGHT_SKETCH_RANDOM_PROJECTION_H_
#define FORESIGHT_SKETCH_RANDOM_PROJECTION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace foresight {

/// Johnson–Lindenstrauss random projection sketch — the paper's "random
/// projection sketch" (§3). Each n-dimensional column b is mapped to
/// y = R b / sqrt(k) with Gaussian R shared across columns (deterministic per
/// (seed, row)), preserving inner products and Euclidean norms in expectation:
///   E[<y_a, y_b>] = <a, b>,  E[||y||^2] = ||b||^2.
/// Projections over disjoint row ranges merge by vector addition
/// (composability, §3). Complements the hyperplane sketch: hyperplanes give
/// correlation *signs/angles* in O(k) bits, projections give magnitudes.
class ProjectionSketch {
 public:
  ProjectionSketch() = default;
  explicit ProjectionSketch(size_t k) : components_(k, 0.0) {}

  size_t k() const { return components_.size(); }
  const std::vector<double>& components() const { return components_; }
  std::vector<double>& mutable_components() { return components_; }

  /// Adds a projection over a disjoint row range.
  void Merge(const ProjectionSketch& other);

  /// Estimated squared Euclidean norm of the original column.
  double EstimateSquaredNorm() const;

  /// Estimated inner product of the original columns.
  static double EstimateDot(const ProjectionSketch& a,
                            const ProjectionSketch& b);

  /// Estimated Pearson correlation from projections of the *centered*
  /// columns: <a~, b~> / (||a~|| * ||b~||). An alternative rho estimator to
  /// the hyperplane sketch, with magnitude information retained.
  static double EstimateCorrelation(const ProjectionSketch& a,
                                    const ProjectionSketch& b);

 private:
  std::vector<double> components_;
};

/// Factory generating the shared Gaussian projection matrix rows on demand.
class ProjectionSketcher {
 public:
  ProjectionSketcher(size_t k, uint64_t seed);

  size_t k() const { return k_; }

  /// Accumulates rows [row_offset, row_offset + values.size()). Subtracts
  /// `mean` from every value so the projection is of the centered column
  /// (pass 0 for raw columns). O(values.size() * k).
  void AccumulateRange(const std::vector<double>& values, size_t row_offset,
                       double mean, ProjectionSketch& sketch) const;

  /// One-shot convenience over a whole column.
  ProjectionSketch Sketch(const std::vector<double>& values,
                          double mean = 0.0) const;

  /// Gaussian projection components for one absolute row (size k); shared
  /// across all columns sketched with the same (k, seed).
  void GenerateRowComponents(size_t row, std::vector<double>& out) const;

  /// Same, writing into a raw buffer of k doubles (panel materialization).
  /// BundleBuilder folds the cached panels into sketches through
  /// sketch/ingest_kernels.h.
  void GenerateRowComponents(size_t row, double* out) const;

 private:
  size_t k_;
  uint64_t seed_;
};

}  // namespace foresight

#endif  // FORESIGHT_SKETCH_RANDOM_PROJECTION_H_
