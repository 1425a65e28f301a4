#ifndef FORESIGHT_STATS_CLUSTERING_H_
#define FORESIGHT_STATS_CLUSTERING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace foresight {

/// 2-D point, the domain of the segmentation insight ("a strong clustering of
/// (x, y)-values according to z-values", §1).
struct Point2 {
  double x = 0.0;
  double y = 0.0;
};

/// Fraction of total (x, y) variance explained by the grouping (a 2-D
/// between/total sum-of-squares ratio), in [0, 1]. This is the segmentation
/// insight's ranking metric: 1 means groups are perfectly separated point
/// masses, 0 means group means coincide. Rows with negative labels skipped.
double SegmentationScore(const std::vector<Point2>& points,
                         const std::vector<int32_t>& labels);

/// Calinski–Harabasz index (between-group dispersion over within-group
/// dispersion, scaled by dof); larger is more separated. Unbounded; exposed
/// as a secondary metric.
double CalinskiHarabasz(const std::vector<Point2>& points,
                        const std::vector<int32_t>& labels);

}  // namespace foresight

#endif  // FORESIGHT_STATS_CLUSTERING_H_
