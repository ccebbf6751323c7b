#include "pandora/spatial/knn.hpp"

#include <cmath>

namespace pandora::spatial {

std::vector<double> kth_neighbor_distances(const exec::Executor& exec, const PointSet& points,
                                           const KdTree& tree, int k) {
  const index_t n = points.size();
  std::vector<double> result(static_cast<std::size_t>(n), 0.0);
  if (k <= 0 || n <= 1) return result;
  for_each_knn(exec, tree, k, [&](index_t p, std::span<const Neighbor> list) {
    result[static_cast<std::size_t>(p)] = std::sqrt(list.back().squared_distance);
  });
  return result;
}

}  // namespace pandora::spatial
