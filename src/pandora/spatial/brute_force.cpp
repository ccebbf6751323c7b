#include "pandora/spatial/brute_force.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "pandora/graph/mst.hpp"
#include "pandora/spatial/distance.hpp"

namespace pandora::spatial {

std::vector<Neighbor> brute_force_knn(const PointSet& points, index_t q, int k) {
  const index_t n = points.size();
  // One batched pass per dimension-blocked SoA block — this reference
  // implementation exercises the same kernels the kd-tree leaf scans use.
  const SoaStore soa(points.coords().data(), n, points.dim());
  const double* query = points.point(q).data();
  std::vector<double> sq(static_cast<std::size_t>(n));
  for (index_t b = 0; b < soa.num_blocks(); ++b)
    distance::batch_squared_distances(query, soa.block(b), points.dim(), soa.block_size(b),
                                      SoaStore::kLane, sq.data() + b * SoaStore::kLane);
  std::vector<Neighbor> all;
  all.reserve(static_cast<std::size_t>(n) - 1);
  for (index_t p = 0; p < n; ++p)
    if (p != q) all.push_back({sq[static_cast<std::size_t>(p)], p});
  std::sort(all.begin(), all.end());
  if (static_cast<int>(all.size()) > k) all.resize(static_cast<std::size_t>(k));
  return all;
}

namespace {

graph::EdgeList complete_graph_mst(const PointSet& points,
                                   const std::function<double(index_t, index_t)>& weight) {
  const index_t n = points.size();
  graph::EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) / 2);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i + 1; j < n; ++j) edges.push_back({i, j, weight(i, j)});
  return graph::kruskal_mst(edges, n);
}

}  // namespace

graph::EdgeList brute_force_emst(const PointSet& points) {
  return complete_graph_mst(points,
                            [&](index_t i, index_t j) { return points.distance(i, j); });
}

graph::EdgeList brute_force_mreach_mst(const PointSet& points,
                                       std::span<const double> core_distances) {
  return complete_graph_mst(points, [&](index_t i, index_t j) {
    return std::max({points.distance(i, j), core_distances[static_cast<std::size_t>(i)],
                     core_distances[static_cast<std::size_t>(j)]});
  });
}

}  // namespace pandora::spatial
