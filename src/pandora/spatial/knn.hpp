#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "pandora/spatial/point_set.hpp"

namespace pandora::spatial {

/// Runs `tree.knn(p, k, list)` for every indexed point p and calls
/// `visit(p, list)` with its ascending list of min(k, n-1) neighbours.
/// Points go in `tree_order()`, 256 per `run_chunks` chunk: consecutive
/// queries walk the same nodes while they are cache-hot, and small chunks
/// balance uneven query costs across the workers.  `visit` runs
/// concurrently for distinct points.  The list is per-thread scratch, so a
/// warm pass allocates nothing.
template <class Visit>
void for_each_knn(const exec::Executor& exec, const KdTree& tree, int k, Visit&& visit) {
  constexpr index_t kQueriesPerChunk = 256;
  const index_t n = tree.size();
  const std::span<const index_t> order = tree.tree_order();
  const int num_chunks = static_cast<int>((n + kQueriesPerChunk - 1) / kQueriesPerChunk);
  auto body = [&](int chunk) {
    thread_local std::vector<Neighbor> list;
    const index_t lo = static_cast<index_t>(chunk) * kQueriesPerChunk;
    const index_t hi = std::min<index_t>(n, lo + kQueriesPerChunk);
    for (index_t i = lo; i < hi; ++i) {
      const index_t p = order[static_cast<std::size_t>(i)];
      tree.knn(p, k, list);
      visit(p, std::span<const Neighbor>(list));
    }
  };
  exec.run_chunks(num_chunks, exec.num_threads(), body);
}

/// Distance (not squared) from every point to its k-th nearest neighbour,
/// excluding the point itself.  k <= 0 yields zeros.  Parallel over points.
[[nodiscard]] std::vector<double> kth_neighbor_distances(const exec::Executor& exec,
                                                         const PointSet& points,
                                                         const KdTree& tree, int k);

}  // namespace pandora::spatial
