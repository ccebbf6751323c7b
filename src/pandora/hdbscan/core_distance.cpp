#include "pandora/hdbscan/core_distance.hpp"

#include <algorithm>
#include <cmath>

#include "pandora/common/expect.hpp"
#include "pandora/exec/fingerprint.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/spatial/knn.hpp"

namespace pandora::hdbscan {

std::vector<double> core_distances(const exec::Executor& exec, const spatial::PointSet& points,
                                   const spatial::KdTree& tree, int min_pts) {
  PANDORA_EXPECT(min_pts >= 1, "minPts must be at least 1");
  return spatial::kth_neighbor_distances(exec, points, tree, min_pts - 1);
}

CoreDistances core_distances_with_seeds(const exec::Executor& exec,
                                        const spatial::PointSet& points,
                                        const spatial::KdTree& tree, int min_pts) {
  PANDORA_EXPECT(min_pts >= 1, "minPts must be at least 1");
  const index_t n = points.size();
  const int k = min_pts - 1;
  CoreDistances core;
  core.values.assign(static_cast<std::size_t>(n), 0.0);
  core.round1_seed.assign(static_cast<std::size_t>(n), kNone);
  if (k == 0 || n <= 1) return core;

  // Each list holds min(k + 1, n - 1) neighbours; the core distance is the
  // min(k, n - 1)-th, as in `kth_neighbor_distances`.  c_p = core * core is
  // exactly the expression the MST squares core distances with, so a seeded
  // score is bit-identical to the one the round-1 query would return.  Of
  // each list only the ids that can score c_p are kept: the first k with
  // d² <= c_p, and none unless the (k+1)-th lies strictly beyond c_p.
  const int listed = static_cast<int>(std::min<index_t>(k + 1, n - 1));
  const int kth = static_cast<int>(std::min<index_t>(k, n - 1)) - 1;
  auto candidates_lease = exec.workspace().take_uninit<index_t>(static_cast<size_type>(n) * k);
  const std::span<index_t> candidates = candidates_lease.span();
  const auto candidates_of = [&](index_t p) {
    return candidates.subspan(static_cast<std::size_t>(p) * static_cast<std::size_t>(k),
                              static_cast<std::size_t>(k));
  };
  const auto squared_core = [&](index_t x) {
    return core.values[static_cast<std::size_t>(x)] * core.values[static_cast<std::size_t>(x)];
  };
  spatial::for_each_knn(exec, tree, listed, [&](index_t p, std::span<const spatial::Neighbor> list) {
    core.values[static_cast<std::size_t>(p)] =
        std::sqrt(list[static_cast<std::size_t>(kth)].squared_distance);
    const double c_p = squared_core(p);
    const std::span<index_t> mine = candidates_of(p);
    std::fill(mine.begin(), mine.end(), kNone);
    if (listed <= k || !(list[static_cast<std::size_t>(k)].squared_distance > c_p)) return;
    for (int t = 0; t < k; ++t) {
      const spatial::Neighbor& nb = list[static_cast<std::size_t>(t)];
      if (nb.squared_distance <= c_p) mine[static_cast<std::size_t>(t)] = nb.index;
    }
  });
  if (listed <= k) return core;  // a short list (n - 1 <= k) certifies nothing

  // The seed needs every candidate's core distance, so it waits for the pass.
  exec::parallel_for(exec, n, [&](size_type pi) {
    const auto p = static_cast<index_t>(pi);
    const double c_p = squared_core(p);
    index_t seed = kNone;
    for (const index_t q : candidates_of(p))
      if (q != kNone && squared_core(q) <= c_p && (seed == kNone || q < seed)) seed = q;
    core.round1_seed[static_cast<std::size_t>(pi)] = seed;
  });
  return core;
}

namespace {

/// A core-distance artifact as stored in the Executor's ArtifactCache.
struct CachedCoreDistances {
  CoreDistances core;
  const spatial::PointSet* points = nullptr;
};

}  // namespace

std::shared_ptr<const CoreDistances> core_distances_cached(
    const exec::Executor& exec, const spatial::PointSet& points, const spatial::KdTree& tree,
    int min_pts, std::optional<std::uint64_t> points_fingerprint) {
  // min_pts is folded into the key with the full mixer, so a sweep's values
  // occupy distinct slots — see exec/fingerprint.hpp.
  std::shared_ptr<CachedCoreDistances> entry = exec::cached_artifact<CachedCoreDistances>(
      exec, exec::ArtifactTag::core_distance,
      [&] {
        return exec::combine_fingerprint(
            points_fingerprint ? *points_fingerprint
                               : spatial::point_set_fingerprint(exec, points),
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(min_pts)));
      },
      [&] {
        return std::make_shared<CachedCoreDistances>(
            CachedCoreDistances{core_distances_with_seeds(exec, points, tree, min_pts), &points});
      },
      [&](const CachedCoreDistances& cached) { return cached.points == &points; });
  const CoreDistances* view = &entry->core;
  return {std::move(entry), view};
}

}  // namespace pandora::hdbscan
