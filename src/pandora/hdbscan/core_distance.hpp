#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "pandora/spatial/point_set.hpp"

namespace pandora::hdbscan {

/// HDBSCAN* core distance: the distance from each point to its minPts-th
/// nearest neighbour, the point itself counted among the minPts (so
/// minPts = 2 is the distance to the nearest other point, matching the
/// paper's default "mpts = 2").  minPts = 1 yields zeros (plain
/// single-linkage on Euclidean distance).
[[nodiscard]] std::vector<double> core_distances(const exec::Executor& exec,
                                                 const spatial::PointSet& points,
                                                 const spatial::KdTree& tree, int min_pts);

/// Core distances plus each point's round-1 Borůvka candidate, both from one
/// kNN pass.
struct CoreDistances {
  std::vector<double> values;  ///< as `core_distances`
  /// Per point p, the answer round 1 of the mutual-reachability Borůvka
  /// would compute for p (its nearest point q under (score, index), where
  /// score = max(d²(p,q), c_p, c_q) >= c_p with c_x = values[x]²), when the
  /// kNN list proves it; else kNone.  The proof: q is the smallest id among
  /// p's first k = minPts-1 neighbours with d²(p,q) <= c_p and c_q <= c_p,
  /// so score(p,q) = c_p, the least score p can have, and the (k+1)-th
  /// neighbour lies strictly beyond c_p, so no point outside the list ties
  /// it.  Pass it to `spatial::mutual_reachability_mst` to skip those
  /// round-1 queries; the MST is the same with or without it.
  std::vector<index_t> round1_seed;
};

/// `core_distances` through a pass that queries minPts neighbours per point
/// (one more than the core distance needs) and derives `round1_seed` from
/// the lists.  What the seeds need of the lists, up to minPts-1 ids per
/// point, lives in a Workspace lease for the duration of the call.
[[nodiscard]] CoreDistances core_distances_with_seeds(const exec::Executor& exec,
                                                      const spatial::PointSet& points,
                                                      const spatial::KdTree& tree, int min_pts);

/// The cross-call core-distance cache: returns `core_distances_with_seeds`
/// at `min_pts`, reusing the copy stored in the Executor's ArtifactCache when
/// the point-set fingerprint AND `min_pts` match — two different `min_pts`
/// values over the same points derive distinct keys and never alias, which is
/// what makes repeated mpts sweeps replays rather than rebuilds.  Entries
/// remember the PointSet object they were computed over (cf. kdtree_cached);
/// mutated or different point sets miss.  With
/// `Executor::set_artifact_caching(false)` every call recomputes.
/// `points_fingerprint` shares a precomputed `point_set_fingerprint` pass,
/// as in `kdtree_cached`.
[[nodiscard]] std::shared_ptr<const CoreDistances> core_distances_cached(
    const exec::Executor& exec, const spatial::PointSet& points, const spatial::KdTree& tree,
    int min_pts, std::optional<std::uint64_t> points_fingerprint = std::nullopt);

}  // namespace pandora::hdbscan
