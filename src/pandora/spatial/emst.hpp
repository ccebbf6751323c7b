#pragma once

#include <memory>
#include <optional>
#include <span>

#include "pandora/common/types.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/graph/edge.hpp"
#include "pandora/graph/union_find.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "pandora/spatial/point_set.hpp"

namespace pandora::spatial {

/// Euclidean minimum spanning tree via parallel Borůvka over the kd-tree —
/// the stand-in for the single-tree GPU Borůvka of [39] that the paper's
/// HDBSCAN* pipeline uses.  Each round every point needs its nearest
/// neighbour outside its own component; per-component winners (exact
/// (distance, point-id) lexicographic minima) hook the components together.
/// Points whose candidate from an earlier round is still foreign reuse it and
/// publish it first; the others re-query with their component's live best
/// weight as a shared upper bound, so a point that cannot win its component
/// stops searching early; a point whose earlier cut query proved it cannot
/// beat that bound skips its query.  Deterministic under distance ties and
/// under any thread interleaving.  Rounds, queries, reuses, bound skips,
/// round-1 seeds and node visits are counted in `obs::registry()`
/// (`pandora_emst_*_total`).
///
/// The tree is read-only: per-round component annotations live in
/// query-local `KdTreeAnnotations`, so one (possibly cached and shared) tree
/// can back concurrent EMST queries.
[[nodiscard]] graph::EdgeList euclidean_mst(const exec::Executor& exec, const PointSet& points,
                                            const KdTree& tree);

/// Component-restricted Borůvka: joins the pre-seeded components of `uf`
/// (one slot per point; seed by uniting along a partial tree's edges) with
/// exactly the minimum-weight Euclidean edges between them, returning only
/// the joining edges.  If the seed components are those of a forest F that
/// is a subset of the full EMST, then F plus the returned edges *is* the
/// full EMST — the dynamic subsystem's erase path splinters its maintained
/// tree and re-joins the splinters through this entry.  `uf` is left fully
/// united.
[[nodiscard]] graph::EdgeList join_components_emst(const exec::Executor& exec,
                                                   const PointSet& points, const KdTree& tree,
                                                   graph::ConcurrentUnionFind& uf);

/// MST under the HDBSCAN* mutual-reachability metric
/// d_mreach(p, q) = max(core(p), core(q), |p - q|), given per-point core
/// distances (Section 6.5).  This is the "MST construction" phase of the
/// paper's Figure 1/15 pipeline.  `round1_seed`, when not empty, holds one
/// entry per point: the certified round-1 candidates of
/// `hdbscan::core_distances_with_seeds` over the same core distances.  Seeded
/// points skip their round-1 query; the edges are the same either way.
[[nodiscard]] graph::EdgeList mutual_reachability_mst(
    const exec::Executor& exec, const PointSet& points, const KdTree& tree,
    std::span<const double> core_distances, std::span<const index_t> round1_seed = {});

/// The cross-call EMST cache: the mutual-reachability MST of `points` at
/// `min_pts`, reusing the copy stored in the Executor's ArtifactCache when
/// the point-set fingerprint AND `min_pts` match — so a `min_cluster_size`
/// sweep (which shares one mpts) skips Borůvka entirely on repeated calls,
/// the ROADMAP follow-up to the kd-tree / core-distance caches.  Entries
/// remember the PointSet object they were computed over (cf. kdtree_cached);
/// mutated or different point sets miss.  `core_distances` must be the core
/// distances of `points` at `min_pts` (they are part of the computation, not
/// the key: (points, min_pts) already determines them).
/// `points_fingerprint` shares a precomputed `point_set_fingerprint` pass;
/// `round1_seed` is passed on to `mutual_reachability_mst` on a miss.
/// With `Executor::set_artifact_caching(false)` every call recomputes.
[[nodiscard]] std::shared_ptr<const graph::EdgeList> mutual_reachability_mst_cached(
    const exec::Executor& exec, const PointSet& points, const KdTree& tree,
    std::span<const double> core_distances, int min_pts,
    std::optional<std::uint64_t> points_fingerprint = std::nullopt,
    std::span<const index_t> round1_seed = {});

}  // namespace pandora::spatial
