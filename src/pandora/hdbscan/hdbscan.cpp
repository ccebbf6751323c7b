#include "pandora/hdbscan/hdbscan.hpp"

#include <optional>

#include "pandora/common/expect.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/spatial/emst.hpp"
#include "pandora/spatial/kdtree.hpp"

namespace pandora::hdbscan {

namespace {

FlatClustering extract_with(const CondensedTree& tree, const HdbscanOptions& options) {
  ExtractOptions extract_options;
  extract_options.method = options.cluster_selection_method;
  extract_options.allow_single_cluster = options.allow_single_cluster;
  extract_options.selection_epsilon = options.cluster_selection_epsilon;
  return extract_clusters(tree, extract_options);
}

/// The prefix every front door shares: kd-tree -> core distances ->
/// mutual-reachability MST, each inside its phase and each through the
/// Executor's ArtifactCache, so repeated queries against one point set (and
/// sweeps, which share the tree) replay instead of rebuilding.  With caching
/// on, the points are hashed here once for all three lookups and the hash is
/// handed back through `points_fp`, so an mpts sweep hashes once for all its
/// values; a caller that already hashed passes the fingerprint in.  With
/// caching off nothing is hashed.
void mst_prefix(const exec::Executor& exec, const spatial::PointSet& points, int min_pts,
                std::optional<std::uint64_t>& points_fp, std::vector<double>& core_distances,
                graph::EdgeList& mst) {
  if (exec.artifact_caching() && !points_fp)
    points_fp = spatial::point_set_fingerprint(exec, points);

  std::shared_ptr<const spatial::KdTree> tree;
  exec.phase("tree_build", [&] { tree = spatial::kdtree_cached(exec, points, 32, points_fp); });

  // The core-distance pass also certifies round-1 Borůvka candidates; the
  // seeds ride in the cached artifact.
  std::shared_ptr<const CoreDistances> core;
  exec.phase("core_distance", [&] {
    core = core_distances_cached(exec, points, *tree, min_pts, points_fp);
    core_distances = core->values;
  });

  // Copy-out is the price of keeping the results plain values: one O(E)
  // memcpy, well under a millesimal of the Borůvka build it replaces on a
  // warm hit.
  exec.phase("mst", [&] {
    mst = *spatial::mutual_reachability_mst_cached(exec, points, *tree, core->values, min_pts,
                                                   points_fp, core->round1_seed);
  });
}

HdbscanResult hdbscan_with_fingerprint(const exec::Executor& exec,
                                       const spatial::PointSet& points,
                                       const HdbscanOptions& options,
                                       std::optional<std::uint64_t>& points_fp) {
  PANDORA_EXPECT(points.size() > 0, "need at least one point");
  HdbscanResult result;
  // Capture every phase in result.times; any scope the caller opened on the
  // executor sees the same breakdown.
  const exec::ScopedPhaseTimes scope(exec, &result.times);

  mst_prefix(exec, points, options.min_pts, points_fp, result.core_distances, result.mst);
  result.dendrogram = *dendrogram::pandora_dendrogram_cached(exec, result.mst, points.size());
  result.condensed_tree =
      build_condensed_tree(exec, result.dendrogram, options.min_cluster_size);

  exec.phase("extract", [&] {
    FlatClustering flat = extract_with(result.condensed_tree, options);
    result.labels = std::move(flat.labels);
    result.num_clusters = flat.num_clusters;
  });
  return result;
}

}  // namespace

HdbscanResult hdbscan(const exec::Executor& exec, const spatial::PointSet& points,
                      const HdbscanOptions& options,
                      std::optional<std::uint64_t> points_fingerprint) {
  return hdbscan_with_fingerprint(exec, points, options, points_fingerprint);
}

MinClusterSizeSweep hdbscan_sweep_min_cluster_size(const exec::Executor& exec,
                                                   const spatial::PointSet& points,
                                                   std::span<const index_t> min_cluster_sizes,
                                                   const HdbscanOptions& base,
                                                   std::optional<std::uint64_t> points_fingerprint) {
  PANDORA_EXPECT(points.size() > 0, "need at least one point");
  MinClusterSizeSweep sweep;

  // min_cluster_size touches nothing above the condensed tree, so one prefix
  // and one dendrogram serve every sweep value (and replay across calls).
  mst_prefix(exec, points, base.min_pts, points_fingerprint, sweep.core_distances, sweep.mst);
  sweep.dendrogram = dendrogram::pandora_dendrogram_cached(exec, sweep.mst, points.size());

  sweep.entries.reserve(min_cluster_sizes.size());
  for (const index_t min_cluster_size : min_cluster_sizes) {
    MinClusterSizeSweep::Entry entry;
    entry.min_cluster_size = min_cluster_size;
    entry.condensed_tree = build_condensed_tree(exec, *sweep.dendrogram, min_cluster_size);
    HdbscanOptions options = base;
    options.min_cluster_size = min_cluster_size;
    FlatClustering flat = extract_with(entry.condensed_tree, options);
    entry.labels = std::move(flat.labels);
    entry.num_clusters = flat.num_clusters;
    sweep.entries.push_back(std::move(entry));
  }
  return sweep;
}

std::vector<HdbscanResult> hdbscan_sweep_min_pts(const exec::Executor& exec,
                                                 const spatial::PointSet& points,
                                                 std::span<const int> min_pts_values,
                                                 const HdbscanOptions& base,
                                                 std::optional<std::uint64_t> points_fingerprint) {
  std::vector<HdbscanResult> results;
  results.reserve(min_pts_values.size());
  // The first value hashes the points (when caching is on) and the rest
  // share that hash; per value, the kd-tree replays from the cache after the
  // first, while the core distances and EMST depend on mpts and are rebuilt
  // under distinct, never-aliasing cache keys.
  std::optional<std::uint64_t> points_fp = points_fingerprint;
  for (const int min_pts : min_pts_values) {
    HdbscanOptions options = base;
    options.min_pts = min_pts;
    results.push_back(hdbscan_with_fingerprint(exec, points, options, points_fp));
  }
  return results;
}

}  // namespace pandora::hdbscan
