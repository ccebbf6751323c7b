// Flat-cluster extraction variants: excess-of-mass vs leaf selection and the
// cluster-selection-epsilon filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "pandora/data/point_generators.hpp"
#include "pandora/hdbscan/hdbscan.hpp"

namespace {

using namespace pandora;
using hdbscan::ClusterSelectionMethod;
using hdbscan::HdbscanOptions;
using spatial::PointSet;

/// Blobs-of-blobs: four coarse groups, each made of three fine subclusters —
/// a two-scale structure where leaf/EOM/epsilon genuinely differ.
PointSet two_scale_data(index_t n) {
  PointSet points(2, n);
  Rng rng(37);
  const double coarse[4][2] = {{0, 0}, {8, 0}, {0, 8}, {8, 8}};
  for (index_t i = 0; i < n; ++i) {
    const auto g = static_cast<std::size_t>(rng.next_below(4));
    const auto s = static_cast<double>(rng.next_below(3));
    points.at(i, 0) = coarse[g][0] + 0.6 * s + 0.02 * rng.normal();
    points.at(i, 1) = coarse[g][1] + 0.02 * rng.normal();
  }
  return points;
}

/// Reference extraction, written independently of the library: the same
/// selection rules (excess of mass or leaves, the root only with
/// `allow_single_cluster`, the epsilon lift, the topmost selected cluster on
/// each path wins), then a per-point climb from each point's cluster to its
/// nearest finally selected ancestor-or-self.
hdbscan::FlatClustering climbing_extraction(const hdbscan::CondensedTree& tree,
                                            const hdbscan::ExtractOptions& options) {
  const std::size_t nc = tree.clusters.size();
  const auto& clusters = tree.clusters;
  std::vector<char> selected(nc, 0);
  if (options.method == ClusterSelectionMethod::leaf) {
    for (std::size_t c = 0; c < nc; ++c) selected[c] = clusters[c].child_a == kNone;
  } else {
    std::vector<double> best(nc, 0.0);  // best stability of each subtree
    for (std::size_t c = nc; c-- > 0;) {
      if (clusters[c].child_a == kNone) {
        selected[c] = 1;
        best[c] = clusters[c].stability;
        continue;
      }
      const double children = best[static_cast<std::size_t>(clusters[c].child_a)] +
                              best[static_cast<std::size_t>(clusters[c].child_b)];
      const bool keep = clusters[c].stability > children &&
                        (c != 0 || options.allow_single_cluster);
      selected[c] = keep;
      best[c] = keep ? clusters[c].stability : children;
    }
  }
  if (!options.allow_single_cluster) selected[0] = 0;
  if (options.selection_epsilon > 0.0) {
    const auto birth_distance = [&](index_t c) {
      const double lambda = clusters[static_cast<std::size_t>(c)].birth_lambda;
      return lambda > 0 ? 1.0 / lambda : std::numeric_limits<double>::infinity();
    };
    std::vector<char> lifted(nc, 0);
    for (std::size_t c = 0; c < nc; ++c) {
      if (!selected[c]) continue;
      auto cur = static_cast<index_t>(c);
      index_t last_non_root = cur;
      while (clusters[static_cast<std::size_t>(cur)].parent != kNone &&
             birth_distance(cur) < options.selection_epsilon) {
        last_non_root = cur;
        cur = clusters[static_cast<std::size_t>(cur)].parent;
      }
      if (cur == 0 && !options.allow_single_cluster) cur = last_non_root;
      lifted[static_cast<std::size_t>(cur)] = 1;
    }
    selected = lifted;
    if (!options.allow_single_cluster) selected[0] = 0;
  }

  hdbscan::FlatClustering flat;
  std::vector<index_t> dense(nc, kNone);
  for (std::size_t c = 0; c < nc; ++c) {
    bool ancestor_selected = false;
    for (index_t a = clusters[c].parent; a != kNone; a = clusters[static_cast<std::size_t>(a)].parent)
      ancestor_selected = ancestor_selected || selected[static_cast<std::size_t>(a)];
    if (selected[c] && !ancestor_selected) {
      dense[c] = flat.num_clusters++;
      flat.selected_clusters.push_back(static_cast<index_t>(c));
    }
  }
  flat.labels.assign(tree.point_cluster.size(), kNone);
  for (std::size_t p = 0; p < tree.point_cluster.size(); ++p) {
    index_t c = tree.point_cluster[p];
    while (c != kNone && dense[static_cast<std::size_t>(c)] == kNone)
      c = clusters[static_cast<std::size_t>(c)].parent;
    if (c != kNone) flat.labels[p] = dense[static_cast<std::size_t>(c)];
  }
  return flat;
}

/// Tight pairs of points along a line, separated by gaps that grow by 5%
/// each: at min_cluster_size 2 every gap is a true split that sheds one
/// pair, so the condensed tree is a chain about `pairs` clusters deep.
PointSet pair_chain(index_t pairs) {
  PointSet points(2, 2 * pairs);
  double x = 0.0, gap = 1.0;
  for (index_t k = 0; k < pairs; ++k) {
    points.at(2 * k, 0) = x;
    points.at(2 * k + 1, 0) = x + 0.001 * static_cast<double>(1 + k % 7);
    x += gap;
    gap *= 1.05;
  }
  return points;
}

TEST(Extraction, LeafSelectsAtLeastAsManyClustersAsEom) {
  const PointSet points = two_scale_data(2400);
  HdbscanOptions eom;
  eom.min_pts = 4;
  eom.min_cluster_size = 30;
  HdbscanOptions leaf = eom;
  leaf.cluster_selection_method = ClusterSelectionMethod::leaf;
  const auto r_eom = hdbscan::hdbscan(exec::default_executor(), points, eom);
  const auto r_leaf = hdbscan::hdbscan(exec::default_executor(), points, leaf);
  EXPECT_GE(r_leaf.num_clusters, r_eom.num_clusters);
  // The fine scale has 12 subclusters; leaf selection should find them.
  EXPECT_GE(r_leaf.num_clusters, 10);
}

TEST(Extraction, LeafLabelsRefineEomLabels) {
  // Every leaf cluster sits below some EOM cluster, so any two points sharing
  // a leaf label must share an EOM label (when both are clustered).
  const PointSet points = two_scale_data(1800);
  HdbscanOptions eom;
  eom.min_pts = 4;
  eom.min_cluster_size = 25;
  HdbscanOptions leaf = eom;
  leaf.cluster_selection_method = ClusterSelectionMethod::leaf;
  const auto r_eom = hdbscan::hdbscan(exec::default_executor(), points, eom);
  const auto r_leaf = hdbscan::hdbscan(exec::default_executor(), points, leaf);
  std::map<index_t, index_t> leaf_to_eom;
  for (index_t p = 0; p < points.size(); ++p) {
    const index_t l = r_leaf.labels[static_cast<std::size_t>(p)];
    const index_t e = r_eom.labels[static_cast<std::size_t>(p)];
    if (l == kNone || e == kNone) continue;
    auto [it, fresh] = leaf_to_eom.try_emplace(l, e);
    EXPECT_EQ(it->second, e) << "leaf cluster " << l << " straddles EOM clusters";
  }
}

TEST(Extraction, EpsilonMergesFineClusters) {
  const PointSet points = two_scale_data(2400);
  HdbscanOptions fine;
  fine.min_pts = 4;
  fine.min_cluster_size = 30;
  fine.cluster_selection_method = ClusterSelectionMethod::leaf;
  HdbscanOptions merged = fine;
  merged.cluster_selection_epsilon = 2.0;  // above the fine gap (~0.6), below the coarse (~8)
  const auto r_fine = hdbscan::hdbscan(exec::default_executor(), points, fine);
  const auto r_merged = hdbscan::hdbscan(exec::default_executor(), points, merged);
  EXPECT_GT(r_fine.num_clusters, r_merged.num_clusters);
  EXPECT_GE(r_merged.num_clusters, 2);
  EXPECT_LE(r_merged.num_clusters, 6);  // the four coarse groups (some slack)
}

TEST(Extraction, EpsilonZeroIsIdentity) {
  const PointSet points = two_scale_data(1200);
  HdbscanOptions base;
  base.min_pts = 4;
  base.min_cluster_size = 20;
  HdbscanOptions with_zero = base;
  with_zero.cluster_selection_epsilon = 0.0;
  const auto a = hdbscan::hdbscan(exec::default_executor(), points, base);
  const auto b = hdbscan::hdbscan(exec::default_executor(), points, with_zero);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(Extraction, SelectedClustersAreAnAntichain) {
  // No selected cluster may have a selected ancestor, whatever the options.
  const PointSet points = two_scale_data(1500);
  for (const auto method :
       {ClusterSelectionMethod::excess_of_mass, ClusterSelectionMethod::leaf}) {
    for (const double eps : {0.0, 1.0, 3.0}) {
      HdbscanOptions options;
      options.min_pts = 4;
      options.min_cluster_size = 20;
      options.cluster_selection_method = method;
      options.cluster_selection_epsilon = eps;
      const auto result = hdbscan::hdbscan(exec::default_executor(), points, options);
      // Recompute the selected set through the public API.
      hdbscan::ExtractOptions extract;
      extract.method = method;
      extract.selection_epsilon = eps;
      const auto flat = hdbscan::extract_clusters(result.condensed_tree, extract);
      std::set<index_t> sel(flat.selected_clusters.begin(), flat.selected_clusters.end());
      for (const index_t c : sel) {
        index_t cur = result.condensed_tree.clusters[static_cast<std::size_t>(c)].parent;
        while (cur != kNone) {
          EXPECT_FALSE(sel.contains(cur)) << "cluster " << c << " under selected " << cur;
          cur = result.condensed_tree.clusters[static_cast<std::size_t>(cur)].parent;
        }
      }
    }
  }
}

TEST(Extraction, LabelsMatchPerPointClimbOracleOnDeepTrees) {
  // min_cluster_size 2 condenses to the deepest trees the data allow; the
  // pair chain is a path of ~150 clusters.  Labels, the cluster count and
  // the selected ids must match the climbing reference exactly.
  std::vector<std::pair<const char*, PointSet>> datasets;
  datasets.emplace_back("pair_chain", pair_chain(150));
  datasets.emplace_back("two_scale", two_scale_data(1200));
  for (const auto& [name, points] : datasets) {
    HdbscanOptions options;
    options.min_pts = 2;
    options.min_cluster_size = 2;
    const auto result = hdbscan::hdbscan(exec::default_executor(), points, options);
    const hdbscan::CondensedTree& tree = result.condensed_tree;
    std::size_t depth = 0;
    for (const auto& cluster : tree.clusters) {
      std::size_t d = 0;
      for (index_t a = cluster.parent; a != kNone; a = tree.clusters[static_cast<std::size_t>(a)].parent)
        ++d;
      depth = std::max(depth, d);
    }
    if (std::string(name) == "pair_chain") EXPECT_GE(depth, 100u) << "the chain must condense deep";
    for (const auto method :
         {ClusterSelectionMethod::excess_of_mass, ClusterSelectionMethod::leaf}) {
      for (const double eps : {0.0, 2.0}) {
        for (const bool single : {false, true}) {
          hdbscan::ExtractOptions extract;
          extract.method = method;
          extract.selection_epsilon = eps;
          extract.allow_single_cluster = single;
          const auto flat = hdbscan::extract_clusters(tree, extract);
          const auto expected = climbing_extraction(tree, extract);
          const std::string where = std::string(name) + " leaf=" +
                                    std::to_string(method == ClusterSelectionMethod::leaf) +
                                    " eps=" + std::to_string(eps) +
                                    " single=" + std::to_string(single);
          EXPECT_EQ(flat.labels, expected.labels) << where;
          EXPECT_EQ(flat.num_clusters, expected.num_clusters) << where;
          EXPECT_EQ(flat.selected_clusters, expected.selected_clusters) << where;
        }
      }
    }
  }
}

}  // namespace
