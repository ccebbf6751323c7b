#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "pandora/common/rng.hpp"
#include "pandora/data/point_generators.hpp"
#include "pandora/graph/tree.hpp"
#include "pandora/graph/union_find.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/spatial/brute_force.hpp"
#include "pandora/spatial/emst.hpp"

namespace {

using namespace pandora;
using graph::EdgeList;
using spatial::KdTree;
using spatial::PointSet;

double weight_of(const EdgeList& edges) { return graph::total_weight(edges); }

class EmstSweep : public ::testing::TestWithParam<std::tuple<int, index_t>> {};  // (dim, n)

INSTANTIATE_TEST_SUITE_P(Sweep, EmstSweep,
                         ::testing::Combine(::testing::Values(2, 3, 5),
                                            ::testing::Values<index_t>(2, 10, 100, 400)));

TEST_P(EmstSweep, EuclideanMstMatchesBruteForceWeight) {
  const auto& [dim, n] = GetParam();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const PointSet points = data::uniform_points(n, dim, seed * 31 + 5);
    const EdgeList expected = spatial::brute_force_emst(points);
    for (const auto& space : exec::registered_backends()) {
      KdTree tree(points);
      const EdgeList got = spatial::euclidean_mst(exec::default_executor(space), points, tree);
      ASSERT_TRUE(graph::is_spanning_tree(got, n));
      ASSERT_NEAR(weight_of(got), weight_of(expected), 1e-9 * std::max(1.0, weight_of(expected)))
          << "dim=" << dim << " n=" << n << " seed=" << seed;
    }
  }
}

TEST_P(EmstSweep, MutualReachabilityMstMatchesBruteForce) {
  const auto& [dim, n] = GetParam();
  if (n < 10) GTEST_SKIP() << "core distances need a few points";
  const PointSet points = data::gaussian_blobs(n, dim, 4, 0.08, 0.1, 77);
  KdTree tree(points);
  const auto core = hdbscan::core_distances(exec::default_executor(), points, tree, 4);
  const EdgeList expected = spatial::brute_force_mreach_mst(points, core);
  const EdgeList got = spatial::mutual_reachability_mst(exec::default_executor(), points, tree, core);
  ASSERT_TRUE(graph::is_spanning_tree(got, n));
  EXPECT_NEAR(weight_of(got), weight_of(expected), 1e-9 * std::max(1.0, weight_of(expected)));
}

TEST(Emst, DeterministicAcrossSpacesAndRepeats) {
  const PointSet points = data::power_law_blobs(3000, 2, 20, 1.2, 3);
  KdTree tree_a(points);
  const EdgeList first = spatial::euclidean_mst(exec::default_executor(), points, tree_a);
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (const auto& space : exec::registered_backends()) {
      KdTree tree(points);
      const EdgeList again = spatial::euclidean_mst(exec::default_executor(space), points, tree);
      ASSERT_EQ(again.size(), first.size());
      for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_EQ(again[i].u, first[i].u) << i;
        ASSERT_EQ(again[i].v, first[i].v) << i;
        ASSERT_DOUBLE_EQ(again[i].weight, first[i].weight) << i;
      }
    }
  }
}

TEST(Emst, ClusteredDataWithTiedDistances) {
  // A perfect grid has massive distance ties; the MST must still be a
  // spanning tree of exactly the right weight (n-1 unit edges).
  const int side = 20;
  PointSet points(2, side * side);
  for (int x = 0; x < side; ++x)
    for (int y = 0; y < side; ++y) {
      points.at(x * side + y, 0) = x;
      points.at(x * side + y, 1) = y;
    }
  KdTree tree(points);
  const EdgeList mst = spatial::euclidean_mst(exec::default_executor(), points, tree);
  ASSERT_TRUE(graph::is_spanning_tree(mst, side * side));
  EXPECT_NEAR(weight_of(mst), side * side - 1, 1e-9);
}

TEST(Emst, JoinComponentsRestoresTheFullEmst) {
  // Split the true EMST into components by dropping random edges; the
  // component-restricted Borůvka entry must re-join them with exactly the
  // dropped weight (the survivors are a sub-forest of the EMST, so survivors
  // plus the joining edges must BE an EMST).
  const PointSet points = data::power_law_blobs(800, 2, 8, 1.3, 9);
  KdTree tree(points);
  const exec::Executor executor(exec::default_backend());
  const EdgeList full = spatial::euclidean_mst(executor, points, tree);

  Rng rng(5);
  for (const std::size_t drops : {std::size_t{1}, std::size_t{25}, full.size()}) {
    std::vector<char> dropped(full.size(), 0);
    for (std::size_t k = 0; k < drops; ++k) dropped[rng.next_below(full.size())] = 1;

    graph::ConcurrentUnionFind uf(points.size());
    EdgeList survivors;
    for (std::size_t i = 0; i < full.size(); ++i) {
      if (dropped[i]) continue;
      survivors.push_back(full[i]);
      uf.unite(full[i].u, full[i].v);
    }
    const EdgeList joined = spatial::join_components_emst(executor, points, tree, uf);
    EdgeList rejoined = survivors;
    rejoined.insert(rejoined.end(), joined.begin(), joined.end());
    ASSERT_TRUE(graph::is_spanning_tree(rejoined, points.size()));
    EXPECT_NEAR(weight_of(rejoined), weight_of(full), 1e-9 * std::max(1.0, weight_of(full)))
        << drops << " dropped edges";
  }

  // Degenerate seed: already one component — nothing to join.
  graph::ConcurrentUnionFind united(points.size());
  for (const auto& e : full) united.unite(e.u, e.v);
  EXPECT_TRUE(spatial::join_components_emst(executor, points, tree, united).empty());
}

TEST(Emst, MinPtsOneReducesMreachToEuclidean) {
  const PointSet points = data::uniform_points(300, 3, 8);
  KdTree tree(points);
  const auto core = hdbscan::core_distances(exec::default_executor(exec::serial_backend()), points, tree, 1);
  EXPECT_TRUE(std::all_of(core.begin(), core.end(), [](double c) { return c == 0.0; }));
  KdTree tree2(points);
  const EdgeList euclid = spatial::euclidean_mst(exec::default_executor(exec::serial_backend()), points, tree2);
  KdTree tree3(points);
  const EdgeList mreach = spatial::mutual_reachability_mst(exec::default_executor(exec::serial_backend()), points, tree3, core);
  EXPECT_NEAR(weight_of(euclid), weight_of(mreach), 1e-9);
}

TEST(Emst, LargerMinPtsGivesHeavierMst) {
  // Mutual reachability distances dominate Euclidean ones and grow with
  // minPts, so the MST weight must be monotone in minPts.
  const PointSet points = data::gaussian_blobs(500, 2, 6, 0.04, 0.05, 21);
  double previous = 0.0;
  for (const int min_pts : {1, 2, 4, 8, 16}) {
    KdTree tree(points);
    const auto core = hdbscan::core_distances(exec::default_executor(), points, tree, min_pts);
    const EdgeList mst = spatial::mutual_reachability_mst(exec::default_executor(), points, tree, core);
    const double w = weight_of(mst);
    EXPECT_GE(w, previous - 1e-12) << "minPts=" << min_pts;
    previous = w;
  }
}

// Round-1 seeds from the core-distance pass.  Each certified seed must be
// exactly the candidate p's round-1 query returns, and a seeded MST must equal
// the unseeded one edge by edge.

/// side x side integer lattice with rows `row_step` apart.
PointSet integer_lattice(int side, int row_step) {
  PointSet points(2, side * side);
  for (index_t i = 0; i < side * side; ++i) {
    points.at(i, 0) = static_cast<double>(i % side);
    points.at(i, 1) = static_cast<double>(row_step * (i / side));
  }
  return points;
}

/// Checks seeds, seeded MST and unseeded MST at `min_pts`; returns the
/// number of seeded points.
index_t expect_seeds_exact(const PointSet& points, int min_pts) {
  const exec::Executor executor(exec::default_backend(), 4);
  const KdTree tree(executor, points);
  const hdbscan::CoreDistances core =
      hdbscan::core_distances_with_seeds(executor, points, tree, min_pts);
  EXPECT_EQ(core.values, hdbscan::core_distances(executor, points, tree, min_pts));
  const index_t n = points.size();
  const auto squared_core = [&](index_t x) {
    return core.values[static_cast<std::size_t>(x)] * core.values[static_cast<std::size_t>(x)];
  };

  index_t seeded = 0;
  for (index_t p = 0; p < n; ++p) {
    const index_t seed = core.round1_seed[static_cast<std::size_t>(p)];
    if (seed == kNone) continue;
    ++seeded;
    spatial::Neighbor round1;  // p's foreign minimum among singletons
    for (index_t q = 0; q < n; ++q) {
      if (q == p) continue;
      const spatial::Neighbor cand{
          std::max({points.squared_distance(p, q), squared_core(p), squared_core(q)}), q};
      if (cand < round1) round1 = cand;
    }
    EXPECT_EQ(round1.index, seed) << "p=" << p << " mpts=" << min_pts;
    EXPECT_EQ(round1.squared_distance, squared_core(p)) << "p=" << p << " mpts=" << min_pts;
  }

  const EdgeList with_seeds =
      spatial::mutual_reachability_mst(executor, points, tree, core.values, core.round1_seed);
  const EdgeList without = spatial::mutual_reachability_mst(executor, points, tree, core.values);
  EXPECT_EQ(with_seeds, without) << "mpts=" << min_pts;
  const double expected = weight_of(spatial::brute_force_mreach_mst(points, core.values));
  EXPECT_NEAR(weight_of(with_seeds), expected, 1e-9 * std::max(1.0, expected));
  EXPECT_NEAR(weight_of(without), expected, 1e-9 * std::max(1.0, expected));
  return seeded;
}

TEST(EmstSeeds, LatticeTiesFailTheCertificateOnlyWhereTheyMust) {
  // On a lattice the k-th and (k+1)-th neighbours are often equidistant, so
  // the certificate fails there.  With rows two apart it still holds at some
  // edge and corner points at each of these mpts, so both paths run.
  const PointSet points = integer_lattice(60, 2);
  for (const int min_pts : {2, 4, 16}) {
    const index_t seeded = expect_seeds_exact(points, min_pts);
    EXPECT_GT(seeded, 0) << "mpts=" << min_pts;
    EXPECT_LT(seeded, points.size()) << "mpts=" << min_pts;
  }
}

TEST(EmstSeeds, DuplicatePointsStayExact) {
  // 1 to 6 copies per location: a copy count above k + 1 puts the (k+1)-th
  // neighbour at distance zero, at the core distance itself.
  Rng rng(17);
  std::vector<double> coords;
  for (int location = 0; location < 150; ++location) {
    const double x = rng.next_double(), y = rng.next_double();
    for (int copy = 0; copy <= location % 6; ++copy) coords.insert(coords.end(), {x, y});
  }
  PointSet points(2, static_cast<index_t>(coords.size() / 2));
  std::copy(coords.begin(), coords.end(), points.coords().begin());
  for (const int min_pts : {2, 3, 4, 8}) (void)expect_seeds_exact(points, min_pts);
}

TEST(EmstSeeds, HaccProxyStaysExact) {
  const PointSet points = data::make_dataset("HaccProxy", 5000, 1);
  EXPECT_GT(expect_seeds_exact(points, 4), 0);
}

TEST(EmstSeeds, ListsShorterThanMinPtsCertifyNothing) {
  // With n - 1 <= minPts - 1 there is no (k+1)-th neighbour to certify with.
  const exec::Executor executor(exec::default_backend(), 4);
  for (const index_t n : {1, 2, 3, 4}) {
    const PointSet points = data::uniform_points(n, 2, 40 + static_cast<std::uint64_t>(n));
    const KdTree tree(executor, points);
    const hdbscan::CoreDistances core =
        hdbscan::core_distances_with_seeds(executor, points, tree, 4);
    EXPECT_EQ(core.values, hdbscan::core_distances(executor, points, tree, 4)) << "n=" << n;
    EXPECT_EQ(core.round1_seed, std::vector<index_t>(static_cast<std::size_t>(n), kNone));
    EXPECT_EQ(spatial::mutual_reachability_mst(executor, points, tree, core.values,
                                               core.round1_seed)
                  .size(),
              static_cast<std::size_t>(n - 1));
  }
}

TEST(EmstSeeds, SweepReplaysTheCachedSeed) {
  // The cached core-distance artifact carries the seeds: a min_cluster_size
  // sweep that replays it (the EMST itself not yet cached) seeds from it.
  const PointSet points = data::gaussian_blobs(1500, 2, 4, 0.05, 0.2, 23);
  const exec::Executor executor(exec::default_backend(), 4);
  const auto tree = spatial::kdtree_cached(executor, points);
  const auto core = hdbscan::core_distances_cached(executor, points, *tree, 4);
  const auto seeds = static_cast<std::uint64_t>(
      std::count_if(core->round1_seed.begin(), core->round1_seed.end(),
                    [](index_t q) { return q != kNone; }));
  ASSERT_GT(seeds, 0u);

  obs::Registry& reg = obs::registry();
  const std::uint64_t seeded0 = reg.counter_value("pandora_emst_round1_seeded_total");
  const auto hits0 = executor.artifact_cache().stats().hits;
  const std::array<index_t, 2> sizes = {5, 25};
  const hdbscan::MinClusterSizeSweep sweep =
      hdbscan::hdbscan_sweep_min_cluster_size(executor, points, sizes, {.min_pts = 4});
  EXPECT_GE(executor.artifact_cache().stats().hits - hits0, 2u)
      << "kd-tree and core distances replay";
  EXPECT_EQ(reg.counter_value("pandora_emst_round1_seeded_total") - seeded0, seeds);
  EXPECT_EQ(sweep.core_distances, core->values);

  const exec::Executor reference(exec::serial_backend());
  reference.set_artifact_caching(false);
  EXPECT_EQ(sweep.mst, spatial::mutual_reachability_mst(reference, points, *tree, core->values));
}

}  // namespace
