#include "alloc_counter.hpp"  // must precede everything that allocates

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "pandora/data/point_generators.hpp"
#include "pandora/exec/sort.hpp"
#include "pandora/spatial/brute_force.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "pandora/spatial/knn.hpp"

namespace {

using namespace pandora;
using spatial::KdTree;
using spatial::Neighbor;
using spatial::PointSet;

class KnnSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};  // (dim, k)

INSTANTIATE_TEST_SUITE_P(Sweep, KnnSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 7),
                                            ::testing::Values(1, 2, 8, 16)));

TEST_P(KnnSweep, MatchesBruteForce) {
  const auto& [dim, k] = GetParam();
  const PointSet points = data::uniform_points(400, dim, 17 + static_cast<unsigned>(dim));
  const KdTree tree(points);
  std::vector<Neighbor> got;
  for (index_t q = 0; q < points.size(); q += 7) {
    tree.knn(q, k, got);
    const std::vector<Neighbor> expected = spatial::brute_force_knn(points, q, k);
    ASSERT_EQ(got.size(), expected.size()) << "q=" << q;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_DOUBLE_EQ(got[i].squared_distance, expected[i].squared_distance)
          << "q=" << q << " i=" << i;
      ASSERT_EQ(got[i].index, expected[i].index) << "q=" << q << " i=" << i;
    }
  }
}

TEST(KdTree, KnnWithDuplicatePointsIsDeterministic) {
  // Ten copies of each of 40 locations: distance ties everywhere; ties must
  // resolve by index.
  PointSet points(2, 400);
  Rng rng(3);
  for (index_t i = 0; i < 40; ++i) {
    const double x = rng.next_double(), y = rng.next_double();
    for (index_t c = 0; c < 10; ++c) {
      points.at(i * 10 + c, 0) = x;
      points.at(i * 10 + c, 1) = y;
    }
  }
  const KdTree tree(points);
  std::vector<Neighbor> got;
  for (index_t q = 0; q < points.size(); q += 13) {
    tree.knn(q, 5, got);
    const auto expected = spatial::brute_force_knn(points, q, 5);
    for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i].index, expected[i].index);
    // The nine colocated copies dominate the neighbour list.
    EXPECT_DOUBLE_EQ(got[0].squared_distance, 0.0);
  }
}

TEST(KdTree, KnnRequestLargerThanDataset) {
  const PointSet points = data::uniform_points(5, 3, 1);
  const KdTree tree(points);
  std::vector<Neighbor> got;
  tree.knn(0, 100, got);
  EXPECT_EQ(got.size(), 4u);  // everything except the query itself
}

TEST(KdTree, NearestOtherComponentHonorsFilterAndAnnotation) {
  const PointSet points = data::uniform_points(500, 2, 5);
  const KdTree tree(points);
  // Components: left half-plane (0), right half-plane (1).
  std::vector<index_t> component(500);
  for (index_t i = 0; i < 500; ++i) component[static_cast<std::size_t>(i)] =
      points.at(i, 0) < 0.5 ? 0 : 1;
  spatial::KdTreeAnnotations notes;
  tree.annotate_components(exec::default_executor(exec::serial_backend()), component, notes);

  for (index_t q = 0; q < 500; q += 11) {
    const index_t mine = component[static_cast<std::size_t>(q)];
    const Neighbor got = tree.nearest_other_component(q, mine, component, notes);
    // Brute force reference.
    Neighbor expected;
    for (index_t p = 0; p < 500; ++p) {
      if (component[static_cast<std::size_t>(p)] == mine) continue;
      const Neighbor cand{points.squared_distance(q, p), p};
      if (cand < expected) expected = cand;
    }
    ASSERT_EQ(got.index, expected.index) << "q=" << q;
    ASSERT_DOUBLE_EQ(got.squared_distance, expected.squared_distance);
  }
}

TEST(KdTree, NearestOtherComponentMreachMatchesBruteForce) {
  const PointSet points = data::gaussian_blobs(300, 3, 5, 0.05, 0.1, 9);
  const KdTree tree(points);
  // Core distances (minPts = 4 -> 3rd neighbour).
  std::vector<Neighbor> scratch;
  std::vector<double> core_sq(300);
  for (index_t q = 0; q < 300; ++q) {
    tree.knn(q, 3, scratch);
    core_sq[static_cast<std::size_t>(q)] = scratch.back().squared_distance;
  }
  std::vector<index_t> component(300);
  for (index_t i = 0; i < 300; ++i) component[static_cast<std::size_t>(i)] = i % 7;
  spatial::KdTreeAnnotations notes;
  tree.annotate_components(exec::default_executor(), component, notes);
  tree.annotate_min_core(exec::default_executor(), core_sq, notes);

  for (index_t q = 0; q < 300; q += 5) {
    const index_t mine = component[static_cast<std::size_t>(q)];
    const Neighbor got =
        tree.nearest_other_component_mreach(q, mine, component, core_sq, notes);
    Neighbor expected;
    for (index_t p = 0; p < 300; ++p) {
      if (component[static_cast<std::size_t>(p)] == mine) continue;
      const double score = std::max({points.squared_distance(q, p),
                                     core_sq[static_cast<std::size_t>(q)],
                                     core_sq[static_cast<std::size_t>(p)]});
      const Neighbor cand{score, p};
      if (cand < expected) expected = cand;
    }
    ASSERT_EQ(got.index, expected.index) << "q=" << q;
    ASSERT_DOUBLE_EQ(got.squared_distance, expected.squared_distance);
  }
}

TEST(KdTree, SharedBoundKeepsResultsAtOrBelowItExact) {
  // A bound equal to the exact answer must still find it (strict '>' keeps
  // ties and the smallest index); a bound just below it may cut the answer,
  // but whatever comes back then lies above the bound.  An integer grid makes
  // node lower bounds meet answers exactly, under mutual reachability at
  // core(q) in particular.
  PointSet points(2, 40 * 40);
  for (index_t i = 0; i < 40 * 40; ++i) {
    points.at(i, 0) = static_cast<double>(i % 40);
    points.at(i, 1) = static_cast<double>(i / 40);
  }
  const index_t n = points.size();
  const KdTree tree(points, 4);
  std::vector<Neighbor> scratch;
  std::vector<double> core_sq(static_cast<std::size_t>(n));
  for (index_t q = 0; q < n; ++q) {
    tree.knn(q, 3, scratch);
    core_sq[static_cast<std::size_t>(q)] = scratch.back().squared_distance;
  }
  std::vector<index_t> component(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) component[static_cast<std::size_t>(i)] = (i / 3) % 5;
  spatial::KdTreeAnnotations notes;
  const exec::Executor& serial = exec::default_executor(exec::serial_backend());
  tree.annotate_components(serial, component, notes);
  tree.annotate_min_core(serial, core_sq, notes);
  for (const bool mreach : {false, true}) {
    const auto query = [&](index_t q, const std::uint64_t* bound) {
      const index_t mine = component[static_cast<std::size_t>(q)];
      return mreach ? tree.nearest_other_component_mreach(q, mine, component, core_sq, notes,
                                                          bound)
                    : tree.nearest_other_component(q, mine, component, notes, bound);
    };
    for (index_t q = 0; q < n; q += 3) {
      const Neighbor exact = query(q, nullptr);
      const std::uint64_t at = exec::order_preserving_bits(exact.squared_distance);
      const Neighbor bounded = query(q, &at);
      ASSERT_EQ(bounded.index, exact.index) << "q=" << q << " mreach=" << mreach;
      ASSERT_EQ(bounded.squared_distance, exact.squared_distance);
      const std::uint64_t below = at - 1;
      ASSERT_GT(exec::order_preserving_bits(query(q, &below).squared_distance), below)
          << "q=" << q << " mreach=" << mreach;
    }
  }
}

TEST(KdTree, WarmComponentQueriesAllocateNothing) {
  // Borůvka issues one component query per stale point per round, so the
  // traversal stack is per-thread scratch rather than a per-query vector.
  const PointSet points = data::gaussian_blobs(2000, 3, 5, 0.05, 0.1, 4);
  const KdTree tree(points);
  std::vector<Neighbor> scratch;
  std::vector<double> core_sq(2000);
  for (index_t q = 0; q < 2000; ++q) {
    tree.knn(q, 3, scratch);
    core_sq[static_cast<std::size_t>(q)] = scratch.back().squared_distance;
  }
  std::vector<index_t> component(2000);
  for (index_t i = 0; i < 2000; ++i) component[static_cast<std::size_t>(i)] = i % 3;
  spatial::KdTreeAnnotations notes;
  const exec::Executor& serial = exec::default_executor(exec::serial_backend());
  tree.annotate_components(serial, component, notes);
  tree.annotate_min_core(serial, core_sq, notes);
  const std::uint64_t no_bound = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t visited = 0;
  const auto query_all = [&] {
    double sum = 0;
    for (index_t q = 0; q < 2000; q += 7) {
      const index_t mine = component[static_cast<std::size_t>(q)];
      sum += tree.nearest_other_component(q, mine, component, notes).squared_distance;
      sum += tree.nearest_other_component_mreach(q, mine, component, core_sq, notes, &no_bound,
                                                 &visited)
                 .squared_distance;
    }
    return sum;
  };
  const double warm = query_all();
  const pandora::testing::AllocationCounterScope scope;
  const double steady = query_all();
  EXPECT_EQ(scope.count(), 0u) << "warm component queries must not touch the heap";
  EXPECT_EQ(steady, warm);
  EXPECT_GT(visited, 0u);
}

TEST(KdTree, KthNeighborDistancesSerialEqualsParallel) {
  const PointSet points = data::normal_points(2000, 3, 12);
  const KdTree tree(points);
  const auto serial = spatial::kth_neighbor_distances(exec::default_executor(exec::serial_backend()), points, tree, 4);
  const auto parallel = spatial::kth_neighbor_distances(exec::default_executor(), points, tree, 4);
  EXPECT_EQ(serial, parallel);
  // And each equals brute force.
  for (index_t q = 0; q < 2000; q += 97) {
    const auto expected = spatial::brute_force_knn(points, q, 4);
    EXPECT_DOUBLE_EQ(serial[static_cast<std::size_t>(q)],
                     std::sqrt(expected.back().squared_distance));
  }
}

void expect_same_tree(const PointSet& points, int leaf_size) {
  // The level-parallel build on a 4-worker pool against the serial backend:
  // same node ranges, splits and leaf blocks, so the same answers.
  const exec::Executor pool(exec::pinned_pool_backend(), 4);
  const exec::Executor& serial = exec::default_executor(exec::serial_backend());
  const KdTree parallel_tree(pool, points, leaf_size);
  const KdTree serial_tree(serial, points, leaf_size);
  const index_t n = points.size();
  SCOPED_TRACE(::testing::Message() << "n=" << n);
  ASSERT_TRUE(std::ranges::equal(parallel_tree.tree_order(), serial_tree.tree_order()));

  const auto expect_same = [](const std::vector<Neighbor>& a, const std::vector<Neighbor>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].index, b[i].index);
      ASSERT_EQ(a[i].squared_distance, b[i].squared_distance);
    }
  };
  std::vector<index_t> component(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) component[static_cast<std::size_t>(i)] = i % 3;
  spatial::KdTreeAnnotations parallel_notes, serial_notes;
  parallel_tree.annotate_components(serial, component, parallel_notes);
  serial_tree.annotate_components(serial, component, serial_notes);
  std::vector<Neighbor> a, b;
  for (index_t q = 0; q < n; q += n / 400 + 1) {
    parallel_tree.knn(q, 8, a);
    serial_tree.knn(q, 8, b);
    expect_same(a, b);
    const index_t mine = component[static_cast<std::size_t>(q)];
    const Neighbor pa = parallel_tree.nearest_other_component(q, mine, component, parallel_notes);
    const Neighbor sa = serial_tree.nearest_other_component(q, mine, component, serial_notes);
    ASSERT_EQ(pa.index, sa.index) << "q=" << q;
    ASSERT_EQ(pa.squared_distance, sa.squared_distance) << "q=" << q;
  }
  const std::vector<double> origin(static_cast<std::size_t>(points.dim()), 0.25);
  parallel_tree.knn(origin, 8, a);
  serial_tree.knn(origin, 8, b);
  expect_same(a, b);
}

TEST(KdTree, ParallelBuildMatchesSerialBuild) {
  const int leaf = 32;
  for (const index_t n : {0, 1, leaf, leaf + 1})
    expect_same_tree(data::uniform_points(n, 3, 7 + static_cast<std::uint64_t>(n)), leaf);
  expect_same_tree(data::make_dataset("HaccProxy", 20000, 1), leaf);

  // Duplicate-heavy: 2000 points on 50 locations, so medians split ties.
  PointSet duplicates(2, 2000);
  Rng rng(8);
  std::vector<double> xs(50), ys(50);
  for (int i = 0; i < 50; ++i) xs[static_cast<std::size_t>(i)] = rng.next_double();
  for (int i = 0; i < 50; ++i) ys[static_cast<std::size_t>(i)] = rng.next_double();
  for (index_t i = 0; i < 2000; ++i) {
    duplicates.at(i, 0) = xs[static_cast<std::size_t>(i % 50)];
    duplicates.at(i, 1) = ys[static_cast<std::size_t>((i * 7) % 50)];
  }
  expect_same_tree(duplicates, leaf);
  expect_same_tree(duplicates, 4);
}

}  // namespace
