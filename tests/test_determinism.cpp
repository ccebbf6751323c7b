// Cross-cutting determinism matrix: every pipeline output must be
// bit-identical across execution spaces, repeats, AND OpenMP thread counts.
// Determinism is a design invariant (canonical union-find representatives,
// stable sorts, index tie-breaks) that the performance work must never break.

#include <gtest/gtest.h>
#include <omp.h>

#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/spatial/emst.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using pandora::testing::Topology;
using pandora::testing::make_tree;

/// Scoped OpenMP thread-count override.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved_); }

 private:
  int saved_;
};

class ThreadSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweep, ::testing::Values(1, 2, 3, 8, 16),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST_P(ThreadSweep, PandoraDendrogramIsThreadCountInvariant) {
  const graph::EdgeList tree = make_tree(Topology::preferential, 30000, 11, /*distinct=*/4);
  const auto reference = dendrogram::pandora_dendrogram(exec::default_executor(), tree, 30000);
  ThreadCountGuard guard(GetParam());
  const auto under_test = dendrogram::pandora_dendrogram(exec::default_executor(), tree, 30000);
  ASSERT_EQ(under_test.parent, reference.parent);
  ASSERT_EQ(under_test.edge_order, reference.edge_order);
}

TEST_P(ThreadSweep, EmstIsThreadCountInvariant) {
  const spatial::PointSet points = data::power_law_blobs(5000, 3, 12, 1.2, 5);
  spatial::KdTree reference_tree(points);
  const auto reference =
      spatial::euclidean_mst(exec::default_executor(), points, reference_tree);
  ThreadCountGuard guard(GetParam());
  spatial::KdTree tree(points);
  const auto under_test = spatial::euclidean_mst(exec::default_executor(), points, tree);
  ASSERT_EQ(under_test.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    ASSERT_EQ(under_test[i], reference[i]) << "edge " << i;
}

/// Tie-heavy mutual-reachability inputs: an integer grid, where every
/// lattice distance repeats thousands of times, and the jittered street grid.
std::vector<spatial::PointSet> tie_heavy_point_sets() {
  spatial::PointSet grid(2, 60 * 60);
  for (index_t i = 0; i < 60 * 60; ++i) {
    grid.at(i, 0) = static_cast<double>(i % 60);
    grid.at(i, 1) = static_cast<double>(i / 60);
  }
  std::vector<spatial::PointSet> sets;
  sets.push_back(std::move(grid));
  sets.push_back(data::make_dataset("RoadNetProxy", 5000, 3));
  return sets;
}

/// Checks edge-by-edge that the mutual-reachability MST built on `exec`
/// matches the serial backend's, on every tie-heavy input and mpts.
void expect_mreach_emst_matches_serial(const exec::Executor& exec) {
  const exec::Executor serial(exec::serial_backend());
  for (const spatial::PointSet& points : tie_heavy_point_sets()) {
    const spatial::KdTree tree(points);
    for (const int min_pts : {2, 4, 16}) {
      const std::vector<double> core = hdbscan::core_distances(serial, points, tree, min_pts);
      const auto reference = spatial::mutual_reachability_mst(serial, points, tree, core);
      const auto under_test = spatial::mutual_reachability_mst(exec, points, tree, core);
      ASSERT_EQ(under_test.size(), reference.size()) << "mpts " << min_pts;
      for (std::size_t i = 0; i < reference.size(); ++i)
        ASSERT_EQ(under_test[i], reference[i]) << "mpts " << min_pts << ", edge " << i;
    }
  }
}

TEST_P(ThreadSweep, MreachEmstIsThreadCountInvariant) {
  // Queries prune against per-component bounds other threads lower while
  // they run, so which nodes a query visits depends on the interleaving;
  // the edges chosen must not.
  ThreadCountGuard guard(GetParam());
  expect_mreach_emst_matches_serial(exec::default_executor());
}

TEST(Determinism, MreachEmstOnPinnedPoolMatchesSerial) {
  // The pinned pool runs real std::threads even where OpenMP is capped at
  // one thread, so under TSan this is the test that race-checks the shared
  // bound's relaxed loads against the atomic-min stores.
  expect_mreach_emst_matches_serial(exec::Executor(exec::pinned_pool_backend(), 4));
}

TEST_P(ThreadSweep, HdbscanLabelsAreThreadCountInvariant) {
  const spatial::PointSet points = data::gaussian_blobs(4000, 2, 6, 0.03, 0.1, 17);
  hdbscan::HdbscanOptions options;
  options.min_pts = 4;
  options.min_cluster_size = 20;
  const auto reference = hdbscan::hdbscan(exec::default_executor(), points, options);
  ThreadCountGuard guard(GetParam());
  const auto under_test = hdbscan::hdbscan(exec::default_executor(), points, options);
  ASSERT_EQ(under_test.labels, reference.labels);
  ASSERT_EQ(under_test.dendrogram.parent, reference.dendrogram.parent);
}

TEST(Determinism, WorkspaceReuseIsBitIdenticalAcrossRepeatedCalls) {
  // The Executor's workspace hands repeated calls recycled buffers with stale
  // contents; results must nevertheless be bit-identical call after call,
  // and identical to a fresh-executor run (the arena is invisible).
  const graph::EdgeList tree = make_tree(Topology::preferential, 25000, 19, /*distinct=*/4);
  const exec::Executor fresh(exec::default_backend());
  const auto reference = dendrogram::pandora_dendrogram(fresh, tree, 25000);

  const exec::Executor reused(exec::default_backend());
  for (int repeat = 0; repeat < 4; ++repeat) {
    const auto d = dendrogram::pandora_dendrogram(reused, tree, 25000);
    ASSERT_EQ(d.parent, reference.parent) << "repeat " << repeat;
    ASSERT_EQ(d.edge_order, reference.edge_order) << "repeat " << repeat;
    ASSERT_EQ(d.weight, reference.weight) << "repeat " << repeat;
  }
  // And the steady state really is allocation-free, so the identical results
  // above genuinely exercised recycled buffers.
  reused.workspace().reset_stats();
  (void)dendrogram::pandora_dendrogram(reused, tree, 25000);
  EXPECT_EQ(reused.workspace().stats().misses, 0u);
}

TEST(Determinism, WorkspaceReuseAcrossDifferentInputSizes) {
  // Shrinking and regrowing inputs on one executor must not leak state
  // between calls.
  const exec::Executor executor(exec::default_backend());
  for (const index_t n : {20000, 500, 20000, 7777, 20000}) {
    const graph::EdgeList tree = make_tree(Topology::random_attach, n, 23, 0);
    const exec::Executor isolated(exec::default_backend());
    const auto expected = dendrogram::pandora_dendrogram(isolated, tree, n);
    const auto got = dendrogram::pandora_dendrogram(executor, tree, n);
    ASSERT_EQ(got.parent, expected.parent) << "n=" << n;
  }
}

TEST(Determinism, HdbscanOnReusedExecutorIsBitIdentical) {
  const spatial::PointSet points = data::gaussian_blobs(3000, 2, 5, 0.03, 0.1, 29);
  hdbscan::HdbscanOptions options;
  options.min_pts = 4;
  options.min_cluster_size = 15;
  const exec::Executor executor(exec::default_backend());
  const auto first = hdbscan::hdbscan(executor, points, options);
  for (int repeat = 0; repeat < 2; ++repeat) {
    const auto again = hdbscan::hdbscan(executor, points, options);
    ASSERT_EQ(again.labels, first.labels);
    ASSERT_EQ(again.dendrogram.parent, first.dendrogram.parent);
  }
}

TEST(Determinism, RngStreamsAreStablePerSeed) {
  Rng a(12345), b(12345), c(54321);
  bool diverged = false;
  for (int i = 0; i < 1000; ++i) {
    const auto va = a.next_u64();
    ASSERT_EQ(va, b.next_u64());
    diverged |= va != c.next_u64();
  }
  EXPECT_TRUE(diverged);
}

TEST(Determinism, GeneratorsAreThreadCountInvariant) {
  // Generators are sequential by design; a thread-count change around them
  // must not matter.  (Guards against someone parallelising them without
  // per-point seeding.)
  const auto reference = data::make_dataset("HaccProxy", 20000, 3);
  ThreadCountGuard guard(2);
  const auto under_test = data::make_dataset("HaccProxy", 20000, 3);
  EXPECT_EQ(under_test.coords(), reference.coords());
}

}  // namespace
