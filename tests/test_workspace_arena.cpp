// The acceptance property of the size-class byte arena: a second identical
// pipeline run on a warm Executor performs ZERO heap allocations — the whole
// hot path (edge sort into the output, contraction hierarchy, expansion,
// output vectors) runs out of recycled storage.  Verified with a replaced global
// operator new, not just the workspace's own lease statistics.

#include "alloc_counter.hpp"  // must precede everything that allocates

#include <gtest/gtest.h>

#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/exec/failpoint.hpp"
#include "pandora/pipeline.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using pandora::testing::AllocationCounterScope;
using pandora::testing::Topology;
using pandora::testing::make_tree;

class ArenaBothSpaces : public ::testing::TestWithParam<std::shared_ptr<const exec::Backend>> {};

INSTANTIATE_TEST_SUITE_P(Backends, ArenaBothSpaces,
                         ::testing::ValuesIn(exec::registered_backends()),
                         [](const auto& info) { return std::string(info.param->name()); });

TEST_P(ArenaBothSpaces, SecondIdenticalPipelineRunAllocatesNothing) {
  const index_t nv = 30000;
  const graph::EdgeList tree = make_tree(Topology::preferential, nv, 3, 0);
  // A 4-thread budget forces the parallel code path even on small machines
  // (the serial backend grants 1 regardless; the pinned pool clamps).
  const exec::Executor executor(GetParam(), 4);
  const auto pipeline = Pipeline::on(executor);

  dendrogram::Dendrogram out;
  pipeline.build_dendrogram_into(tree, nv, out);  // warm-up: sizes the arena
  pipeline.build_dendrogram_into(tree, nv, out);  // settles OpenMP team state
  const dendrogram::Dendrogram reference = out;   // copy for the equality check

  executor.workspace().reset_stats();
  const AllocationCounterScope scope;
  pipeline.build_dendrogram_into(tree, nv, out);
  EXPECT_EQ(scope.count(), 0u)
      << "the steady-state pipeline must not touch the heap at all";
  EXPECT_EQ(executor.workspace().stats().misses, 0u);
  EXPECT_GT(executor.workspace().stats().takes, 0u);

  EXPECT_EQ(out.parent, reference.parent);
  EXPECT_EQ(out.weight, reference.weight);
  EXPECT_EQ(out.edge_order, reference.edge_order);
}

TEST_P(ArenaBothSpaces, DistinctMstOfTheSameSizeAllocatesNothing) {
  // The cold path sorts into the output Dendrogram, so a new MST of a size
  // the executor has seen runs out of recycled storage too — on a caching
  // executor, where nothing of either MST is stored.
  const index_t nv = 30000;
  const graph::EdgeList first = make_tree(Topology::preferential, nv, 3, 0);
  const graph::EdgeList second = make_tree(Topology::preferential, nv, 4, 0);
  const exec::Executor executor(GetParam(), 4);
  ASSERT_TRUE(executor.artifact_caching());

  dendrogram::Dendrogram out;
  dendrogram::pandora_dendrogram_into(executor, first, nv, out);  // warm-up: sizes the arena
  dendrogram::pandora_dendrogram_into(executor, first, nv, out);  // settles OpenMP team state

  executor.workspace().reset_stats();
  {
    const AllocationCounterScope scope;
    dendrogram::pandora_dendrogram_into(executor, second, nv, out);
    EXPECT_EQ(scope.count(), 0u) << "a cold build of a same-sized MST must not touch the heap";
  }
  EXPECT_EQ(executor.workspace().stats().misses, 0u);
  const exec::ArtifactCache::Stats cache = executor.artifact_cache().stats();
  EXPECT_EQ(cache.hits + cache.misses, 0u) << "the plain path neither looks up nor inserts";

  const exec::Executor fresh(exec::serial_backend());
  const dendrogram::Dendrogram expected = dendrogram::pandora_dendrogram(fresh, second, nv);
  EXPECT_EQ(out.parent, expected.parent);
  EXPECT_EQ(out.weight, expected.weight);
  EXPECT_EQ(out.edge_order, expected.edge_order);
}

TEST(Arena, LargerQueryAfterSmallerGrowsAndStaysCorrect) {
  // Size-class growth: a bigger query after a smaller one allocates the
  // larger classes once, produces correct output, and subsequent repeats of
  // the bigger query are allocation-free again.
  const graph::EdgeList small_tree = make_tree(Topology::random_attach, 4000, 5, 0);
  const graph::EdgeList big_tree = make_tree(Topology::random_attach, 50000, 6, 0);
  const exec::Executor executor(exec::default_backend(), 4);
  const auto pipeline = Pipeline::on(executor);

  dendrogram::Dendrogram out;
  pipeline.build_dendrogram_into(small_tree, 4000, out);
  pipeline.build_dendrogram_into(big_tree, 50000, out);  // growth happens here

  // Correctness against a cold executor.
  const exec::Executor fresh(exec::default_backend(), 4);
  const auto expected = dendrogram::pandora_dendrogram(fresh, big_tree, 50000);
  EXPECT_EQ(out.parent, expected.parent);
  EXPECT_EQ(out.edge_order, expected.edge_order);

  pipeline.build_dendrogram_into(big_tree, 50000, out);  // settle
  const AllocationCounterScope scope;
  pipeline.build_dendrogram_into(big_tree, 50000, out);
  EXPECT_EQ(scope.count(), 0u);

  // And shrinking back reuses the big blocks rather than allocating small
  // ones (the size-class search serves smaller requests from larger classes).
  executor.workspace().reset_stats();
  pipeline.build_dendrogram_into(small_tree, 4000, out);
  EXPECT_EQ(executor.workspace().stats().misses, 0u);
  const auto expected_small = dendrogram::pandora_dendrogram(fresh, small_tree, 4000);
  EXPECT_EQ(out.parent, expected_small.parent);
}

TEST(Arena, InjectedFaultMidPipelineReleasesEveryLease) {
  // Exception safety of the lease discipline: a kernel aborted mid-flight
  // (fault injected at a run_chunks launch, while scratch leases are live)
  // must return every block to the arena on unwind.  Proof: the rerun on the
  // same warm executor is still steady-state — zero heap allocations, zero
  // arena misses — and bit-identical.  The ASan CI entries additionally
  // leak-check the unwind itself.
  const index_t nv = 30000;
  const graph::EdgeList tree = make_tree(Topology::random_attach, nv, 9, 0);
  const exec::Executor executor(exec::default_backend(), 4);
  const auto pipeline = Pipeline::on(executor);

  dendrogram::Dendrogram out;
  pipeline.build_dendrogram_into(tree, nv, out);  // warm-up: sizes the arena
  pipeline.build_dendrogram_into(tree, nv, out);
  const dendrogram::Dendrogram reference = out;

  exec::failpoint::arm("exec.run_chunks", {exec::failpoint::Kind::error, 2, 1});
  EXPECT_THROW(pipeline.build_dendrogram_into(tree, nv, out),
               exec::failpoint::InjectedFault);
  exec::failpoint::disarm("exec.run_chunks");

  executor.workspace().reset_stats();
  const AllocationCounterScope scope;
  pipeline.build_dendrogram_into(tree, nv, out);
  EXPECT_EQ(scope.count(), 0u)
      << "an aborted run leaked leases: the rerun had to allocate";
  EXPECT_EQ(executor.workspace().stats().misses, 0u);
  EXPECT_EQ(out.parent, reference.parent);
  EXPECT_EQ(out.weight, reference.weight);
}

TEST(Arena, CancelledQueryReleasesEveryLease) {
  // Same discipline under cooperative cancellation: a deadline'd query that
  // unwinds with Cancelled leaves the arena whole and reusable.
  const spatial::PointSet points = data::gaussian_blobs(4000, 2, 4, 0.05, 0.05, 13);
  const exec::Executor executor(exec::default_backend(), 4);
  const auto pipeline = Pipeline::on(executor).with_min_pts(3);
  const auto reference = pipeline.run_hdbscan(points);  // warm-up

  EXPECT_THROW(
      (void)Pipeline::on(executor).with_min_pts(3).with_deadline(std::chrono::nanoseconds(1))
          .run_hdbscan(points),
      Cancelled);

  executor.workspace().reset_stats();
  const auto rerun = pipeline.run_hdbscan(points);
  EXPECT_EQ(executor.workspace().stats().misses, 0u);
  EXPECT_EQ(rerun.labels, reference.labels);
}

TEST(Arena, RepeatedHdbscanReusesScratch) {
  // End-to-end sanity at the workspace-stats level: repeated full HDBSCAN*
  // queries on one executor lease everything from the arena.
  const spatial::PointSet points = data::gaussian_blobs(4000, 2, 4, 0.05, 0.05, 11);
  const exec::Executor executor(exec::default_backend(), 4);
  const auto pipeline = Pipeline::on(executor).with_min_pts(3).with_min_cluster_size(20);
  const auto first = pipeline.run_hdbscan(points);
  executor.workspace().reset_stats();
  const auto second = pipeline.run_hdbscan(points);
  EXPECT_EQ(executor.workspace().stats().misses, 0u)
      << "repeated identical hdbscan queries must reuse every leased buffer";
  EXPECT_EQ(first.labels, second.labels);
}

}  // namespace
