// The batched serving layer: result parity with sequential execution, the
// small/large work-division policy, per-slot steady-state arena behaviour,
// shared-ArtifactCache replay across slots, and exception isolation.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/pipeline.hpp"
#include "pandora/serve/batch_executor.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using pandora::testing::Topology;
using pandora::testing::dendrogram_job;
using pandora::testing::make_tree;

std::vector<graph::EdgeList> make_batch_trees(index_t num_vertices, std::size_t count) {
  std::vector<graph::EdgeList> trees;
  trees.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    trees.push_back(make_tree(Topology::random_attach, num_vertices, 100 + i, 0));
  return trees;
}

/// Builds the dendrograms of `trees` (vertex counts `sizes`) as one batch,
/// one `dendrogram_job` per tree, into `out`; every job must end ok.
void build_batch(serve::BatchExecutor& batch, const std::vector<graph::EdgeList>& trees,
                 const std::vector<index_t>& sizes, std::vector<dendrogram::Dendrogram>& out) {
  out.resize(trees.size());
  std::vector<serve::BatchExecutor::Job> jobs;
  for (std::size_t i = 0; i < trees.size(); ++i)
    jobs.push_back(dendrogram_job(trees[i], sizes[i], out[i]));
  for (const serve::JobResult& result : batch.run_jobs(jobs))
    EXPECT_EQ(result.outcome, serve::JobOutcome::ok);
}

TEST(BatchExecutor, BatchedDendrogramsMatchSequential) {
  const exec::Executor parent(exec::default_backend(), 4);
  serve::BatchExecutor batch(parent);

  // Mixed sizes straddling the small/large threshold, so both phases of the
  // scheduler run.
  std::vector<graph::EdgeList> trees;
  std::vector<index_t> sizes = {500, 40000, 1200, 800, 40000, 2000};
  for (std::size_t i = 0; i < sizes.size(); ++i)
    trees.push_back(make_tree(Topology::preferential, sizes[i], 7 * i + 1, i % 2 ? 5 : 0));
  ASSERT_GT(static_cast<size_type>(trees[1].size()), batch.options().small_query_threshold);
  ASSERT_LT(static_cast<size_type>(trees[0].size()), batch.options().small_query_threshold);

  std::vector<dendrogram::Dendrogram> batched;
  build_batch(batch, trees, sizes, batched);

  // Sequential reference on an independent executor.
  const exec::Executor reference(exec::default_backend(), 4);
  ASSERT_EQ(batched.size(), trees.size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    const dendrogram::Dendrogram expected =
        dendrogram::pandora_dendrogram(reference, trees[i], sizes[i]);
    EXPECT_EQ(batched[i].parent, expected.parent) << "query " << i;
    EXPECT_EQ(batched[i].weight, expected.weight) << "query " << i;
    EXPECT_EQ(batched[i].edge_order, expected.edge_order) << "query " << i;
  }
}

TEST(BatchExecutor, BatchedHdbscanMatchesSequential) {
  const exec::Executor parent(exec::default_backend(), 4);
  serve::BatchExecutor batch(parent);

  std::vector<spatial::PointSet> point_sets;
  for (unsigned seed = 0; seed < 4; ++seed)
    point_sets.push_back(data::gaussian_blobs(400, 2, 3, 0.03, 0.2, seed));

  hdbscan::HdbscanOptions options;
  options.min_pts = 4;
  options.min_cluster_size = 10;
  std::vector<hdbscan::HdbscanResult> batched(point_sets.size());
  std::vector<serve::BatchExecutor::Job> jobs;
  for (std::size_t i = 0; i < point_sets.size(); ++i) {
    jobs.push_back({[&, i](const exec::Executor& exec) {
                      batched[i] = hdbscan::hdbscan(exec, point_sets[i], options);
                    },
                    static_cast<size_type>(point_sets[i].size())});
  }
  for (const serve::JobResult& result : batch.run_jobs(jobs))
    EXPECT_EQ(result.outcome, serve::JobOutcome::ok);

  const exec::Executor reference(exec::default_backend(), 4);
  for (std::size_t i = 0; i < point_sets.size(); ++i) {
    const hdbscan::HdbscanResult expected = hdbscan::hdbscan(reference, point_sets[i], options);
    EXPECT_EQ(batched[i].labels, expected.labels) << "query " << i;
    EXPECT_EQ(batched[i].num_clusters, expected.num_clusters) << "query " << i;
    EXPECT_EQ(batched[i].dendrogram.parent, expected.dendrogram.parent) << "query " << i;
  }
}

TEST(BatchExecutor, SlotArenasReachSteadyState) {
  const exec::Executor parent(exec::default_backend(), 4);
  serve::BatchExecutor batch(parent);
  // Caching off so every batch re-sorts through the slot arenas (with it on,
  // the second batch would hit the SortedEdges cache and lease nothing).
  parent.set_artifact_caching(false);

  // Same-shaped queries: once a slot has processed one, its arena holds
  // blocks of every size class the shape needs.  The dynamic queue means a
  // slot may sit out early batches (and so still miss later), so the
  // guarantee is *convergence*: within a few batches, a whole batch leases
  // everything from recycled per-slot blocks.
  const std::vector<graph::EdgeList> trees = make_batch_trees(4000, 8);
  const std::vector<index_t> sizes(trees.size(), 4000);

  const auto total_misses = [&] {
    std::size_t misses = 0;
    for (int s = 0; s < batch.num_slots(); ++s)
      misses += batch.slot(s).workspace().stats().misses;
    return misses;
  };

  std::vector<dendrogram::Dendrogram> out;
  build_batch(batch, trees, sizes, out);  // cold batch
  std::size_t previous = total_misses();
  bool steady = false;
  for (int round = 0; round < 20 && !steady; ++round) {
    build_batch(batch, trees, sizes, out);
    const std::size_t now = total_misses();
    steady = now == previous;
    previous = now;
  }
  EXPECT_TRUE(steady)
      << "warm batches of same-shaped queries must stop allocating: every "
         "slot leases its scratch from recycled arena blocks";
}

TEST(BatchExecutor, SlotsShareTheParentArtifactCache) {
  const exec::Executor parent(exec::default_backend(), 4);
  serve::BatchExecutor batch(parent);

  const graph::EdgeList tree = make_tree(Topology::random_attach, 3000, 42, 0);
  // Warm the parent cache, then batch N identical queries: every slot must
  // replay the parent's artifact instead of re-sorting.
  (void)dendrogram::sorted_edges_cached(parent, tree, 3000);
  const auto warm_stats = parent.artifact_cache().stats();

  std::vector<dendrogram::Dendrogram> results(8);
  std::vector<serve::BatchExecutor::Job> jobs;
  for (dendrogram::Dendrogram& out : results) jobs.push_back(dendrogram_job(tree, 3000, out));
  for (const serve::JobResult& result : batch.run_jobs(jobs))
    EXPECT_EQ(result.outcome, serve::JobOutcome::ok);
  const auto stats = parent.artifact_cache().stats();
  EXPECT_GE(stats.hits - warm_stats.hits, jobs.size())
      << "all slots look up the shared cache and hit the pre-warmed artifact";
  for (const auto& d : results) EXPECT_EQ(d.parent, results[0].parent);
}

TEST(BatchExecutor, LargeJobsOverlapTheSmallDrain) {
  // Concurrency witness: a small job blocks until a large job has started,
  // so only a scheduler that drains the large queue while small jobs are
  // still in flight can finish this batch.
  const exec::Executor parent(exec::default_backend(), 2);
  std::atomic<bool> large_started{false};
  std::vector<serve::BatchExecutor::Job> jobs;
  jobs.push_back({[&](const exec::Executor&) {
                    while (!large_started.load()) std::this_thread::yield();
                  },
                  /*size_hint=*/16});
  jobs.push_back({[&](const exec::Executor&) { large_started.store(true); },
                  /*size_hint=*/100000});
  serve::BatchExecutor witness(parent, {.small_query_threshold = 2000});
  for (const serve::JobResult& result : witness.run_jobs(jobs))  // deadlocks without overlap
    EXPECT_EQ(result.outcome, serve::JobOutcome::ok);
  EXPECT_TRUE(large_started.load());
}

TEST(BatchExecutor, ExceptionsAreIsolatedPerJob) {
  const exec::Executor parent(exec::default_backend(), 2);
  serve::BatchExecutor batch(parent);

  std::atomic<int> completed{0};
  std::vector<serve::BatchExecutor::Job> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back({[i, &completed](const exec::Executor&) {
                      if (i == 2) throw std::runtime_error("poisoned query");
                      completed.fetch_add(1);
                    },
                    /*size_hint=*/16});
  }
  const std::vector<serve::JobResult> results = batch.run_jobs(jobs);
  EXPECT_EQ(completed.load(), 5) << "one poisoned query must not abort its batchmates";
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].outcome, i == 2 ? serve::JobOutcome::failed : serve::JobOutcome::ok)
        << "job " << i;
  }
  EXPECT_THROW(std::rethrow_exception(results[2].error), std::runtime_error);
}

TEST(BatchExecutor, PipelineBatchFrontDoor) {
  const exec::Executor executor(exec::default_backend(), 2);
  const std::vector<graph::EdgeList> trees = make_batch_trees(1500, 3);

  serve::BatchExecutor batch = Pipeline::on(executor).batch();
  std::vector<dendrogram::Dendrogram> dendrograms;
  build_batch(batch, trees, std::vector<index_t>(trees.size(), 1500), dendrograms);
  ASSERT_EQ(dendrograms.size(), 3u);
  for (std::size_t i = 0; i < trees.size(); ++i) {
    const auto expected = dendrogram::pandora_dendrogram(executor, trees[i], 1500);
    EXPECT_EQ(dendrograms[i].parent, expected.parent);
  }
}

}  // namespace
