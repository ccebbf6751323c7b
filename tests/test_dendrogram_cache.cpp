// The cross-call dendrogram cache and the cold path beside it: the MST
// fingerprint the cache keys on, plain builders that never touch the cache,
// plain-vs-cached bit-identity, validation on the plain path, and LRU
// eviction of dendrogram entries.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "pandora/dendrogram/expansion.hpp"
#include "pandora/dendrogram/mixed.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using pandora::testing::Topology;
using pandora::testing::make_tree;

TEST(MstFingerprint, SensitiveToEveryInput) {
  const exec::Executor executor(exec::serial_backend());
  graph::EdgeList tree = make_tree(Topology::random_attach, 1000, 3, 0);
  const std::uint64_t base = dendrogram::mst_fingerprint(executor, tree, 1000);
  EXPECT_EQ(base, dendrogram::mst_fingerprint(executor, tree, 1000)) << "deterministic";

  graph::EdgeList weight_changed = tree;
  weight_changed[500].weight += 1e-12;
  EXPECT_NE(base, dendrogram::mst_fingerprint(executor, weight_changed, 1000));

  graph::EdgeList endpoint_changed = tree;
  std::swap(endpoint_changed[500].u, endpoint_changed[500].v);
  EXPECT_NE(base, dendrogram::mst_fingerprint(executor, endpoint_changed, 1000));

  graph::EdgeList reordered = tree;
  std::swap(reordered[1], reordered[2]);
  EXPECT_NE(base, dendrogram::mst_fingerprint(executor, reordered, 1000))
      << "the fingerprint is order-sensitive (edge ids are the tie-break)";

  EXPECT_NE(base, dendrogram::mst_fingerprint(executor, tree, 1001));

  // Serial and parallel executors agree (deterministic left-to-right sum).
  const exec::Executor parallel(exec::default_backend(), 4);
  EXPECT_EQ(base, dendrogram::mst_fingerprint(parallel, tree, 1000));
}

TEST(PlainDendrogram, NeverTouchesTheArtifactCache) {
  // A cold build pays for its sort and nothing else: no MST hash, no lookup,
  // no insert — on a caching executor, for PANDORA and every baseline.
  const graph::EdgeList tree = make_tree(Topology::preferential, 6000, 7, 2);
  const exec::Executor executor(exec::default_backend(), 4);
  ASSERT_TRUE(executor.artifact_caching());

  dendrogram::Dendrogram out;
  (void)dendrogram::pandora_dendrogram(executor, tree, 6000);
  dendrogram::pandora_dendrogram_into(executor, tree, 6000, out, true);
  (void)dendrogram::union_find_dendrogram(executor, tree, 6000);
  (void)dendrogram::mixed_dendrogram(executor, tree, 6000);
  (void)dendrogram::single_level_dendrogram(executor, tree, 6000);
  const exec::ArtifactCache::Stats stats = executor.artifact_cache().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u) << "every insert follows a lookup, so 0 lookups = 0 inserts";

  // Nothing was left behind for the cached path to find.
  (void)dendrogram::pandora_dendrogram_cached(executor, tree, 6000);
  EXPECT_EQ(executor.artifact_cache().stats().misses, 1u);
  EXPECT_EQ(executor.artifact_cache().stats().hits, 0u);
}

TEST(PlainDendrogram, AgreesWithTheCachedPath) {
  const graph::EdgeList tree = make_tree(Topology::caterpillar, 12000, 4, 3);
  const exec::Executor cached_executor(exec::default_backend(), 4);
  const exec::Executor uncached_executor(exec::default_backend(), 4);
  uncached_executor.set_artifact_caching(false);

  const auto plain = dendrogram::pandora_dendrogram(cached_executor, tree, 12000);
  const auto built = dendrogram::pandora_dendrogram_cached(cached_executor, tree, 12000);
  const auto replayed = dendrogram::pandora_dendrogram_cached(cached_executor, tree, 12000);
  const auto uncached = dendrogram::pandora_dendrogram_cached(uncached_executor, tree, 12000);
  EXPECT_EQ(built.get(), replayed.get());
  for (const dendrogram::Dendrogram* d : {built.get(), uncached.get()}) {
    EXPECT_EQ(plain.parent, d->parent);
    EXPECT_EQ(plain.weight, d->weight);
    EXPECT_EQ(plain.edge_order, d->edge_order);
  }

  // The baselines sort on their own and agree node for node.
  EXPECT_EQ(dendrogram::union_find_dendrogram(cached_executor, tree, 12000).parent,
            plain.parent);
  EXPECT_EQ(dendrogram::union_find_dendrogram(uncached_executor, tree, 12000).parent,
            plain.parent);
}

TEST(PlainDendrogram, ValidatesEveryCall) {
  // A cycle is not a tree.  The sort itself does not validate.
  const graph::EdgeList cycle{{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 3.0}};
  const exec::Executor executor(exec::serial_backend());
  EXPECT_EQ(dendrogram::sort_edges(executor, cycle, 3, false).num_edges(), 3);
  EXPECT_THROW((void)dendrogram::sort_edges(executor, cycle, 3, true), std::invalid_argument);
  EXPECT_THROW((void)dendrogram::pandora_dendrogram(executor, cycle, 3, true),
               std::invalid_argument);
  EXPECT_THROW((void)dendrogram::union_find_dendrogram(executor, cycle, 3, true),
               std::invalid_argument);
  EXPECT_THROW((void)dendrogram::single_level_dendrogram(executor, cycle, 3, true),
               std::invalid_argument);

  // A rejected `_into` call leaves the previous output as it was.
  const graph::EdgeList tree = make_tree(Topology::random_attach, 200, 5, 0);
  dendrogram::Dendrogram out;
  dendrogram::pandora_dendrogram_into(executor, tree, 200, out);
  const dendrogram::Dendrogram before = out;
  EXPECT_THROW(dendrogram::pandora_dendrogram_into(executor, cycle, 3, out, true),
               std::invalid_argument);
  EXPECT_EQ(out.parent, before.parent);
  EXPECT_EQ(out.weight, before.weight);
  EXPECT_EQ(out.edge_order, before.edge_order);

  // An unvalidated cached entry of the same input does not launder it.
  graph::EdgeList bad = tree;
  bad[100].weight = std::numeric_limits<double>::infinity();
  (void)dendrogram::pandora_dendrogram_cached(executor, bad, 200, false);
  EXPECT_THROW((void)dendrogram::pandora_dendrogram(executor, bad, 200, true),
               std::invalid_argument);
}

TEST(DendrogramCache, DisabledCachingRebuilds) {
  const graph::EdgeList tree = make_tree(Topology::broom, 3000, 9, 0);
  const exec::Executor executor(exec::serial_backend());
  executor.set_artifact_caching(false);
  const auto first = dendrogram::pandora_dendrogram_cached(executor, tree, 3000);
  const auto second = dendrogram::pandora_dendrogram_cached(executor, tree, 3000);
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(first->parent, second->parent);
  const exec::ArtifactCache::Stats stats = executor.artifact_cache().stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u) << "no key is hashed with caching off";
}

TEST(DendrogramCache, EvictionKeepsCorrectness) {
  const exec::Executor executor(exec::serial_backend());
  executor.artifact_cache().clear();
  std::vector<graph::EdgeList> trees;
  for (std::uint64_t seed = 0; seed < exec::ArtifactCache::kDefaultSlots + 4; ++seed)
    trees.push_back(make_tree(Topology::random_attach, 500, seed, 0));
  for (const auto& tree : trees) (void)dendrogram::pandora_dendrogram_cached(executor, tree, 500);
  EXPECT_GT(executor.artifact_cache().stats().evictions, 0u);
  // The earliest trees were evicted; re-querying must still be correct.
  for (const auto& tree : trees) {
    const auto cached = dendrogram::pandora_dendrogram_cached(executor, tree, 500);
    EXPECT_EQ(cached->parent, dendrogram::pandora_dendrogram(executor, tree, 500).parent);
  }
}

}  // namespace
