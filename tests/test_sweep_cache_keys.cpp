// Cache-key correctness under parameter sweeps: two different
// min_cluster_size / mpts / leaf_size values over the same inputs must never
// alias a fingerprint, and mutated inputs must miss.  Also checks the sweep
// front doors against independent ground-truth runs.

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <set>

#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/exec/fingerprint.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/pipeline.hpp"
#include "pandora/spatial/emst.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using pandora::testing::Topology;
using pandora::testing::make_tree;

TEST(Fingerprint, CombineSeparatesParametersAndOrder) {
  const std::uint64_t base = 0x1234'5678'9abc'def0ULL;
  std::set<std::uint64_t> keys;
  for (std::uint64_t param = 0; param < 64; ++param)
    keys.insert(exec::combine_fingerprint(base, param));
  EXPECT_EQ(keys.size(), 64u) << "every parameter value derives a distinct key";
  EXPECT_NE(exec::combine_fingerprint(1, 2), exec::combine_fingerprint(2, 1))
      << "parameter order is part of the key";
  std::set<std::uint64_t> tagged;
  for (const exec::ArtifactTag tag :
       {exec::ArtifactTag::kdtree, exec::ArtifactTag::core_distance,
        exec::ArtifactTag::dendrogram, exec::ArtifactTag::emst}) {
    tagged.insert(exec::tagged_fingerprint(tag, base));
  }
  EXPECT_EQ(tagged.size(), 4u) << "artifact kinds never share keys even for identical inputs";
  EXPECT_EQ(tagged.count(base), 0u) << "no kind keys on the raw input fingerprint";
}

TEST(PointSetFingerprint, SensitiveToEveryCoordinateAndShape) {
  const exec::Executor executor(exec::serial_backend());
  const spatial::PointSet points = data::uniform_points(500, 3, 11);
  const std::uint64_t base = spatial::point_set_fingerprint(executor, points);
  EXPECT_EQ(base, spatial::point_set_fingerprint(executor, points)) << "deterministic";

  spatial::PointSet mutated = points;
  mutated.at(250, 1) += 1e-12;
  EXPECT_NE(base, spatial::point_set_fingerprint(executor, mutated));

  spatial::PointSet swapped = points;
  std::swap(swapped.at(0, 0), swapped.at(1, 0));
  EXPECT_NE(base, spatial::point_set_fingerprint(executor, swapped))
      << "point order is part of the key";

  // Serial and parallel executors agree (deterministic left-to-right sum).
  const exec::Executor parallel(exec::default_backend(), 4);
  EXPECT_EQ(base, spatial::point_set_fingerprint(parallel, points));
}

TEST(KdTreeCache, HitsSameObjectMissesMutatedAndOtherLeafSizes) {
  const exec::Executor executor(exec::serial_backend());
  spatial::PointSet points = data::uniform_points(800, 2, 3);

  const auto first = spatial::kdtree_cached(executor, points);
  const auto second = spatial::kdtree_cached(executor, points);
  EXPECT_EQ(first.get(), second.get()) << "a hit replays the cached tree";

  const auto other_leaf = spatial::kdtree_cached(executor, points, /*leaf_size=*/8);
  EXPECT_NE(first.get(), other_leaf.get()) << "leaf_size is part of the key";
  EXPECT_EQ(other_leaf->leaf_size(), 8);

  points.at(100, 0) += 0.5;  // mutate: the old tree is stale
  const auto rebuilt = spatial::kdtree_cached(executor, points);
  EXPECT_NE(first.get(), rebuilt.get()) << "mutated inputs must miss";

  // A content-identical but distinct PointSet object must not be served a
  // tree that references someone else's storage.
  const spatial::PointSet copy = points;
  const auto for_copy = spatial::kdtree_cached(executor, copy);
  EXPECT_NE(rebuilt.get(), for_copy.get());
  EXPECT_EQ(&for_copy->points(), &copy);
}

TEST(CoreDistanceCache, MptsValuesNeverAlias) {
  const exec::Executor executor(exec::serial_backend());
  const spatial::PointSet points = data::gaussian_blobs(600, 2, 4, 0.05, 0.2, 21);
  const auto tree = spatial::kdtree_cached(executor, points);

  const auto at4 = hdbscan::core_distances_cached(executor, points, *tree, 4);
  const auto at8 = hdbscan::core_distances_cached(executor, points, *tree, 8);
  EXPECT_NE(at4.get(), at8.get()) << "mpts is part of the key";
  EXPECT_EQ(at4->values, hdbscan::core_distances(executor, points, *tree, 4));
  EXPECT_EQ(at8->values, hdbscan::core_distances(executor, points, *tree, 8));

  const auto at4_again = hdbscan::core_distances_cached(executor, points, *tree, 4);
  EXPECT_EQ(at4.get(), at4_again.get()) << "same mpts replays";

  spatial::PointSet mutated = points;
  mutated.at(0, 0) += 1.0;
  const auto mutated_tree = spatial::kdtree_cached(executor, mutated);
  const auto mutated_core = hdbscan::core_distances_cached(executor, mutated, *mutated_tree, 4);
  EXPECT_NE(at4.get(), mutated_core.get()) << "mutated inputs must miss";
}

TEST(EmstCache, MptsValuesNeverAliasAndSweepsSkipBoruvka) {
  const exec::Executor executor(exec::serial_backend());
  const spatial::PointSet points = data::gaussian_blobs(600, 2, 4, 0.05, 0.2, 22);
  const auto tree = spatial::kdtree_cached(executor, points);
  const auto core4 = hdbscan::core_distances_cached(executor, points, *tree, 4);
  const auto core8 = hdbscan::core_distances_cached(executor, points, *tree, 8);

  const auto at4 = spatial::mutual_reachability_mst_cached(executor, points, *tree, core4->values, 4);
  const auto at8 = spatial::mutual_reachability_mst_cached(executor, points, *tree, core8->values, 8);
  EXPECT_NE(at4.get(), at8.get()) << "mpts is part of the key";
  EXPECT_EQ(*at4, spatial::mutual_reachability_mst(executor, points, *tree, core4->values));
  EXPECT_EQ(*at8, spatial::mutual_reachability_mst(executor, points, *tree, core8->values));

  const auto at4_again =
      spatial::mutual_reachability_mst_cached(executor, points, *tree, core4->values, 4);
  EXPECT_EQ(at4.get(), at4_again.get()) << "same mpts replays without Borůvka";

  spatial::PointSet mutated = points;
  mutated.at(0, 0) += 1.0;
  const auto mutated_tree = spatial::kdtree_cached(executor, mutated);
  const auto mutated_core = hdbscan::core_distances_cached(executor, mutated, *mutated_tree, 4);
  const auto mutated_mst = spatial::mutual_reachability_mst_cached(executor, mutated,
                                                                   *mutated_tree, mutated_core->values, 4);
  EXPECT_NE(at4.get(), mutated_mst.get()) << "mutated inputs must miss";

  // The mcs-sweep front door replays the whole prefix — including the EMST —
  // on a second identical call (the ROADMAP follow-up this cache exists for).
  const std::array<index_t, 2> sizes = {5, 25};
  (void)hdbscan::hdbscan_sweep_min_cluster_size(executor, points, sizes, {.min_pts = 4});
  const auto before = executor.artifact_cache().stats();
  const auto sweep = hdbscan::hdbscan_sweep_min_cluster_size(executor, points, sizes,
                                                             {.min_pts = 4});
  const auto after = executor.artifact_cache().stats();
  EXPECT_GE(after.hits - before.hits, 4u)
      << "kd-tree, core distances, EMST and dendrogram all replay";
  EXPECT_EQ(after.misses, before.misses) << "a warm sweep recomputes nothing";
  EXPECT_EQ(sweep.mst, *at4);
}

TEST(DendrogramCache, KeyedOnMst) {
  const exec::Executor executor(exec::serial_backend());
  const graph::EdgeList tree = make_tree(Topology::random_attach, 4000, 5, 0);

  const auto cached = dendrogram::pandora_dendrogram_cached(executor, tree, 4000);
  const auto again = dendrogram::pandora_dendrogram_cached(executor, tree, 4000);
  EXPECT_EQ(cached.get(), again.get()) << "identical queries replay";
  EXPECT_EQ(cached->parent, dendrogram::pandora_dendrogram(executor, tree, 4000).parent);

  graph::EdgeList mutated = tree;
  mutated[2000].weight *= 1.5;
  const auto rebuilt = dendrogram::pandora_dendrogram_cached(executor, mutated, 4000);
  EXPECT_NE(cached.get(), rebuilt.get()) << "mutated MSTs must miss";
}

TEST(DendrogramCache, AMissLooksUpOnce) {
  // A cold call hashes the MST for its own key and sorts straight into the
  // new entry: one lookup, one miss, and no other artifact beside it.
  const exec::Executor executor(exec::serial_backend());
  const graph::EdgeList tree = make_tree(Topology::random_attach, 3000, 7, 0);
  const auto built = dendrogram::pandora_dendrogram_cached(executor, tree, 3000);
  const exec::ArtifactCache::Stats stats = executor.artifact_cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);

  const exec::Executor reference(exec::serial_backend());
  reference.set_artifact_caching(false);
  const dendrogram::Dendrogram expected = dendrogram::pandora_dendrogram(reference, tree, 3000);
  EXPECT_EQ(built->parent, expected.parent);
  EXPECT_EQ(built->edge_order, expected.edge_order);
  EXPECT_EQ(built->weight, expected.weight);
}

TEST(DendrogramCache, ValidationIsMonotone) {
  graph::EdgeList bad = make_tree(Topology::random_attach, 500, 3, 0);
  bad[100].weight = std::numeric_limits<double>::infinity();

  const exec::Executor cold(exec::serial_backend());
  EXPECT_THROW((void)dendrogram::pandora_dendrogram_cached(cold, bad, 500, true),
               std::invalid_argument)
      << "a validating miss validates before it builds";

  // An entry built unvalidated is validated by the first validating hit.
  const exec::Executor warm(exec::serial_backend());
  (void)dendrogram::pandora_dendrogram_cached(warm, bad, 500, false);
  EXPECT_THROW((void)dendrogram::pandora_dendrogram_cached(warm, bad, 500, true),
               std::invalid_argument);
}

TEST(DendrogramCache, RepeatedHdbscanReplaysTheDendrogram) {
  // A second hdbscan() over the same points on the same executor replays the
  // dendrogram from the cache: no contraction or expansion phase runs, and
  // the result is bit-identical to the first call's.
  const spatial::PointSet points = data::gaussian_blobs(1200, 2, 3, 0.05, 0.2, 17);
  for (const int threads : {1, 4}) {
    const exec::Executor executor(exec::default_backend(), threads);
    hdbscan::HdbscanOptions options;
    options.min_pts = 4;

    PhaseTimes first_times;
    hdbscan::HdbscanResult first;
    {
      const exec::ScopedPhaseTimes scope(executor, &first_times);
      first = hdbscan::hdbscan(executor, points, options);
    }
    EXPECT_EQ(first_times.all().count("contraction"), 1u) << "the cold call builds";

    PhaseTimes second_times;
    hdbscan::HdbscanResult second;
    {
      const exec::ScopedPhaseTimes scope(executor, &second_times);
      second = hdbscan::hdbscan(executor, points, options);
    }
    EXPECT_EQ(second_times.all().count("contraction"), 0u) << threads << " threads";
    EXPECT_EQ(second_times.all().count("expansion"), 0u) << threads << " threads";
    EXPECT_EQ(second.dendrogram.parent, first.dendrogram.parent);
    EXPECT_EQ(second.dendrogram.edge_order, first.dendrogram.edge_order);
    EXPECT_EQ(second.labels, first.labels);
  }
}

TEST(Sweeps, MinClusterSizeSweepMatchesIndependentRuns) {
  const spatial::PointSet points = data::gaussian_blobs(700, 2, 4, 0.04, 0.25, 33);
  const exec::Executor executor(exec::default_backend(), 4);
  const std::array<index_t, 3> sizes = {3, 10, 40};

  const hdbscan::MinClusterSizeSweep sweep =
      Pipeline::on(executor).with_min_pts(4).sweep_min_cluster_size(points, sizes);
  ASSERT_EQ(sweep.entries.size(), sizes.size());

  // Ground truth from an executor with caching disabled: nothing can alias.
  const exec::Executor reference(exec::default_backend(), 4);
  reference.set_artifact_caching(false);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    hdbscan::HdbscanOptions options;
    options.min_pts = 4;
    options.min_cluster_size = sizes[i];
    const hdbscan::HdbscanResult expected = hdbscan::hdbscan(reference, points, options);
    EXPECT_EQ(sweep.entries[i].min_cluster_size, sizes[i]);
    EXPECT_EQ(sweep.entries[i].labels, expected.labels) << "mcs=" << sizes[i];
    EXPECT_EQ(sweep.entries[i].num_clusters, expected.num_clusters) << "mcs=" << sizes[i];
    EXPECT_EQ(sweep.entries[i].condensed_tree.num_clusters(),
              expected.condensed_tree.num_clusters())
        << "mcs=" << sizes[i];
  }
  // Different min_cluster_size values must genuinely differ somewhere for
  // this dataset, or the aliasing test above would be vacuous.
  EXPECT_NE(sweep.entries.front().condensed_tree.num_clusters(),
            sweep.entries.back().condensed_tree.num_clusters());
}

TEST(Sweeps, MinPtsSweepMatchesIndependentRuns) {
  const spatial::PointSet points = data::gaussian_blobs(600, 3, 3, 0.05, 0.3, 44);
  const exec::Executor executor(exec::default_backend(), 4);
  const std::array<int, 3> mpts = {2, 4, 8};

  const std::vector<hdbscan::HdbscanResult> sweep =
      Pipeline::on(executor).with_min_cluster_size(10).sweep_min_pts(points, mpts);
  ASSERT_EQ(sweep.size(), mpts.size());

  const exec::Executor reference(exec::default_backend(), 4);
  reference.set_artifact_caching(false);
  for (std::size_t i = 0; i < mpts.size(); ++i) {
    hdbscan::HdbscanOptions options;
    options.min_pts = mpts[i];
    options.min_cluster_size = 10;
    const hdbscan::HdbscanResult expected = hdbscan::hdbscan(reference, points, options);
    EXPECT_EQ(sweep[i].labels, expected.labels) << "mpts=" << mpts[i];
    EXPECT_EQ(sweep[i].core_distances, expected.core_distances) << "mpts=" << mpts[i];
    EXPECT_EQ(sweep[i].mst, expected.mst) << "mpts=" << mpts[i];
  }
  // The sweep's own core distances must differ across mpts (no aliasing).
  EXPECT_NE(sweep[0].core_distances, sweep[2].core_distances);
}

}  // namespace
