// Structural properties of the recursive tree contraction (Sections 3.2/4.2):
// alpha-edge counts, level-count bounds, vertex-map consistency.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "pandora/dendrogram/analysis.hpp"
#include "pandora/dendrogram/contraction.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using dendrogram::ContractionHierarchy;
using dendrogram::SortedEdges;
using pandora::testing::Topology;
using pandora::testing::all_topologies;
using pandora::testing::make_tree;
using pandora::testing::topology_name;

ContractionHierarchy hierarchy_of(const graph::EdgeList& tree, index_t nv,
                                  const std::shared_ptr<const exec::Backend>& space) {
  const SortedEdges sorted = dendrogram::sort_edges(exec::default_executor(space), tree, nv);
  std::vector<index_t> gid(static_cast<std::size_t>(sorted.num_edges()));
  std::iota(gid.begin(), gid.end(), index_t{0});
  return dendrogram::build_hierarchy(exec::default_executor(space), sorted.u, sorted.v, std::move(gid), nv,
                                     sorted.num_edges());
}

class ContractionSweep : public ::testing::TestWithParam<std::tuple<Topology, index_t>> {};

INSTANTIATE_TEST_SUITE_P(Sweep, ContractionSweep,
                         ::testing::Combine(::testing::ValuesIn(all_topologies()),
                                            ::testing::Values<index_t>(2, 17, 128, 1000, 4096)));

TEST_P(ContractionSweep, PaperBoundsHold) {
  const auto& [topo, nv] = GetParam();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const graph::EdgeList tree = make_tree(topo, nv, seed);
    const index_t n = nv - 1;
    const ContractionHierarchy h = hierarchy_of(tree, nv, exec::default_backend());

    // Section 4.2: at most ceil(log2(n+1)) contraction levels.
    const auto level_bound =
        static_cast<index_t>(std::ceil(std::log2(static_cast<double>(n) + 1))) + 1;
    EXPECT_LE(h.num_levels(), std::max<index_t>(level_bound, 1))
        << topology_name(topo) << " n=" << n;

    index_t total_edges = 0;
    for (index_t l = 0; l < h.num_levels(); ++l) {
      const auto& level = h.levels[static_cast<std::size_t>(l)];
      // n_alpha <= (n_level - 1) / 2 (Section 4.2).
      EXPECT_LE(2 * level.num_alpha, std::max<index_t>(level.num_edges - 1, 0))
          << "level " << l;
      // The next level is exactly the alpha edges.
      if (l + 1 < h.num_levels()) {
        EXPECT_EQ(h.levels[static_cast<std::size_t>(l) + 1].num_edges, level.num_alpha);
      }
      total_edges += level.num_edges - level.num_alpha;
    }
    EXPECT_EQ(total_edges, n) << "every edge contracted exactly once (or in the final chain)";

    // Fate arrays: every edge has a level; only final-level edges lack a
    // supervertex.
    for (index_t g = 0; g < n; ++g) {
      const index_t lvl = h.contraction_level[static_cast<std::size_t>(g)];
      ASSERT_NE(lvl, kNone);
      if (h.supervertex[static_cast<std::size_t>(g)] == kNone)
        EXPECT_EQ(lvl, h.num_levels() - 1);
      else
        EXPECT_LT(h.supervertex[static_cast<std::size_t>(g)],
                  h.levels[static_cast<std::size_t>(lvl) + 1].num_vertices);
    }
  }
}

TEST_P(ContractionSweep, VertexMapsComposeToConnectedPartitions) {
  const auto& [topo, nv] = GetParam();
  const graph::EdgeList tree = make_tree(topo, nv, 1);
  const ContractionHierarchy h = hierarchy_of(tree, nv, exec::serial_backend());
  for (index_t l = 0; l + 1 < h.num_levels(); ++l) {
    const auto& level = h.levels[static_cast<std::size_t>(l)];
    ASSERT_EQ(static_cast<index_t>(level.vertex_map.size()), level.num_vertices);
    const index_t next_nv = h.levels[static_cast<std::size_t>(l) + 1].num_vertices;
    std::vector<bool> hit(static_cast<std::size_t>(next_nv), false);
    for (const index_t sv : level.vertex_map) {
      ASSERT_GE(sv, 0);
      ASSERT_LT(sv, next_nv);
      hit[static_cast<std::size_t>(sv)] = true;
    }
    EXPECT_TRUE(std::all_of(hit.begin(), hit.end(), [](bool b) { return b; }))
        << "vertex map onto level " << l + 1 << " must be surjective";
  }
}

TEST_P(ContractionSweep, SidedParentsAreIncidentEdges) {
  const auto& [topo, nv] = GetParam();
  const graph::EdgeList tree = make_tree(topo, nv, 2);
  const SortedEdges sorted = dendrogram::sort_edges(exec::default_executor(exec::serial_backend()), tree, nv);
  std::vector<index_t> gid(static_cast<std::size_t>(sorted.num_edges()));
  std::iota(gid.begin(), gid.end(), index_t{0});
  const ContractionHierarchy h = dendrogram::build_hierarchy(exec::default_executor(exec::serial_backend()), sorted.u, sorted.v, std::move(gid), nv, sorted.num_edges());

  // Level 0 sided parents are Eq. (1): the lightest incident edge, with the
  // side bit naming the endpoint.
  const auto& sided = h.levels[0].sided_parent;
  for (index_t v = 0; v < nv; ++v) {
    const auto g = static_cast<index_t>(sided[static_cast<std::size_t>(v)] >> 1);
    const bool side = (sided[static_cast<std::size_t>(v)] & 1) != 0;
    const index_t endpoint = side ? sorted.v[static_cast<std::size_t>(g)]
                                  : sorted.u[static_cast<std::size_t>(g)];
    ASSERT_EQ(endpoint, v) << "side bit must name the vertex's own endpoint";
    // No incident edge may be lighter (larger index).
    for (index_t e = 0; e < sorted.num_edges(); ++e)
      if (sorted.u[static_cast<std::size_t>(e)] == v ||
          sorted.v[static_cast<std::size_t>(e)] == v) {
        ASSERT_LE(e, g);
      }
  }
}

TEST(Contraction, StarTreeContractsInOneLevel) {
  // Every star edge is incident to the hub; only the hub's maxIncident rule
  // applies, so no edge is alpha and the recursion stops immediately.
  graph::EdgeList tree = data::star_tree(500);
  pandora::Rng rng(1);
  data::assign_random_weights(tree, rng);
  const ContractionHierarchy h = hierarchy_of(tree, 500, exec::default_backend());
  EXPECT_EQ(h.num_levels(), 1);
  EXPECT_EQ(h.levels[0].num_alpha, 0);
}

TEST(Contraction, AlphaCountMatchesDendrogramClassification) {
  // The alpha edges found by local incidence (Eq. 2) are exactly the edge
  // nodes with two edge children in the final dendrogram.
  for (const Topology topo : all_topologies()) {
    const graph::EdgeList tree = make_tree(topo, 600, 5);
    const ContractionHierarchy h = hierarchy_of(tree, 600, exec::default_backend());
    const auto d = dendrogram::pandora_dendrogram(exec::default_executor(), tree, 600);
    const auto counts = dendrogram::classify_edges(d);
    EXPECT_EQ(h.levels[0].num_alpha, counts.alpha_edges) << topology_name(topo);
    // And the paper's identity n_alpha = n_leaf - 1.
    EXPECT_EQ(counts.alpha_edges, counts.leaf_edges - 1) << topology_name(topo);
  }
}

// --- hierarchy identity across backends --------------------------------------

/// The four dendrogram-benchmark shapes: random attachment, preferential
/// attachment with quantised (tied) weights, caterpillar, and the star with
/// increasing weights under a random relabelling.
graph::EdgeList skew_tree(int shape, index_t nv, std::uint64_t seed) {
  pandora::Rng rng(seed);
  graph::EdgeList tree;
  switch (shape) {
    case 0:
      tree = data::random_attachment_tree(nv, rng);
      data::assign_random_weights(tree, rng);
      break;
    case 1:
      tree = data::preferential_attachment_tree(nv, rng);
      data::assign_random_weights(tree, rng, 256);
      break;
    case 2:
      tree = data::caterpillar_tree(nv);
      data::assign_random_weights(tree, rng);
      break;
    default: {
      tree = data::star_tree(nv);
      data::assign_increasing_weights(tree);
      std::vector<index_t> label(static_cast<std::size_t>(nv));
      std::iota(label.begin(), label.end(), index_t{0});
      for (std::size_t i = label.size() - 1; i > 0; --i)
        std::swap(label[i], label[static_cast<std::size_t>(rng.next_below(i + 1))]);
      for (auto& e : tree) {
        e.u = label[static_cast<std::size_t>(e.u)];
        e.v = label[static_cast<std::size_t>(e.v)];
      }
    }
  }
  return tree;
}

/// A tree whose level 1 is a random tree over exactly `level1_vertices`
/// vertices: vertex k of it is the pair (2k, 2k+1) joined by a light edge,
/// which is the maxIncident of both, so every heavier edge between pairs is
/// an α-edge of level 0.
graph::EdgeList paired_tree(index_t level1_vertices, std::uint64_t seed) {
  pandora::Rng rng(seed);
  graph::EdgeList tree;
  for (index_t k = 0; k < level1_vertices; ++k)
    tree.push_back({2 * k, 2 * k + 1, rng.uniform(0.0, 0.5)});
  for (index_t k = 1; k < level1_vertices; ++k) {
    const auto other = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(k)));
    tree.push_back({2 * k + static_cast<index_t>(rng.next_below(2)),
                    2 * other + static_cast<index_t>(rng.next_below(2)), rng.uniform(1.0, 2.0)});
  }
  return tree;
}

/// Index of the first differing element, or -1 when the spans are equal.
template <class T>
std::ptrdiff_t first_mismatch(std::span<const T> a, std::span<const T> b) {
  if (a.size() != b.size()) return static_cast<std::ptrdiff_t>(std::min(a.size(), b.size()));
  const auto it = std::mismatch(a.begin(), a.end(), b.begin());
  return it.first == a.end() ? -1 : it.first - a.begin();
}

void expect_same_hierarchy(const ContractionHierarchy& want, const ContractionHierarchy& got,
                           const std::string& where) {
  ASSERT_EQ(want.num_levels(), got.num_levels()) << where;
  for (index_t l = 0; l < want.num_levels(); ++l) {
    const auto& a = want.levels[static_cast<std::size_t>(l)];
    const auto& b = got.levels[static_cast<std::size_t>(l)];
    ASSERT_EQ(a.num_vertices, b.num_vertices) << where << " level " << l;
    ASSERT_EQ(a.num_edges, b.num_edges) << where << " level " << l;
    ASSERT_EQ(a.num_alpha, b.num_alpha) << where << " level " << l;
    EXPECT_EQ(first_mismatch(a.sided_parent, b.sided_parent), -1)
        << where << " sided_parent, level " << l;
    EXPECT_EQ(first_mismatch(a.vertex_map, b.vertex_map), -1)
        << where << " vertex_map, level " << l;
  }
  EXPECT_EQ(first_mismatch(want.contraction_level, got.contraction_level), -1)
      << where << " contraction_level";
  EXPECT_EQ(first_mismatch(want.supervertex, got.supervertex), -1) << where << " supervertex";
}

TEST(Contraction, HierarchyIsIdenticalOnEveryBackendAndThreadCount) {
  // The owner-computes maxIncident and the pointer-forest contraction have
  // no order-dependent step, so every array of the hierarchy (not only the
  // dendrogram) matches the serial reference; the pinned-pool case is the
  // race check of the owner pass and the concurrent path-halving finds.
  struct Case {
    std::string name;
    graph::EdgeList tree;
    index_t nv;
  };
  std::vector<Case> cases;
  const char* const shapes[] = {"random", "preferential", "caterpillar", "star"};
  for (int shape = 0; shape < 4; ++shape)
    cases.push_back({shapes[shape], skew_tree(shape, 20000, 9001 + shape), 20000});
  // Level 1 with exactly kParallelForGrain vertices but one edge fewer: the
  // per-vertex passes split across chunks, the per-edge passes run serially.
  const auto grain = static_cast<index_t>(exec::kParallelForGrain);
  cases.push_back({"grain-straddle", paired_tree(grain, 7), 2 * grain});
  cases.push_back({"grain-straddle+1", paired_tree(grain + 1, 8), 2 * (grain + 1)});

  std::vector<std::pair<std::string, std::unique_ptr<exec::Executor>>> executors;
  executors.emplace_back("serial", std::make_unique<exec::Executor>(exec::serial_backend()));
  for (const int threads : {2, 3, 4, 8})
    executors.emplace_back("openmp x" + std::to_string(threads),
                           std::make_unique<exec::Executor>(exec::openmp_backend(), threads));
  executors.emplace_back("pinned x4",
                         std::make_unique<exec::Executor>(exec::pinned_pool_backend(), 4));

  for (const Case& c : cases) {
    const exec::Executor& reference_exec = *executors.front().second;
    const SortedEdges sorted = dendrogram::sort_edges(reference_exec, c.tree, c.nv);
    const ContractionHierarchy reference = dendrogram::build_hierarchy(
        reference_exec, sorted.u, sorted.v, {}, c.nv, sorted.num_edges());
    if (c.name.starts_with("grain-straddle")) {
      ASSERT_GE(reference.num_levels(), 3) << c.name;
      EXPECT_EQ(reference.levels[1].num_vertices, c.nv / 2) << c.name;
    }
    const std::vector<index_t> union_find =
        dendrogram::union_find_dendrogram(reference_exec, c.tree, c.nv).parent;

    for (const auto& [name, executor_ptr] : executors) {
      const exec::Executor& executor = *executor_ptr;
      const ContractionHierarchy h = dendrogram::build_hierarchy(
          executor, sorted.u, sorted.v, {}, c.nv, sorted.num_edges());
      expect_same_hierarchy(reference, h, c.name + " on " + name);
      const dendrogram::Dendrogram d = dendrogram::pandora_dendrogram(executor, c.tree, c.nv);
      EXPECT_EQ(first_mismatch<index_t>(d.parent, union_find), -1) << c.name << " on " << name;
    }
  }
}

}  // namespace
