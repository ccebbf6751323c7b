#include "pandora/spatial/emst.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include "pandora/common/expect.hpp"
#include "pandora/exec/fingerprint.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/exec/sort.hpp"
#include "pandora/graph/union_find.hpp"
#include "pandora/obs/metrics.hpp"

namespace pandora::spatial {

namespace {

/// Stale-point queries per `run_chunks` chunk of phase 1b.
constexpr index_t kQueriesPerChunk = 256;

/// Borůvka shape counters, recorded once per build, round or chunk.
struct EmstMetrics {
  obs::Counter& rounds;
  obs::Counter& queries;
  obs::Counter& reuses;
  obs::Counter& nodes_visited;
  obs::Counter& seeded;
  obs::Counter& bound_skips;
};

const EmstMetrics& emst_metrics() {
  static const EmstMetrics metrics{
      obs::registry().counter("pandora_emst_rounds_total"),
      obs::registry().counter("pandora_emst_queries_total"),
      obs::registry().counter("pandora_emst_candidate_reuses_total"),
      obs::registry().counter("pandora_emst_nodes_visited_total"),
      obs::registry().counter("pandora_emst_round1_seeded_total"),
      obs::registry().counter("pandora_emst_bound_skips_total")};
  return metrics;
}

/// Shared Borůvka skeleton over the components of a (possibly pre-seeded)
/// union-find; `use_mreach` selects the metric (core_sq must be the squared
/// core distances then).  Starting from singletons this is the full EMST;
/// starting from the components of a partial tree it joins exactly those
/// components with minimum-weight edges (the dynamic subsystem's erase path).
/// `round1_seed` (empty, or one entry per point) holds certified round-1
/// candidates of a singleton start; see `hdbscan::CoreDistances`.
graph::EdgeList boruvka_emst(const exec::Executor& exec, const PointSet& points,
                             const KdTree& tree, const std::vector<double>& core_sq,
                             bool use_mreach, graph::ConcurrentUnionFind& uf,
                             std::span<const index_t> round1_seed) {
  const index_t n = points.size();
  graph::EdgeList mst;
  if (n <= 1) return mst;

  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  // Sentinel for the atomic-min tie-break slots: must compare larger than
  // every real point id (kNone would win every min).
  constexpr index_t kUnset = std::numeric_limits<index_t>::max();
  std::vector<index_t> component(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> best_weight(static_cast<std::size_t>(n), kInf);
  std::vector<index_t> best_point(static_cast<std::size_t>(n), kUnset);
  std::vector<Neighbor> point_best(static_cast<std::size_t>(n));
  // Per point, a lower bound on the order-preserving bits of its exact
  // foreign minimum.  The foreign set only shrinks, so the minimum only
  // grows and a bound stays valid in every later round.
  std::vector<std::uint64_t> lower(static_cast<std::size_t>(n), 0);
  std::vector<index_t> roots;
  roots.reserve(static_cast<std::size_t>(n));
  for (index_t p = 0; p < n; ++p)
    if (uf.find(p) == p) roots.push_back(p);
  const auto joins_needed = static_cast<std::size_t>(roots.size()) - 1;
  mst.reserve(joins_needed);
  // Only a pre-seeded join can have a dominant component worth benching; a
  // full build starts from singletons, skips the per-round component-size
  // scan entirely, and so keeps its pre-existing behaviour (edge selection
  // included) bit for bit.
  const bool seeded = static_cast<index_t>(roots.size()) < n;

  // Query-local annotations: the (possibly cached, shared) tree stays const.
  KdTreeAnnotations notes;
  if (use_mreach) tree.annotate_min_core(exec, core_sq, notes);

  const EmstMetrics& metrics = emst_metrics();
  // A seed is exactly the candidate p's round-1 query would return, scored
  // at c_p = core_sq[p]; pre-filled, it publishes in phase 1a and is reused
  // instead of queried.
  if (!round1_seed.empty()) {
    metrics.seeded.inc(exec::parallel_sum(exec, n, std::uint64_t{0}, [&](size_type p) {
      const index_t q = round1_seed[static_cast<std::size_t>(p)];
      if (q == kNone) return std::uint64_t{0};
      point_best[static_cast<std::size_t>(p)] = Neighbor{core_sq[static_cast<std::size_t>(p)], q};
      return std::uint64_t{1};
    }));
  }
  const std::span<const index_t> order = tree.tree_order();
  const int num_chunks = static_cast<int>((n + kQueriesPerChunk - 1) / kQueriesPerChunk);
  while (mst.size() < joins_needed) {
    metrics.rounds.inc();
    exec::parallel_for(exec, n, [&](size_type p) {
      component[static_cast<std::size_t>(p)] = uf.find(static_cast<index_t>(p));
    });
    tree.annotate_components(exec, component, notes);

    // When one component of a seeded join dominates (one giant survivor
    // plus small splinters after a few erases), it may sit the round out:
    // every edge crossing a component's cut is incident to one of its own
    // points, so each *small* component still finds its true minimum
    // outgoing edge from its own members' queries, and those selections
    // alone satisfy the cut property.  This turns a round's cost from n
    // tree queries into (n - |giant|).  The result stays an exact MST;
    // under exact distance ties the chosen edge *set* may differ from an
    // all-components-propose round (both are minimum weight).
    index_t passive = kNone;
    if (seeded) {
      index_t largest = kNone;
      size_type largest_size = 0;
      auto count_lease = exec.workspace().take<size_type>(n, 0);
      const std::span<size_type> count = count_lease.span();
      for (index_t p = 0; p < n; ++p) {
        const index_t c = component[static_cast<std::size_t>(p)];
        if (++count[static_cast<std::size_t>(c)] > largest_size) {
          largest_size = count[static_cast<std::size_t>(c)];
          largest = c;
        }
      }
      if (2 * largest_size >= n) passive = largest;
    }

    // Phase 1: every (active) point finds its nearest foreign point;
    // per-component minimum weight via atomic-min on the order-preserving
    // distance bits.
    //
    // A point's candidate from an earlier round stays *exact* while its
    // partner is still foreign: components only merge, so the foreign set
    // only shrinks, and a shrinking set that still contains the old
    // lexicographic minimum keeps it.  That reuse alone leaves most points
    // re-querying: on a 20k-point HaccProxy set at mpts 4, unbounded queries
    // ran 20000, 20000, 12557, 11484, 10968, 13216 and 18419 per round
    // (5.3n) and visited 0.64M, 0.72M, 0.54M, 0.64M, 0.79M, 1.17M and 1.46M
    // nodes: the late rounds, where most points sit in a giant component
    // and search far for a foreign point, cost the most.  Only the
    // component's minimum survives the round, so (as in the single-tree GPU
    // Borůvka of [39]) phase 1a first publishes every still-valid candidate
    // and phase 1b runs the stale queries against the live `best_weight[c]`
    // as a shared upper bound.  With that alone nearly every point queries
    // in every round (6.9n) and the rounds visit 0.64M, 0.43M, 0.36M, 0.38M,
    // 0.34M, 0.28M and 0.15M nodes, 2.6M in all instead of 6.0M.  Two more
    // cuts stop repeated searches: a round-1 seed from the core-distance
    // pass (`hdbscan::CoreDistances`) stands in for its point's round-1
    // query, and a cut query leaves a lower bound that lets its point skip
    // later queries the component's bound already rules out.  The rounds
    // then query 2409, 20000, 12837, 10169, 7695, 7649 and 13752 points
    // (3.7n), skip 0, 0, 5693, 9049, 11916, 12197 and 6239, and visit 0.07M,
    // 0.43M, 0.29M, 0.25M, 0.18M, 0.14M and 0.11M nodes, 1.46M in all (4
    // threads); round 2, where round 1's merges have made every seeded
    // candidate stale, is the largest.
    //
    // Exactness: a query cuts a node only when its lower bound is strictly
    // greater than the bound it loaded, and the bound only decreases, so
    // every cut node lies strictly above the bound re-read after the query.
    // A result at or below that re-read value is therefore the exact
    // (score, index) minimum, ties included; a result above it may not be,
    // but then its point could never have won the component, so it is
    // stored as `Neighbor{}` (stale next round) and not published.  Every
    // point whose exact candidate equals the component's minimum publishes
    // it, so phase 2 picks the same winner under any thread interleaving.
    // Such a dropped result and every node its query cut lie strictly above
    // the re-read bound R, so the point's exact foreign minimum is at least
    // R + 1 in bits, in this round and (the foreign set only shrinks) every
    // later one.  A stale point whose lower bound is strictly greater than
    // the live bound would therefore be dropped again: it skips the query
    // and stores the same `Neighbor{}`.
    const auto is_fresh = [&](const Neighbor& nb, index_t c) {
      return nb.index != kNone && component[static_cast<std::size_t>(nb.index)] != c;
    };
    // The giant proposes NOTHING — a partial minimum (e.g. over only its
    // cached members) would not be minimal across its cut and could hook a
    // wrong edge.  Its slot stays at the +inf sentinel, so phase 2 cannot
    // match a leftover cached candidate against it either.
    exec::parallel_for(exec, n, [&](size_type pi) {
      const auto p = static_cast<index_t>(pi);
      const index_t c = component[static_cast<std::size_t>(p)];
      const Neighbor nb = point_best[static_cast<std::size_t>(p)];
      if (c != passive && is_fresh(nb, c))
        exec::atomic_fetch_min(best_weight[static_cast<std::size_t>(c)],
                               exec::order_preserving_bits(nb.squared_distance));
    });
    // Stale queries run in tree order so each chunk's queries are spatially
    // coherent, in small chunks so uneven query costs balance across workers.
    const auto body = [&](int chunk) {
      const index_t lo = static_cast<index_t>(chunk) * kQueriesPerChunk;
      const index_t hi = std::min<index_t>(n, lo + kQueriesPerChunk);
      std::uint64_t queries = 0, reuses = 0, skips = 0, visited = 0;
      for (index_t i = lo; i < hi; ++i) {
        const index_t p = order[static_cast<std::size_t>(i)];
        const index_t c = component[static_cast<std::size_t>(p)];
        if (c == passive) continue;
        Neighbor& cached = point_best[static_cast<std::size_t>(p)];
        if (is_fresh(cached, c)) {
          ++reuses;
          continue;
        }
        std::uint64_t& bound = best_weight[static_cast<std::size_t>(c)];
        const std::atomic_ref<std::uint64_t> live(bound);
        std::uint64_t& lower_p = lower[static_cast<std::size_t>(p)];
        if (lower_p > live.load(std::memory_order_relaxed)) {
          ++skips;
          cached = Neighbor{};
          continue;
        }
        ++queries;
        const Neighbor nb =
            use_mreach ? tree.nearest_other_component_mreach(p, c, component, core_sq, notes,
                                                             &bound, &visited)
                       : tree.nearest_other_component(p, c, component, notes, &bound, &visited);
        const std::uint64_t bits = exec::order_preserving_bits(nb.squared_distance);
        const std::uint64_t reread = live.load(std::memory_order_relaxed);
        if (nb.index != kNone && bits <= reread) {
          cached = nb;
          exec::atomic_fetch_min(bound, bits);
        } else {
          cached = Neighbor{};
          if (reread != kInf) lower_p = std::max(lower_p, reread + 1);
        }
      }
      metrics.queries.inc(queries);
      metrics.reuses.inc(reuses);
      metrics.bound_skips.inc(skips);
      metrics.nodes_visited.inc(visited);
    };
    exec.run_chunks(num_chunks, exec.num_threads(), body);
    // Phase 2: among weight ties, the smallest point id wins (exact
    // lexicographic (weight, point) minimum without a 128-bit CAS).
    exec::parallel_for(exec, n, [&](size_type pi) {
      const auto p = static_cast<index_t>(pi);
      const Neighbor nb = point_best[static_cast<std::size_t>(p)];
      if (nb.index == kNone) return;
      const index_t c = component[static_cast<std::size_t>(p)];
      if (best_weight[static_cast<std::size_t>(c)] ==
          exec::order_preserving_bits(nb.squared_distance))
        exec::atomic_fetch_min(best_point[static_cast<std::size_t>(c)], p);
    });

    // Phase 3: hook the winners.  The union-find suppresses the duplicate
    // when two components choose each other.
    const std::size_t before = mst.size();
    for (const index_t r : roots) {
      const index_t p = best_point[static_cast<std::size_t>(r)];
      if (p == kUnset) continue;
      const Neighbor nb = point_best[static_cast<std::size_t>(p)];
      if (uf.find(p) != uf.find(nb.index)) {
        uf.unite(p, nb.index);
        mst.push_back({p, nb.index, std::sqrt(nb.squared_distance)});
      }
    }
    PANDORA_EXPECT(mst.size() > before, "Borůvka made no progress (duplicate points?)");

    std::vector<index_t> next_roots;
    next_roots.reserve(roots.size() / 2 + 1);
    for (const index_t r : roots) {
      if (uf.find(r) == r) next_roots.push_back(r);
      best_weight[static_cast<std::size_t>(r)] = kInf;
      best_point[static_cast<std::size_t>(r)] = kUnset;
    }
    roots.swap(next_roots);
  }
  return mst;
}

}  // namespace

graph::EdgeList euclidean_mst(const exec::Executor& exec, const PointSet& points,
                              const KdTree& tree) {
  graph::ConcurrentUnionFind uf(points.size());
  return boruvka_emst(exec, points, tree, {}, false, uf, {});
}

graph::EdgeList join_components_emst(const exec::Executor& exec, const PointSet& points,
                                     const KdTree& tree, graph::ConcurrentUnionFind& uf) {
  PANDORA_EXPECT(uf.size() == points.size(), "one union-find slot per point required");
  return boruvka_emst(exec, points, tree, {}, false, uf, {});
}

graph::EdgeList mutual_reachability_mst(const exec::Executor& exec, const PointSet& points,
                                        const KdTree& tree,
                                        std::span<const double> core_distances,
                                        std::span<const index_t> round1_seed) {
  PANDORA_EXPECT(static_cast<index_t>(core_distances.size()) == points.size(),
                 "one core distance per point required");
  PANDORA_EXPECT(round1_seed.empty() || round1_seed.size() == core_distances.size(),
                 "round-1 seeds: none, or one per point");
  std::vector<double> core_sq(core_distances.size());
  for (std::size_t i = 0; i < core_sq.size(); ++i)
    core_sq[i] = core_distances[i] * core_distances[i];
  graph::ConcurrentUnionFind uf(points.size());
  return boruvka_emst(exec, points, tree, core_sq, true, uf, round1_seed);
}

namespace {

/// An EMST artifact as stored in the Executor's ArtifactCache (cf.
/// CachedKdTree / CachedCoreDistances: the PointSet identity rules out a
/// content-identical but different object aliasing someone else's edges).
struct CachedEmst {
  graph::EdgeList mst;
  const PointSet* points = nullptr;
};

}  // namespace

std::shared_ptr<const graph::EdgeList> mutual_reachability_mst_cached(
    const exec::Executor& exec, const PointSet& points, const KdTree& tree,
    std::span<const double> core_distances, int min_pts,
    std::optional<std::uint64_t> points_fingerprint, std::span<const index_t> round1_seed) {
  // min_pts determines the core distances and with them the metric, so it is
  // folded into the key with the full mixer — two sweep values never alias
  // (see exec/fingerprint.hpp).
  std::shared_ptr<CachedEmst> entry = exec::cached_artifact<CachedEmst>(
      exec, exec::ArtifactTag::emst,
      [&] {
        return exec::combine_fingerprint(
            points_fingerprint ? *points_fingerprint : point_set_fingerprint(exec, points),
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(min_pts)));
      },
      [&] {
        return std::make_shared<CachedEmst>(CachedEmst{
            mutual_reachability_mst(exec, points, tree, core_distances, round1_seed), &points});
      },
      [&](const CachedEmst& cached) { return cached.points == &points; });
  const graph::EdgeList* view = &entry->mst;
  return {std::move(entry), view};
}

}  // namespace pandora::spatial
