#include "pandora/dyn/dynamic_clustering.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "pandora/common/expect.hpp"
#include "pandora/common/timer.hpp"
#include "pandora/exec/failpoint.hpp"
#include "pandora/exec/fingerprint.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/exec/sort.hpp"
#include "pandora/graph/union_find.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/spatial/emst.hpp"

namespace pandora::dyn {

namespace {

/// Repair latency histograms (whole insert/erase call, validation through
/// dendrogram replay); recorded on successful completion only — a repair
/// that throws poisons the stream and its time is not a latency sample.
obs::Histogram& insert_metric() {
  static obs::Histogram& metric = obs::registry().histogram("pandora_dyn_insert_seconds");
  return metric;
}
obs::Histogram& erase_metric() {
  static obs::Histogram& metric = obs::registry().histogram("pandora_dyn_erase_seconds");
  return metric;
}

/// Process-unique instance ids: the epoch fingerprints of two concurrently
/// live DynamicClustering objects must never collide in a shared cache.
std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// A candidate edge proposed by one point during a Borůvka repair round.
struct Candidate {
  double weight = std::numeric_limits<double>::infinity();
  index_t partner = kNone;
  index_t maintained_edge = kNone;  ///< kNone = a new star edge

  /// Lexicographic (weight, partner): the deterministic per-point minimum.
  [[nodiscard]] bool better_than(const Candidate& other) const {
    if (weight != other.weight) return weight < other.weight;
    return partner < other.partner;
  }
};

/// Brute-force cutoff: below this many batch points, scanning them beats
/// building and annotating a kd-tree over the batch.
constexpr index_t kBatchTreeThreshold = 32;

/// Leaf size of the maintained kd index and of the per-batch trees.
constexpr int kLeafSize = 32;

/// Inserted points are appended to an unindexed tail and brute-forced by
/// queries until the tail exceeds this fraction of the point count, when the
/// kd index is rebuilt (amortised O(log n) per insert).  Erases always
/// rebuild (compaction moves the indexed coordinates).
constexpr double kIndexRebuildFraction = 0.125;

}  // namespace

DynamicClustering::DynamicClustering(const exec::Executor& exec)
    : exec_(&exec),
      points_(std::make_unique<spatial::PointSet>()),
      instance_(next_instance_id()) {}

void DynamicClustering::rebuild_index() {
  tree_ = std::make_unique<spatial::KdTree>(*exec_, *points_, kLeafSize);
  indexed_ = points_->size();
  ++stats_.index_rebuilds;
}

void DynamicClustering::replay_dendrogram() {
  dendrogram::pandora_dendrogram_into(*exec_, sorted_, dendrogram_);
}

void DynamicClustering::rebuild_from_scratch() {
  rebuild_index();
  edges_ = spatial::euclidean_mst(*exec_, *points_, *tree_);
  sorted_ = dendrogram::sort_edges(*exec_, edges_, points_->size());
  replay_dendrogram();
}

std::vector<index_t> DynamicClustering::insert(const spatial::PointSet& batch) {
  const index_t m = batch.size();
  std::vector<index_t> ids;
  ids.reserve(static_cast<std::size_t>(m));
  if (m == 0) return ids;
  const exec::ScopedSpan span(*exec_, "dyn.insert");
  const Timer timer;

  PANDORA_EXPECT(&batch != points_.get(), "cannot insert a stream's own point set into itself");
  PANDORA_EXPECT(healthy_, "stream poisoned by an earlier failed update");
  // Validate before any mutation: a rejected batch must leave the stream
  // untouched (and healthy), unlike a mid-repair failure.
  spatial::validate_points(batch, "dyn::insert");
  const index_t n_before = points_->size();
  if (n_before == 0) {
    *points_ = batch;
  } else {
    PANDORA_EXPECT(batch.dim() == points_->dim(),
                   "inserted points must match the set's dimensionality");
    points_->coords().insert(points_->coords().end(), batch.coords().begin(),
                             batch.coords().end());
  }
  for (index_t j = 0; j < m; ++j) {
    const index_t id = next_id_++;
    ids.push_back(id);
    id_of_slot_.push_back(id);
    slot_of_id_.push_back(n_before + j);
  }
  stats_.points_inserted += static_cast<std::uint64_t>(m);
  ++stats_.update_batches;
  // The epoch bumps at the FIRST mutation, not after the repair: if the
  // repair throws mid-way, the points have already changed and the old
  // epoch's cached artifacts must already be unreachable.  `healthy_`
  // stays false over the same window, so a caller that catches the
  // exception cannot keep computing on a half-updated tree.
  ++epoch_;
  healthy_ = false;
  // Chaos seam: the widest mid-repair window — points mutated, structures not.
  PANDORA_FAILPOINT("dyn.insert.repair");

  if (n_before == 0) {
    rebuild_from_scratch();
    healthy_ = true;
    insert_metric().observe(timer.seconds());
    return ids;
  }

  std::vector<char> keep;
  graph::EdgeList added;
  repair_after_insert(n_before, m, keep, added);
  finish_update(keep, added, {}, points_->size());
  healthy_ = true;

  // Amortised index maintenance: queries brute-force the unindexed tail
  // until it outgrows its budget.
  const auto tail = static_cast<double>(points_->size() - indexed_);
  if (tail > std::max(64.0, kIndexRebuildFraction * static_cast<double>(points_->size())))
    rebuild_index();
  insert_metric().observe(timer.seconds());
  return ids;
}

index_t DynamicClustering::insert(std::span<const double> coords) {
  PANDORA_EXPECT(!coords.empty(), "a point needs at least one coordinate");
  spatial::PointSet one(static_cast<int>(coords.size()), 1);
  std::copy(coords.begin(), coords.end(), one.coords().begin());
  return insert(one).front();
}

/// Exact incremental repair (see the class comment).  The candidate graph is
/// the maintained tree plus the implicit stars of the new points; its MST is
/// the true EMST of the enlarged set (any absent edge is beaten by an
/// existing path, so the cycle property discards it).  Cheap pre-merge: a
/// maintained edge can only be displaced by a path through a new point q,
/// which uses two distinct edges at q, the heavier one at least q's
/// 2nd-nearest-neighbour distance — so every maintained edge at or below
/// min_q d2(q) is certainly kept and its endpoints start pre-merged.  The
/// remaining "doubtful" edges and the stars then go through Borůvka rounds:
/// established points scan their doubtful edges and probe the batch, new
/// points probe the kd index (coordinate queries: they are not indexed yet)
/// and scan the unindexed tail.
void DynamicClustering::repair_after_insert(index_t n_before, index_t m,
                                            std::vector<char>& keep,
                                            graph::EdgeList& added) {
  const index_t n = points_->size();
  const spatial::PointSet& points = *points_;
  exec::Workspace& workspace = exec_->workspace();

  // --- safety threshold: min over new points of their d2 ------------------
  // Parallel over the batch (a churn batch probes m x (tail + m) distances);
  // the tiny per-point probe vector is the only allocation.
  double w_safe = std::numeric_limits<double>::infinity();
  {
    auto bound_lease = workspace.take_uninit<double>(m);
    const std::span<double> bound = bound_lease.span();
    // Index probe pre-pass: every new point's two nearest INDEXED
    // neighbours, by coordinate query (the batch is not indexed yet).  Slots
    // stay +inf where the index has fewer than two points; offering +inf
    // below is a no-op.
    auto knn_lease = workspace.take<double>(static_cast<size_type>(m) * 2,
                                            std::numeric_limits<double>::infinity());
    const std::span<double> knn_sq = knn_lease.span();
    if (indexed_ > 0) {
      constexpr index_t kProbeChunk = 128;
      const int num_chunks = static_cast<int>((m + kProbeChunk - 1) / kProbeChunk);
      auto probe_body = [&](int c) {
        // thread_local: the result buffer keeps its capacity across chunks
        // and batches, so the steady-state probe allocates nothing (the
        // arena cannot lease a std::vector).
        static thread_local std::vector<spatial::Neighbor> probe;
        const index_t lo = static_cast<index_t>(c) * kProbeChunk;
        const index_t hi = std::min<index_t>(m, lo + kProbeChunk);
        for (index_t j = lo; j < hi; ++j) {
          tree_->knn(points.point(n_before + j), 2, probe);
          for (std::size_t t = 0; t < probe.size(); ++t)
            knn_sq[static_cast<std::size_t>(j) * 2 + t] = probe[t].squared_distance;
        }
      };
      exec_->run_chunks(num_chunks, exec_->num_threads(), probe_body);
    }
    exec::parallel_for(*exec_, m, [&](size_type j) {
      const index_t q = n_before + static_cast<index_t>(j);
      double d1_sq = std::numeric_limits<double>::infinity();
      double d2_sq = std::numeric_limits<double>::infinity();
      const auto offer = [&](double sq) {
        if (sq < d1_sq) {
          d2_sq = d1_sq;
          d1_sq = sq;
        } else if (sq < d2_sq) {
          d2_sq = sq;
        }
      };
      offer(knn_sq[static_cast<std::size_t>(j) * 2]);
      offer(knn_sq[static_cast<std::size_t>(j) * 2 + 1]);
      for (index_t p = indexed_; p < n; ++p) {  // unindexed tail + other new
        if (p == q) continue;
        offer(points.squared_distance(q, p));
      }
      // With a single other point d2 degenerates to d1 (still safe: a
      // 2-point set has no displaceable maintained edges of lower weight).
      bound[static_cast<std::size_t>(j)] =
          d2_sq < std::numeric_limits<double>::infinity() ? d2_sq : d1_sq;
    });
    for (index_t j = 0; j < m; ++j)
      w_safe = std::min(w_safe, std::sqrt(bound[static_cast<std::size_t>(j)]));
  }

  // --- pre-merge the safe maintained edges --------------------------------
  const auto e_old = static_cast<size_type>(edges_.size());
  keep.assign(static_cast<std::size_t>(e_old), 0);
  auto uf_lease = workspace.take_uninit<index_t>(n);
  graph::ConcurrentUnionFindView uf(uf_lease.span());
  exec::parallel_for(*exec_, n, [&](size_type x) {
    uf_lease[static_cast<std::size_t>(x)] = static_cast<index_t>(x);
  });
  index_t components = n;
  std::vector<index_t> doubtful;
  for (size_type i = 0; i < e_old; ++i) {
    const graph::WeightedEdge& e = edges_[static_cast<std::size_t>(i)];
    if (e.weight <= w_safe) {
      keep[static_cast<std::size_t>(i)] = 1;
      uf.unite(e.u, e.v);
      --components;
    } else {
      doubtful.push_back(static_cast<index_t>(i));
    }
  }

  // CSR adjacency over the doubtful edges only.
  const auto num_doubtful = static_cast<size_type>(doubtful.size());
  auto adj_offset_lease = workspace.take<index_t>(n + 1, 0);
  const std::span<index_t> adj_offset = adj_offset_lease.span();
  for (const index_t i : doubtful) {
    ++adj_offset[static_cast<std::size_t>(edges_[static_cast<std::size_t>(i)].u) + 1];
    ++adj_offset[static_cast<std::size_t>(edges_[static_cast<std::size_t>(i)].v) + 1];
  }
  for (index_t x = 0; x < n; ++x)
    adj_offset[static_cast<std::size_t>(x) + 1] += adj_offset[static_cast<std::size_t>(x)];
  auto adj_edge_lease = workspace.take_uninit<index_t>(2 * num_doubtful);
  const std::span<index_t> adj_edge = adj_edge_lease.span();
  {
    auto cursor_lease = workspace.take_uninit<index_t>(n);
    const std::span<index_t> cursor = cursor_lease.span();
    std::copy(adj_offset.begin(), adj_offset.begin() + n, cursor.begin());
    for (const index_t i : doubtful) {
      const graph::WeightedEdge& e = edges_[static_cast<std::size_t>(i)];
      adj_edge[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.u)]++)] = i;
      adj_edge[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.v)]++)] = i;
    }
  }

  // Optional kd-tree over just the batch, so established points can probe
  // "nearest new point in another component" in O(log m) instead of O(m).
  spatial::PointSet batch_points;
  std::unique_ptr<spatial::KdTree> batch_tree;
  spatial::KdTreeAnnotations batch_notes;
  if (m > kBatchTreeThreshold) {
    batch_points = spatial::PointSet(points.dim(), m);
    std::copy(points.coords().begin() +
                  static_cast<std::size_t>(n_before) * static_cast<std::size_t>(points.dim()),
              points.coords().end(), batch_points.coords().begin());
    batch_tree = std::make_unique<spatial::KdTree>(*exec_, batch_points, kLeafSize);
  }

  // --- Borůvka rounds over the implicit candidate graph -------------------
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  constexpr index_t kUnset = std::numeric_limits<index_t>::max();
  auto component_lease = workspace.take_uninit<index_t>(n);
  const std::span<index_t> component = component_lease.span();
  auto best_weight_lease = workspace.take<std::uint64_t>(n, kInf);
  const std::span<std::uint64_t> best_weight = best_weight_lease.span();
  auto best_point_lease = workspace.take<index_t>(n, kUnset);
  const std::span<index_t> best_point = best_point_lease.span();
  auto candidate_lease = workspace.take<Candidate>(n, Candidate{});
  const std::span<Candidate> candidate = candidate_lease.span();
  auto batch_component_lease = workspace.take_uninit<index_t>(batch_tree ? m : 0);
  const std::span<index_t> batch_component = batch_component_lease.span();

  std::vector<index_t> roots;
  roots.reserve(static_cast<std::size_t>(components));
  for (index_t x = 0; x < n; ++x)
    if (uf.find(x) == x) roots.push_back(x);

  while (components > 1) {
    ++stats_.boruvka_rounds;
    exec::parallel_for(*exec_, n, [&](size_type x) {
      component[static_cast<std::size_t>(x)] = uf.find(static_cast<index_t>(x));
    });
    if (indexed_ > 0) tree_->annotate_components(*exec_, component, notes_);
    if (batch_tree) {
      exec::parallel_for(*exec_, m, [&](size_type j) {
        batch_component[static_cast<std::size_t>(j)] =
            component[static_cast<std::size_t>(n_before + j)];
      });
      batch_tree->annotate_components(*exec_, batch_component, batch_notes);
    }

    // Phase 1: every point proposes its best incident candidate edge.  A
    // previous round's candidate whose partner is still foreign remains the
    // exact per-point minimum (every candidate source — doubtful edges,
    // batch stars, index stars — only shrinks as components merge), so only
    // points made stale by the last round's hooks recompute.
    exec::parallel_for(*exec_, n, [&](size_type pi) {
      const auto p = static_cast<index_t>(pi);
      const index_t c = component[static_cast<std::size_t>(p)];
      {
        const Candidate& cached = candidate[static_cast<std::size_t>(p)];
        if (cached.partner != kNone &&
            component[static_cast<std::size_t>(cached.partner)] != c) {
          exec::atomic_fetch_min(best_weight[static_cast<std::size_t>(c)],
                                 exec::order_preserving_bits(cached.weight));
          return;
        }
      }
      Candidate best;
      // Doubtful maintained edges at p (established points only; new points
      // have none).
      for (index_t a = adj_offset[static_cast<std::size_t>(p)];
           a < adj_offset[static_cast<std::size_t>(p) + 1]; ++a) {
        const index_t i = adj_edge[static_cast<std::size_t>(a)];
        const graph::WeightedEdge& e = edges_[static_cast<std::size_t>(i)];
        const index_t other = e.u == p ? e.v : e.u;
        if (component[static_cast<std::size_t>(other)] == c) continue;
        const Candidate cand{e.weight, other, i};
        if (cand.better_than(best)) best = cand;
      }
      if (p < n_before) {
        // Established point: nearest batch point in another component.
        if (batch_tree) {
          const spatial::Neighbor nb = batch_tree->nearest_other_component(
              points.point(p), c, batch_component, batch_notes);
          if (nb.index != kNone) {
            const Candidate cand{std::sqrt(nb.squared_distance), n_before + nb.index, kNone};
            if (cand.better_than(best)) best = cand;
          }
        } else {
          for (index_t q = n_before; q < n; ++q) {
            if (component[static_cast<std::size_t>(q)] == c) continue;
            const Candidate cand{std::sqrt(points.squared_distance(p, q)), q, kNone};
            if (cand.better_than(best)) best = cand;
          }
        }
      } else {
        // New point: its star spans every live point — probe the index by
        // coordinates, scan the unindexed tail and the rest of the batch.
        if (indexed_ > 0) {
          const spatial::Neighbor nb =
              tree_->nearest_other_component(points.point(p), c, component, notes_);
          if (nb.index != kNone) {
            const Candidate cand{std::sqrt(nb.squared_distance), nb.index, kNone};
            if (cand.better_than(best)) best = cand;
          }
        }
        const index_t tail_end = batch_tree ? n_before : n;
        for (index_t t = indexed_; t < tail_end; ++t) {
          if (t == p || component[static_cast<std::size_t>(t)] == c) continue;
          const Candidate cand{std::sqrt(points.squared_distance(p, t)), t, kNone};
          if (cand.better_than(best)) best = cand;
        }
        if (batch_tree) {
          const spatial::Neighbor nb = batch_tree->nearest_other_component(
              points.point(p), c, batch_component, batch_notes);
          if (nb.index != kNone) {
            const Candidate cand{std::sqrt(nb.squared_distance), n_before + nb.index, kNone};
            if (cand.better_than(best)) best = cand;
          }
        }
      }
      candidate[static_cast<std::size_t>(p)] = best;
      if (best.partner != kNone)
        exec::atomic_fetch_min(best_weight[static_cast<std::size_t>(c)],
                               exec::order_preserving_bits(best.weight));
    });
    // Phase 2: among weight ties, the smallest proposing point id wins (cf.
    // spatial::emst — exact lexicographic minimum without a wide CAS).
    exec::parallel_for(*exec_, n, [&](size_type pi) {
      const auto p = static_cast<index_t>(pi);
      const Candidate& cand = candidate[static_cast<std::size_t>(p)];
      if (cand.partner == kNone) return;
      const index_t c = component[static_cast<std::size_t>(p)];
      if (best_weight[static_cast<std::size_t>(c)] == exec::order_preserving_bits(cand.weight))
        exec::atomic_fetch_min(best_point[static_cast<std::size_t>(c)], p);
    });

    // Phase 3: hook the winners (sequential, so ties can never form cycles).
    const index_t before = components;
    for (const index_t r : roots) {
      const index_t p = best_point[static_cast<std::size_t>(r)];
      if (p == kUnset) continue;
      const Candidate& cand = candidate[static_cast<std::size_t>(p)];
      if (uf.find(p) == uf.find(cand.partner)) continue;
      uf.unite(p, cand.partner);
      --components;
      if (cand.maintained_edge != kNone) {
        keep[static_cast<std::size_t>(cand.maintained_edge)] = 1;  // re-selected
      } else {
        added.push_back({p, cand.partner, cand.weight});
      }
    }
    PANDORA_EXPECT(components < before, "incremental Borůvka made no progress");

    std::vector<index_t> next_roots;
    next_roots.reserve(roots.size() / 2 + 1);
    for (const index_t r : roots) {
      if (uf.find(r) == r) next_roots.push_back(r);
      best_weight[static_cast<std::size_t>(r)] = kInf;
      best_point[static_cast<std::size_t>(r)] = kUnset;
    }
    roots.swap(next_roots);
  }
}

void DynamicClustering::erase(std::span<const index_t> ids) {
  if (ids.empty()) return;
  const exec::ScopedSpan span(*exec_, "dyn.erase");
  const Timer timer;
  PANDORA_EXPECT(healthy_, "stream poisoned by an earlier failed update");
  const index_t n_old = points_->size();
  exec::Workspace& workspace = exec_->workspace();
  auto alive_lease = workspace.take<char>(n_old, 1);
  const std::span<char> alive = alive_lease.span();
  // Validate the whole batch before mutating any mapping, so a bad id
  // throws without leaving the instance half-updated.
  for (const index_t id : ids) {
    const index_t slot = slot_of(id);
    PANDORA_EXPECT(slot != kNone, "erase: unknown or already-erased id");
    PANDORA_EXPECT(alive[static_cast<std::size_t>(slot)] != 0, "erase: duplicate id in batch");
    alive[static_cast<std::size_t>(slot)] = 0;
  }
  for (const index_t id : ids) slot_of_id_[static_cast<std::size_t>(id)] = kNone;
  stats_.points_erased += static_cast<std::uint64_t>(ids.size());
  ++stats_.update_batches;
  ++epoch_;  // first mutation, same rationale (and same healthy_ window) as insert()
  healthy_ = false;
  PANDORA_FAILPOINT("dyn.erase.repair");

  const index_t n_new = n_old - static_cast<index_t>(ids.size());
  if (n_new == 0) {
    points_ = std::make_unique<spatial::PointSet>();
    id_of_slot_.clear();
    edges_.clear();
    sorted_ = {};
    tree_.reset();
    indexed_ = 0;
    replay_dendrogram();
    healthy_ = true;
    erase_metric().observe(timer.seconds());
    return;
  }

  // Stable slot compaction: survivors keep their relative order, so the
  // rebuilt-from-scratch reference over points() sees the same point order.
  auto remap_lease = workspace.take_uninit<index_t>(n_old);
  const std::span<index_t> remap = remap_lease.span();
  const int dim = points_->dim();
  index_t next_slot = 0;
  for (index_t s = 0; s < n_old; ++s) {
    if (alive[static_cast<std::size_t>(s)] == 0) {
      remap[static_cast<std::size_t>(s)] = kNone;
      continue;
    }
    const index_t d = next_slot++;
    remap[static_cast<std::size_t>(s)] = d;
    if (d != s) {
      std::copy_n(points_->coords().begin() +
                      static_cast<std::size_t>(s) * static_cast<std::size_t>(dim),
                  static_cast<std::size_t>(dim),
                  points_->coords().begin() +
                      static_cast<std::size_t>(d) * static_cast<std::size_t>(dim));
      id_of_slot_[static_cast<std::size_t>(d)] = id_of_slot_[static_cast<std::size_t>(s)];
    }
  }
  points_->coords().resize(static_cast<std::size_t>(n_new) * static_cast<std::size_t>(dim));
  id_of_slot_.resize(static_cast<std::size_t>(n_new));
  for (index_t s = 0; s < n_new; ++s)
    slot_of_id_[static_cast<std::size_t>(id_of_slot_[static_cast<std::size_t>(s)])] = s;

  // Compaction moved the indexed coordinates: rebuild the kd index now (it
  // is also what re-joining the splinters queries).
  rebuild_index();

  // Splinter: every surviving edge provably stays in the new EMST (erasing
  // points removes paths, never adds them), so the survivors' components
  // only need minimum-weight re-joining — the component-restricted Borůvka
  // entry of spatial::emst.
  const auto e_old = static_cast<size_type>(edges_.size());
  std::vector<char> keep(static_cast<std::size_t>(e_old), 0);
  graph::ConcurrentUnionFind uf(n_new);
  for (size_type i = 0; i < e_old; ++i) {
    graph::WeightedEdge& e = edges_[static_cast<std::size_t>(i)];
    const index_t u = remap[static_cast<std::size_t>(e.u)];
    const index_t v = remap[static_cast<std::size_t>(e.v)];
    if (u == kNone || v == kNone) continue;
    keep[static_cast<std::size_t>(i)] = 1;
    uf.unite(u, v);
  }
  graph::EdgeList added = spatial::join_components_emst(*exec_, *points_, *tree_, uf);

  finish_update(keep, added, remap, n_new);
  healthy_ = true;
  erase_metric().observe(timer.seconds());
}

void DynamicClustering::finish_update(std::span<const char> keep, const graph::EdgeList& added,
                                      std::span<const index_t> vertex_remap,
                                      index_t num_vertices) {
  // Maintained list: survivors in maintained order (remapped), then the
  // delta — exactly the order merge_sorted_edges_delta renumbers against.
  edges_scratch_.clear();
  edges_scratch_.reserve(static_cast<std::size_t>(num_vertices));
  std::uint64_t kept = 0;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (keep[i] == 0) continue;
    graph::WeightedEdge e = edges_[i];
    if (!vertex_remap.empty()) {
      e.u = vertex_remap[static_cast<std::size_t>(e.u)];
      e.v = vertex_remap[static_cast<std::size_t>(e.v)];
    }
    edges_scratch_.push_back(e);
    ++kept;
  }
  stats_.edges_removed += edges_.size() - kept;
  stats_.edges_added += added.size();
  edges_scratch_.insert(edges_scratch_.end(), added.begin(), added.end());

  merge_sorted_edges_delta(*exec_, sorted_, keep, added, vertex_remap, num_vertices,
                           sorted_scratch_);
  std::swap(sorted_, sorted_scratch_);
  std::swap(edges_, edges_scratch_);

  replay_dendrogram();
}

hdbscan::HdbscanResult DynamicClustering::hdbscan(const hdbscan::HdbscanOptions& options) const {
  PANDORA_EXPECT(healthy_, "stream poisoned by an earlier failed update");
  PANDORA_EXPECT(points_->size() > 0, "hdbscan needs at least one point");
  return pandora::hdbscan::hdbscan(*exec_, *points_, options, points_fingerprint());
}

ArtifactBundle DynamicClustering::capture_artifacts() const {
  PANDORA_EXPECT(healthy_, "stream poisoned by an earlier failed update");
  ArtifactBundle bundle;
  bundle.epoch = epoch_;
  bundle.fingerprint = points_fingerprint();
  bundle.points = std::make_shared<const spatial::PointSet>(*points_);
  bundle.ids = std::make_shared<const std::vector<index_t>>(id_of_slot_);
  bundle.emst = std::make_shared<const graph::EdgeList>(edges_);
  bundle.sorted_edges = std::make_shared<const dendrogram::SortedEdges>(sorted_);
  bundle.dendrogram = std::make_shared<const dendrogram::Dendrogram>(dendrogram_);
  return bundle;
}

void DynamicClustering::restore(const ArtifactBundle& bundle) {
  PANDORA_EXPECT(bundle.points != nullptr && bundle.ids != nullptr && bundle.emst != nullptr &&
                     bundle.sorted_edges != nullptr && bundle.dendrogram != nullptr,
                 "restore: incomplete artifact bundle");
  PANDORA_EXPECT(bundle.ids->size() == static_cast<std::size_t>(bundle.points->size()),
                 "restore: bundle id map does not match its point set");

  *points_ = *bundle.points;
  id_of_slot_ = *bundle.ids;
  edges_ = *bundle.emst;
  sorted_ = *bundle.sorted_edges;
  dendrogram_ = *bundle.dendrogram;

  // Rebuild the inverse id map.  Ids issued after the bundle was captured
  // stay burned: next_id_ never decreases, so a recovered stream cannot hand
  // out an id that some caller already holds for a (now rolled-back) point.
  index_t max_id = -1;
  for (const index_t id : id_of_slot_) max_id = std::max(max_id, id);
  next_id_ = std::max(next_id_, max_id + 1);
  slot_of_id_.assign(static_cast<std::size_t>(next_id_), kNone);
  for (index_t s = 0; s < static_cast<index_t>(id_of_slot_.size()); ++s)
    slot_of_id_[static_cast<std::size_t>(id_of_slot_[static_cast<std::size_t>(s)])] = s;

  if (points_->size() > 0) {
    rebuild_index();
  } else {
    tree_.reset();
    indexed_ = 0;
  }

  // A fresh epoch, never the bundle's: the failed update already burned
  // epoch numbers, and reusing one would let the shared ArtifactCache serve
  // artifacts computed against the half-updated state.
  ++epoch_;
  healthy_ = true;
}

}  // namespace pandora::dyn
