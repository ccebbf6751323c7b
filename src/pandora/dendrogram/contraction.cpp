#include "pandora/dendrogram/contraction.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "pandora/common/expect.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/exec/scan.hpp"
#include "pandora/graph/union_find.hpp"
#include "pandora/obs/metrics.hpp"

namespace pandora::dendrogram {

namespace {

/// Levels at least halve (every vertex is an endpoint of its max-incident
/// edge, which is non-α, so every contraction merges each vertex into a
/// >= 2-vertex supervertex).  40 levels therefore cover any 32-bit input.
constexpr index_t kMaxLevels = 40;

/// Owner windows are spaced a cache line apart, so a chunk's sink slot never
/// shares a line with the next chunk's owned slots.
constexpr size_type kWindowStride = 64 / sizeof(index_t);

/// Hierarchy-shape counters, recorded once per hierarchy.
struct ContractionMetrics {
  obs::Counter& levels;
  obs::Counter& edges;
  obs::Counter& alpha_edges;
};

const ContractionMetrics& contraction_metrics() {
  static const ContractionMetrics metrics{
      obs::registry().counter("pandora_contraction_levels_total"),
      obs::registry().counter("pandora_contraction_edges_total"),
      obs::registry().counter("pandora_contraction_alpha_edges_total")};
  return metrics;
}

/// Scratch leased once per hierarchy (at base-level sizes; deeper levels use
/// prefixes), so repeated builds on one Executor allocate nothing.
struct ContractionScratch {
  ContractionScratch(exec::Workspace& workspace, index_t num_vertices, size_type num_edges)
      : max_incident(workspace.take_uninit<index_t>(num_vertices)),
        new_id(workspace.take_uninit<index_t>(num_vertices)),
        position(workspace.take_uninit<index_t>(num_edges)),
        forest(workspace.take_uninit<index_t>(num_vertices)) {}

  exec::Workspace::Lease<index_t> max_incident;
  exec::Workspace::Lease<index_t> new_id;
  exec::Workspace::Lease<index_t> position;
  exec::Workspace::Lease<index_t> forest;
};

/// Caller-provided destinations of one level's outputs.
struct LevelOutput {
  std::span<std::int64_t> sided_parent;                  ///< size num_vertices
  std::span<index_t> vertex_map;                         ///< size num_vertices
  std::span<index_t> alpha;                              ///< size num_edges
  std::span<index_t> next_u, next_v, next_gid;           ///< capacity >= num_alpha
  /// Per global edge (build_hierarchy only; empty otherwise): the fate of
  /// every contracted edge, written by the emit pass.
  std::span<index_t> contraction_level, supervertex;
  index_t level_index = 0;
};

struct LevelCounts {
  index_t num_alpha = 0;
  index_t next_num_vertices = 0;
};

/// The contraction kernel of one level, writing through `out`.  An empty
/// `gid` denotes the identity mapping (edge i has global index i); otherwise
/// `gid` must increase with the local index, so the largest local index of
/// an incident edge is also the largest global one.
///
/// No pass uses an atomic read-modify-write:
///   1. maxIncident by owner-computes (detail::max_incident);
///   2. α classification per edge (Eq. 2): neither endpoint names it;
///   3. per vertex, the sided parent (Eq. 1) and a pointer to the other
///      endpoint of its maxIncident edge.  The pointers form a forest whose
///      trees are exactly the supervertices: every non-α edge is some
///      vertex's maxIncident edge, and along a pointer path the edge index
///      strictly increases until a mutual pair (both endpoints name the same
///      edge), which roots at its smaller vertex;
///   4. the root flags are scanned into dense next-level ids;
///   5. one path-halving find per vertex relabels it into its supervertex;
///   6. the α-edges are compacted into the next level, and the fates of the
///      contracted edges are written.
LevelCounts contract_level_core(const exec::Executor& exec, std::span<const index_t> u,
                                std::span<const index_t> v, std::span<const index_t> gid,
                                index_t num_vertices, const LevelOutput& out,
                                ContractionScratch& scratch) {
  const size_type m = static_cast<size_type>(u.size());
  const size_type nv = num_vertices;
  const bool identity_gid = gid.empty();
  const auto gid_of = [&](size_type i) {
    return identity_gid ? static_cast<index_t>(i) : gid[static_cast<std::size_t>(i)];
  };
  LevelCounts counts;

  const std::span<index_t> max_incident = scratch.max_incident.span().first(nv);
  detail::max_incident(exec, u, v, max_incident);

  counts.num_alpha = static_cast<index_t>(exec::parallel_sum(
      exec, m, size_type{0}, [&](size_type i) -> size_type {
        const auto local = static_cast<index_t>(i);
        const index_t is_alpha =
            max_incident[static_cast<std::size_t>(u[static_cast<std::size_t>(i)])] != local &&
            max_incident[static_cast<std::size_t>(v[static_cast<std::size_t>(i)])] != local;
        out.alpha[static_cast<std::size_t>(i)] = is_alpha;
        return is_alpha;
      }));
  const bool contracts = counts.num_alpha > 0;  // else: final, chain-only level

  // Sided parents for every level; the pointer forest and its root flags
  // only where the level is contracted further.  The side bit names the
  // vertex's own endpoint (the v side for a self-loop).
  const std::span<index_t> forest = scratch.forest.span().first(nv);
  const std::span<index_t> new_id = scratch.new_id.span().first(nv);
  exec::parallel_for(exec, nv, [&](size_type x) {
    const auto vertex = static_cast<index_t>(x);
    const index_t i = max_incident[static_cast<std::size_t>(x)];
    if (i == kNone) {  // isolated vertex (not a tree input): its own root
      out.sided_parent[static_cast<std::size_t>(x)] = 2 * std::int64_t{kNone};
      if (contracts) {
        forest[static_cast<std::size_t>(x)] = vertex;
        new_id[static_cast<std::size_t>(x)] = 1;
      }
      return;
    }
    const index_t a = u[static_cast<std::size_t>(i)];
    const index_t b = v[static_cast<std::size_t>(i)];
    const index_t side = b == vertex ? 1 : 0;
    out.sided_parent[static_cast<std::size_t>(x)] =
        2 * static_cast<std::int64_t>(gid_of(i)) + side;
    if (!contracts) return;
    const index_t other = side != 0 ? a : b;
    const bool root =
        max_incident[static_cast<std::size_t>(other)] == i && vertex <= other;
    forest[static_cast<std::size_t>(x)] = root ? vertex : other;
    new_id[static_cast<std::size_t>(x)] = root ? 1 : 0;
  });
  if (!contracts) return counts;

  // Dense next-level ids for the roots, then one find per vertex.  Finds run
  // concurrently over the static forest (no hooks), which path halving
  // tolerates: every write replaces a pointer by an ancestor.
  counts.next_num_vertices = exec::exclusive_scan<index_t>(
      exec, std::span<const index_t>(new_id), new_id);
  graph::ConcurrentUnionFindView supervertices(forest);
  exec::parallel_for(exec, nv, [&](size_type x) {
    out.vertex_map[static_cast<std::size_t>(x)] = new_id[static_cast<std::size_t>(
        supervertices.find(static_cast<index_t>(x)))];
  });

  // Emit the contracted tree: α-edges with relabelled endpoints, in the same
  // (global-index) relative order, which keeps the next level's gid
  // increasing.  The α bound num_alpha <= (m-1)/2 holds for trees; reject
  // anything that exceeds the caller's buffers (multigraphs, forests)
  // instead of scattering past them.
  PANDORA_EXPECT(static_cast<std::size_t>(counts.num_alpha) <= out.next_u.size(),
                 "input is not a tree: alpha-edge count exceeds the contraction bound");
  const std::span<index_t> position = scratch.position.span().first(m);
  exec::exclusive_scan<index_t>(exec, std::span<const index_t>(out.alpha), position);
  const bool record_fates = !out.contraction_level.empty();
  exec::parallel_for(exec, m, [&](size_type i) {
    const index_t g = gid_of(i);
    const index_t su = out.vertex_map[static_cast<std::size_t>(u[static_cast<std::size_t>(i)])];
    if (!out.alpha[static_cast<std::size_t>(i)]) {
      if (record_fates) {
        out.contraction_level[static_cast<std::size_t>(g)] = out.level_index;
        out.supervertex[static_cast<std::size_t>(g)] = su;
      }
      return;
    }
    const auto p = static_cast<std::size_t>(position[static_cast<std::size_t>(i)]);
    out.next_u[p] = su;
    out.next_v[p] = out.vertex_map[static_cast<std::size_t>(v[static_cast<std::size_t>(i)])];
    out.next_gid[p] = g;
  });
  return counts;
}

}  // namespace

namespace detail {

void max_incident(const exec::Executor& exec, std::span<const index_t> u,
                  std::span<const index_t> v, std::span<index_t> out) {
  const size_type m = static_cast<size_type>(u.size());
  const size_type nv = static_cast<size_type>(out.size());
  if (!exec.parallelize(m)) {
    // One owner: the edge loop runs on the calling thread in index order
    // (the same `parallelize(m)` answer keeps parallel_for serial).
    exec::parallel_for(exec, nv, [&](size_type x) { out[static_cast<std::size_t>(x)] = kNone; });
    exec::parallel_for(exec, m, [&](size_type i) {
      out[static_cast<std::size_t>(u[static_cast<std::size_t>(i)])] = static_cast<index_t>(i);
      out[static_cast<std::size_t>(v[static_cast<std::size_t>(i)])] = static_cast<index_t>(i);
    });
    return;
  }

  // Chunk c owns vertices [lo, hi) and streams every edge in ascending
  // order into a private window: owned endpoints land in their slot, all
  // others in the sink slot at the window's end (an unsigned clamp, no
  // branch).  The last write to a slot is its largest incident index.
  const int num_chunks = exec.num_threads();
  using offset_t = std::make_unsigned_t<index_t>;
  exec::Workspace::Lease<index_t> windows =
      exec.workspace().take_uninit<index_t>(nv + kWindowStride * num_chunks);
  auto stream = [&](int c) {
    const size_type lo = nv * c / num_chunks;
    const size_type hi = nv * (c + 1) / num_chunks;
    const auto len = static_cast<offset_t>(hi - lo);
    const auto base = static_cast<offset_t>(lo);
    index_t* const window = windows.data() + lo + kWindowStride * c;
    std::fill(window, window + len, kNone);
    for (size_type i = 0; i < m; ++i) {
      const auto a = static_cast<offset_t>(u[static_cast<std::size_t>(i)]) - base;
      const auto b = static_cast<offset_t>(v[static_cast<std::size_t>(i)]) - base;
      window[std::min(a, len)] = static_cast<index_t>(i);
      window[std::min(b, len)] = static_cast<index_t>(i);
    }
    std::copy(window, window + len, out.begin() + lo);
  };
  exec.run_chunks(num_chunks, num_chunks, stream);
}

LevelResult contract_one_level(const exec::Executor& exec, std::span<const index_t> u,
                               std::span<const index_t> v, std::span<const index_t> gid,
                               index_t num_vertices) {
  exec::Workspace& workspace = exec.workspace();
  const size_type m = static_cast<size_type>(u.size());
  const size_type next_capacity = m / 2 + 1;  // num_alpha <= (m - 1) / 2

  LevelResult r;
  r.sided_store = workspace.take_uninit<std::int64_t>(num_vertices);
  r.map_store = workspace.take_uninit<index_t>(num_vertices);
  r.alpha_store = workspace.take_uninit<index_t>(m);
  r.next_store = workspace.take_uninit<index_t>(3 * next_capacity);

  ContractionScratch scratch(workspace, num_vertices, m);
  LevelOutput out;
  out.sided_parent = r.sided_store.span();
  out.vertex_map = r.map_store.span();
  out.alpha = r.alpha_store.span();
  out.next_u = r.next_store.span().first(next_capacity);
  out.next_v = r.next_store.span().subspan(static_cast<std::size_t>(next_capacity),
                                           static_cast<std::size_t>(next_capacity));
  out.next_gid = r.next_store.span().subspan(static_cast<std::size_t>(2 * next_capacity),
                                             static_cast<std::size_t>(next_capacity));

  const LevelCounts counts = contract_level_core(exec, u, v, gid, num_vertices, out, scratch);
  r.level.num_vertices = num_vertices;
  r.level.num_edges = static_cast<index_t>(m);
  r.level.num_alpha = counts.num_alpha;
  r.level.sided_parent = out.sided_parent;
  r.alpha = out.alpha;
  if (counts.num_alpha > 0) {
    const auto na = static_cast<std::size_t>(counts.num_alpha);
    r.level.vertex_map = out.vertex_map;
    r.next_u = out.next_u.first(na);
    r.next_v = out.next_v.first(na);
    r.next_gid = out.next_gid.first(na);
    r.next_num_vertices = counts.next_num_vertices;
  }
  return r;
}

}  // namespace detail

ContractionHierarchy build_hierarchy(const exec::Executor& exec, std::span<const index_t> u,
                                     std::span<const index_t> v, std::span<const index_t> gid,
                                     index_t num_vertices, index_t num_global_edges) {
  exec::Workspace& workspace = exec.workspace();
  const size_type m0 = static_cast<size_type>(u.size());
  PANDORA_EXPECT(gid.empty() || static_cast<size_type>(gid.size()) == m0,
                 "gid must be empty (identity) or cover every edge");

  ContractionHierarchy h;
  h.num_global_edges = num_global_edges;
  h.levels_store = workspace.take_uninit<ContractionLevel>(kMaxLevels);
  h.sided_store = workspace.take_uninit<std::int64_t>(2 * static_cast<size_type>(num_vertices));
  h.map_store = workspace.take_uninit<index_t>(2 * static_cast<size_type>(num_vertices));
  h.fate_store = workspace.take_uninit<index_t>(2 * static_cast<size_type>(num_global_edges));
  const std::span<index_t> contraction_level =
      h.fate_store.span().first(static_cast<std::size_t>(num_global_edges));
  const std::span<index_t> supervertex =
      h.fate_store.span().subspan(static_cast<std::size_t>(num_global_edges));
  exec::parallel_for(exec, 2 * static_cast<size_type>(num_global_edges),
                     [&](size_type i) { h.fate_store[static_cast<std::size_t>(i)] = kNone; });

  // Ping-pong buffers for the contracted (u, v, gid) triples; level k+1 has
  // at most (m_k - 1)/2 edges, so half the base size bounds every level.
  const size_type next_capacity = m0 / 2 + 1;
  exec::Workspace::Lease<index_t> buffer_a = workspace.take_uninit<index_t>(3 * next_capacity);
  exec::Workspace::Lease<index_t> buffer_b = workspace.take_uninit<index_t>(3 * next_capacity);
  exec::Workspace::Lease<index_t> alpha = workspace.take_uninit<index_t>(m0);
  ContractionScratch scratch(workspace, num_vertices, m0);

  std::span<const index_t> cur_u = u;
  std::span<const index_t> cur_v = v;
  std::span<const index_t> cur_gid = gid;  // empty = identity at the base level
  index_t cur_nv = num_vertices;
  index_t num_levels = 0;
  std::uint64_t edges_total = 0;
  std::uint64_t alpha_total = 0;
  std::size_t vertex_offset = 0;  // into sided_store / map_store
  bool write_a = true;

  while (true) {
    const size_type m = static_cast<size_type>(cur_u.size());
    PANDORA_EXPECT(num_levels < kMaxLevels, "contraction exceeded its level bound");
    // Levels halve on trees, so the flat per-vertex storage is bounded by
    // 2*num_vertices; a non-halving input (a forest) would walk past it.
    PANDORA_EXPECT(vertex_offset + static_cast<std::size_t>(cur_nv) <=
                       h.sided_store.size(),
                   "input is not a spanning tree: contraction does not shrink");
    LevelOutput out;
    out.sided_parent =
        h.sided_store.span().subspan(vertex_offset, static_cast<std::size_t>(cur_nv));
    out.vertex_map = h.map_store.span().subspan(vertex_offset, static_cast<std::size_t>(cur_nv));
    out.alpha = alpha.span().first(static_cast<std::size_t>(m));
    const std::span<index_t> next = (write_a ? buffer_a : buffer_b).span();
    out.next_u = next.first(static_cast<std::size_t>(next_capacity));
    out.next_v = next.subspan(static_cast<std::size_t>(next_capacity),
                              static_cast<std::size_t>(next_capacity));
    out.next_gid = next.subspan(static_cast<std::size_t>(2 * next_capacity),
                                static_cast<std::size_t>(next_capacity));
    out.contraction_level = contraction_level;
    out.supervertex = supervertex;
    out.level_index = num_levels;

    const LevelCounts counts =
        contract_level_core(exec, cur_u, cur_v, cur_gid, cur_nv, out, scratch);
    edges_total += static_cast<std::uint64_t>(m);
    alpha_total += static_cast<std::uint64_t>(counts.num_alpha);

    ContractionLevel level;
    level.num_vertices = cur_nv;
    level.num_edges = static_cast<index_t>(m);
    level.num_alpha = counts.num_alpha;
    level.sided_parent = out.sided_parent;

    if (counts.num_alpha == 0) {
      // Final level: its edges form the root chain of the dendrogram.
      const bool identity_gid = cur_gid.empty();
      exec::parallel_for(exec, m, [&](size_type i) {
        const index_t g = identity_gid ? static_cast<index_t>(i)
                                       : cur_gid[static_cast<std::size_t>(i)];
        contraction_level[static_cast<std::size_t>(g)] = out.level_index;
      });
      h.levels_store[static_cast<std::size_t>(num_levels++)] = level;
      break;
    }

    level.vertex_map = out.vertex_map;
    h.levels_store[static_cast<std::size_t>(num_levels++)] = level;

    const auto na = static_cast<std::size_t>(counts.num_alpha);
    cur_u = out.next_u.first(na);
    cur_v = out.next_v.first(na);
    cur_gid = out.next_gid.first(na);
    cur_nv = counts.next_num_vertices;
    vertex_offset += static_cast<std::size_t>(level.num_vertices);
    write_a = !write_a;
  }

  const ContractionMetrics& metrics = contraction_metrics();
  metrics.levels.inc(static_cast<std::uint64_t>(num_levels));
  metrics.edges.inc(edges_total);
  metrics.alpha_edges.inc(alpha_total);

  h.levels = std::span<const ContractionLevel>(h.levels_store.data(),
                                               static_cast<std::size_t>(num_levels));
  h.contraction_level = contraction_level;
  h.supervertex = supervertex;
  return h;
}

}  // namespace pandora::dendrogram
