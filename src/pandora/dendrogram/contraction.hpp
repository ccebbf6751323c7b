#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/executor.hpp"

namespace pandora::dendrogram {

/// One level of the recursive tree contraction (Section 3.2).
///
/// A level is a tree whose vertices are supervertices of the previous level
/// and whose edges are the previous level's α-edges, still identified by
/// their *global* sorted index (0 = heaviest).  For every vertex the level
/// stores its "sided parent": the dendrogram parent of the vertex node by
/// Eq. (1) — the incident edge with the largest global index — encoded as
/// `2*edge + side` where side says which endpoint of that edge the vertex is.
/// The side bit distinguishes the two chains hanging below an edge node,
/// e.g. the 13L / 13R chains of Figure 9.
///
/// Levels are trivially copyable *views*: their per-vertex arrays are spans
/// into flat storage leased from the building Executor's Workspace (see
/// ContractionHierarchy), so repeated hierarchies on one Executor allocate
/// nothing after warm-up.
struct ContractionLevel {
  index_t num_vertices = 0;
  index_t num_edges = 0;
  index_t num_alpha = 0;

  /// Per vertex: 2*maxIncident + side.  Always set while the level has edges.
  std::span<const std::int64_t> sided_parent;

  /// Per vertex: containing supervertex at the next level.  Empty at the
  /// final (chain-only) level, which is never contracted.
  std::span<const index_t> vertex_map;
};

/// The full recursive contraction: MST -> α-MST -> β-MST -> ... until a level
/// has no α-edges (at most ceil(log2(n+1)) levels, Section 4.2).
///
/// `contraction_level[g]` / `supervertex[g]` give, for global edge g, the
/// level at which g was contracted away and the supervertex (vertex id of
/// level contraction_level+1) that absorbed it.  Edges of the final level are
/// marked with `supervertex == kNone`; they form the root chain.
///
/// All storage is leased from the building Executor's Workspace arena (the
/// per-level vertex arrays concatenate into two flat blocks of at most
/// 2*num_vertices entries each, since levels at least halve).  The hierarchy
/// is move-only and must not outlive the Executor it was built on.
struct ContractionHierarchy {
  std::span<const ContractionLevel> levels;
  std::span<const index_t> contraction_level;
  std::span<const index_t> supervertex;
  index_t num_global_edges = 0;

  [[nodiscard]] index_t num_levels() const { return static_cast<index_t>(levels.size()); }

  /// Backing storage for the spans above (leased; do not touch directly).
  exec::Workspace::Lease<ContractionLevel> levels_store;
  exec::Workspace::Lease<std::int64_t> sided_store;
  exec::Workspace::Lease<index_t> map_store;
  exec::Workspace::Lease<index_t> fate_store;
};

namespace detail {

/// maxIncident of every vertex of the graph (`u[i]`, `v[i]`) over
/// `out.size()` vertices: the largest edge index incident to it, or kNone
/// for an isolated vertex.  Owner-computes, with no atomics: chunk c of
/// `exec.num_threads()` owns a contiguous vertex range and streams every
/// edge in ascending order into a private window, so the last write to a
/// slot is its maximum.  One `run_chunks` launch; each chunk reads all edges
/// but writes only its own window and its own range of `out`.
void max_incident(const exec::Executor& exec, std::span<const index_t> u,
                  std::span<const index_t> v, std::span<index_t> out);

/// Classifies the edges of one level tree and contracts its non-α edges.
/// Inputs: endpoints `u`/`v` (level-vertex ids) and global indices `gid` of
/// the level's edges over `num_vertices` vertices; `gid` must increase with
/// the local index (levels emitted by the contraction do), and an empty
/// `gid` means the identity mapping (edge i has global index i), which is
/// the base level of the canonical sorted MST.  On return, `level` is fully
/// populated; if α-edges exist, `next_*` hold the contracted tree and
/// `level.vertex_map` the vertex relabelling; the fate of each input edge is
/// readable from `alpha` (flag per edge).  The result owns its storage as
/// Workspace leases and must not outlive the Executor.
struct LevelResult {
  ContractionLevel level;
  std::span<const index_t> alpha;  ///< 0/1 per input edge
  std::span<const index_t> next_u, next_v, next_gid;
  index_t next_num_vertices = 0;

  /// Backing storage for the spans above (leased; do not touch directly).
  exec::Workspace::Lease<std::int64_t> sided_store;
  exec::Workspace::Lease<index_t> map_store;
  exec::Workspace::Lease<index_t> alpha_store;
  exec::Workspace::Lease<index_t> next_store;
};

[[nodiscard]] LevelResult contract_one_level(const exec::Executor& exec,
                                             std::span<const index_t> u,
                                             std::span<const index_t> v,
                                             std::span<const index_t> gid,
                                             index_t num_vertices);

}  // namespace detail

/// Builds the complete contraction hierarchy of the tree given by parallel
/// arrays (`u[i]`, `v[i]`) with increasing global edge indices `gid[i]` over
/// `num_vertices` vertices; an empty `gid` means the identity mapping (the
/// common case — the canonical sorted MST — which then needs no materialised
/// iota at all).  `num_global_edges` sizes the per-global-edge fate arrays
/// (pass the total edge count of the original MST).
///
/// Each level is a handful of launches with no atomic read-modify-write:
/// owner-computes maxIncident, α classification, a per-vertex pass that
/// writes the sided parents and a pointer forest of the supervertices, a
/// scan of the forest's roots, one path-halving find per vertex, and the
/// emit pass (next level plus the fates of the contracted edges).  The
/// hierarchy is identical on every backend and at every thread count.
/// Records `pandora_contraction_{levels,edges,alpha_edges}_total` once.
[[nodiscard]] ContractionHierarchy build_hierarchy(const exec::Executor& exec,
                                                   std::span<const index_t> u,
                                                   std::span<const index_t> v,
                                                   std::span<const index_t> gid,
                                                   index_t num_vertices,
                                                   index_t num_global_edges);

}  // namespace pandora::dendrogram
