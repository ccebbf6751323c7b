#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/graph/edge.hpp"

namespace pandora::dendrogram {

/// The MST in the canonical form every dendrogram algorithm in this library
/// consumes: edges sorted by weight in descending order (Section 3.1.1), with
/// ties broken by the original edge index.  The consistent tie order is what
/// makes the dendrogram unique and lets independent algorithms (Pandora,
/// union-find, top-down) be compared node-for-node.
struct SortedEdges {
  index_t num_vertices = 0;
  std::vector<index_t> u;        ///< endpoint of sorted edge i
  std::vector<index_t> v;        ///< other endpoint of sorted edge i
  std::vector<double> weight;    ///< non-increasing
  std::vector<index_t> order;    ///< sorted index -> original edge index

  [[nodiscard]] index_t num_edges() const { return static_cast<index_t>(u.size()); }
};

/// The one edge sort of the library: writes the canonical descending-(weight,
/// original index) order of `edges` straight into caller-owned spans, each of
/// size `edges.size()` — `u[i]`, `v[i]` and `weight[i]` of sorted edge i and
/// `order[i]`, its original index.  `pandora_dendrogram_into` points all
/// four into its output Dendrogram (`u`/`v` into the not yet written
/// `parent` storage), so a cold build sorts into its result with no
/// intermediate copy, and a second call on a warm Executor performs no heap
/// allocation.  Does not validate.
///
/// The sort packs the high 32 bits of the order-preserving (sign-flipped,
/// inverted) weight key with the edge id into one 64-bit word and radix-sorts
/// only the key bytes through `radix_sort_u64` — at every size and thread
/// count, serial executors and sub-grain inputs included — so weights and
/// endpoints are gathered exactly once from the resulting permutation instead
/// of sorting structs, then repairs the rare runs whose weights differ only
/// below the 32-bit prefix.  When the prefixes separate almost nothing (most
/// of the array would need repair), the input itself selects a stable
/// comparison merge argsort instead; both paths produce bit-identical output.
void sort_edges_into(const exec::Executor& exec, const graph::EdgeList& edges,
                     std::span<index_t> u, std::span<index_t> v, std::span<double> weight,
                     std::span<index_t> order);

/// `sort_edges_into` as a fresh SortedEdges.  When `validate_input` is set,
/// rejects inputs that are not spanning trees with finite non-negative
/// weights.
[[nodiscard]] SortedEdges sort_edges(const exec::Executor& exec, const graph::EdgeList& edges,
                                     index_t num_vertices, bool validate_input = false);

/// Derives the canonical SortedEdges of an *updated* edge list from the
/// sorted run of its predecessor, without re-sorting the bulk: survivors of
/// `base` keep their relative order (weights unchanged), so one linear merge
/// of the surviving run with the small sorted `added` run reproduces the
/// canonical descending-(weight, index) order.  This is the dynamic
/// subsystem's dendrogram-replay preparation — O(E + A log A) instead of the
/// full O(E log E) sort.
///
/// The updated edge list is defined as: the edges of `base`'s original list
/// whose original index i has `keep[i] != 0`, in their original relative
/// order (renumbered densely from 0), followed by the edges of `added`
/// (original indices continuing after the survivors).  `keep.size()` must be
/// `base.num_edges()`.  A non-empty `vertex_remap` relabels every surviving
/// endpoint (erase compaction); `added` endpoints are already in the new
/// vertex space.  `out` must not alias `base`.
///
/// The result is bit-identical to `sort_edges` over the materialised updated
/// edge list: survivors precede added edges on exact weight ties (their new
/// indices are smaller), and the tie order within each run is preserved.
void merge_sorted_edges_delta(const exec::Executor& exec, const SortedEdges& base,
                              std::span<const char> keep, const graph::EdgeList& added,
                              std::span<const index_t> vertex_remap, index_t num_vertices,
                              SortedEdges& out);

/// Order-sensitive 64-bit fingerprint of an MST (endpoints, weights, edge
/// order, vertex count) — the base key of the cross-call dendrogram cache
/// (`pandora_dendrogram_cached`, salted with `exec::ArtifactTag::dendrogram`).
[[nodiscard]] std::uint64_t mst_fingerprint(const exec::Executor& exec,
                                            const graph::EdgeList& edges,
                                            index_t num_vertices);

}  // namespace pandora::dendrogram
