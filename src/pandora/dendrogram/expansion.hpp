#pragma once

#include <span>

#include "pandora/common/timer.hpp"
#include "pandora/common/types.hpp"
#include "pandora/dendrogram/contraction.hpp"
#include "pandora/dendrogram/dendrogram.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/graph/edge.hpp"

namespace pandora::dendrogram {

/// Multilevel dendrogram expansion (Sections 3.3.2-3.3.3).
///
/// For every edge e contracted at level k, scans levels m = k+1, k+2, ... for
/// the first one whose supervertex containing e has a dendrogram parent
/// heavier than e; that (edge, side) pair is e's chain.  Edges that exhaust
/// all levels — and all edges of the final chain-only tree — belong to the
/// root chain.  A single radix sort by (chain, index) then materialises every
/// chain: the first edge of a chain attaches to the chain's defining edge,
/// all others to their predecessor (the "sorting + stitching" step).
///
/// Writes `edge_parent[g]` for every global edge g present in `hierarchy`;
/// other entries are left untouched.  Phases timed through
/// `Executor::phase`: "expansion" (level scans + stitching), "sort" (the
/// radix sort).
void expand_multilevel(const exec::Executor& exec, const ContractionHierarchy& hierarchy,
                       std::span<index_t> edge_parent);

/// The dendrogram by single-level expansion (Section 3.3.1) — the
/// non-work-optimal variant, kept as a baseline beside
/// `union_find_dendrogram` for the expansion ablation and as an independent
/// implementation for cross-validation.  Bit-identical to
/// `pandora_dendrogram`.
///
/// Contracts the MST once, computes the full dendrogram of the α-MST (via the
/// multilevel machinery), then inserts every non-α edge by walking the
/// α-dendrogram upwards from its supervertex's parent until an edge heavier
/// than it is found — O(n · h_α) in the worst case, which is exactly the
/// behaviour the expansion ablation quantifies.  Vertex parents come from
/// maxIncident of the original tree (Eq. 1).
///
/// Phases timed through `Executor::phase`: "sort" (EdgeList overload and the
/// chain radix sort), "contraction", "expansion".
[[nodiscard]] Dendrogram single_level_dendrogram(const exec::Executor& exec,
                                                 const SortedEdges& sorted);

/// Convenience overload that sorts internally with `sort_edges`;
/// `validate_input` as for `sort_edges`.
[[nodiscard]] Dendrogram single_level_dendrogram(const exec::Executor& exec,
                                                 const graph::EdgeList& mst,
                                                 index_t num_vertices,
                                                 bool validate_input = false);

}  // namespace pandora::dendrogram
