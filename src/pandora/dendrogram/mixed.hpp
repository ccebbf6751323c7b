#pragma once

#include "pandora/common/timer.hpp"
#include "pandora/common/types.hpp"
#include "pandora/dendrogram/dendrogram.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/graph/edge.hpp"

namespace pandora::dendrogram {

/// Mixed top-down / bottom-up dendrogram construction after Wang et al. [46]
/// (Section 2.3.3).
///
/// The `top_fraction` heaviest edges are withheld (the "top-down" cut),
/// splitting the MST into subtrees.  Each subtree's dendrogram is built
/// bottom-up independently — in parallel, since the subtrees are vertex-
/// disjoint — and the withheld edges are then stitched on top by continuing
/// the same bottom-up pass.  The output is node-for-node identical to
/// Algorithm 2 (and therefore to PANDORA).
///
/// This reproduces the competing parallel algorithm's structure and its
/// weakness: on skewed dendrograms one subtree holds almost all edges, so the
/// parallel phase degenerates to the sequential baseline (the load-imbalance
/// argument of Section 2.3.3).
///
/// Phases timed through `Executor::phase`: "split", "subtrees",
/// "stitch" (and "sort" for the EdgeList overload).
[[nodiscard]] Dendrogram mixed_dendrogram(const exec::Executor& exec,
                                          const SortedEdges& sorted,
                                          double top_fraction = 0.1);

/// Convenience overload that sorts internally with `sort_edges`.
[[nodiscard]] Dendrogram mixed_dendrogram(const exec::Executor& exec,
                                          const graph::EdgeList& mst, index_t num_vertices,
                                          double top_fraction = 0.1);

// The deprecated bare-`Space` shims were removed after their deprecation
// cycle: pass a `const exec::Executor&` (and open an `exec::ScopedPhaseTimes`
// on it for the old `PhaseTimes*` plumbing).

}  // namespace pandora::dendrogram
