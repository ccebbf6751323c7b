#pragma once

#include "pandora/common/timer.hpp"
#include "pandora/common/types.hpp"
#include "pandora/dendrogram/dendrogram.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/graph/edge.hpp"

namespace pandora::dendrogram {

/// PANDORA: parallel dendrogram construction by recursive tree contraction
/// (Algorithm 3).  Work-optimal (O(n log n), Section 4) and expressed
/// entirely in parallel loops, scans and sorts.
///
/// The MST overloads run the initial sort through the cross-call SortedEdges
/// cache (see sorted_edges_cached), so repeated queries against one MST sort
/// once; the `_into` variants additionally reuse the output Dendrogram's
/// storage — a second identical call on a warm Executor performs no heap
/// allocation at all.
///
/// Phases timed through `Executor::phase`: "sort" (initial edge sort +
/// chain radix sort), "contraction" (multilevel tree contraction),
/// "expansion" (chain assignment + stitching).
///
/// When `validate_input` is set, rejects inputs that are not spanning trees
/// with finite weights.  The single-level expansion of Section 3.3.1 is the
/// separate baseline `single_level_dendrogram` (expansion.hpp).
[[nodiscard]] Dendrogram pandora_dendrogram(const exec::Executor& exec,
                                            const graph::EdgeList& mst, index_t num_vertices,
                                            bool validate_input = false);

/// As above, starting from pre-sorted edges (skips the "sort" phase's initial
/// sort; useful when the caller shares one sort across algorithms).
[[nodiscard]] Dendrogram pandora_dendrogram(const exec::Executor& exec,
                                            const SortedEdges& sorted);

/// Output-reusing variants: `out` is overwritten in place, reusing its
/// vectors' capacity.
void pandora_dendrogram_into(const exec::Executor& exec, const graph::EdgeList& mst,
                             index_t num_vertices, Dendrogram& out,
                             bool validate_input = false);

void pandora_dendrogram_into(const exec::Executor& exec, const SortedEdges& sorted,
                             Dendrogram& out);

/// The cross-call dendrogram cache: the PANDORA dendrogram of `mst`, replayed
/// from the Executor's ArtifactCache when the MST fingerprint matches.  This
/// is the artifact repeated `hdbscan()` calls and a `min_cluster_size` sweep
/// replay: the contraction-hierarchy construction and expansion run once, and
/// every later query only re-condenses the tree (min_cluster_size does not
/// enter the key because it does not enter the dendrogram).  A mutated MST
/// derives a different key and misses.  A miss hashes the MST once and sorts
/// inside the "sort" phase: the entry carries the sort's weight and
/// edge_order, so no SortedEdges entry is cached beside it.  With
/// `Executor::set_artifact_caching(false)` every call rebuilds.
[[nodiscard]] std::shared_ptr<const Dendrogram> pandora_dendrogram_cached(
    const exec::Executor& exec, const graph::EdgeList& mst, index_t num_vertices,
    bool validate_input = false);

// The deprecated bare-`Space` shims (`pandora_dendrogram(mst, n, options,
// times)`) were removed after their deprecation cycle: pass a
// `const exec::Executor&` and, for the old `PhaseTimes*` plumbing, open an
// `exec::ScopedPhaseTimes` on it.

}  // namespace pandora::dendrogram
