#include "pandora/dendrogram/pandora.hpp"

#include <atomic>

#include "pandora/dendrogram/contraction.hpp"
#include "pandora/dendrogram/expansion.hpp"
#include "pandora/exec/fingerprint.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/graph/tree.hpp"

namespace pandora::dendrogram {

void pandora_dendrogram_into(const exec::Executor& exec, const SortedEdges& sorted,
                             Dendrogram& out) {
  const index_t n = sorted.num_edges();
  const index_t nv = sorted.num_vertices;

  out.num_edges = n;
  out.num_vertices = nv;
  out.weight = sorted.weight;        // copy-assign: reuses capacity
  out.edge_order = sorted.order;
  out.parent.assign(static_cast<std::size_t>(n) + static_cast<std::size_t>(nv), kNone);
  if (n == 0) return;  // single data point: the vertex is the root

  std::span<index_t> edge_parent(out.parent.data(), static_cast<std::size_t>(n));

  // The base level's global indices are the identity, so no gid iota is ever
  // materialised (the contraction reads the loop index directly).
  ContractionHierarchy hierarchy;
  exec.phase("contraction",
             [&] { hierarchy = build_hierarchy(exec, sorted.u, sorted.v, {}, nv, n); });

  expand_multilevel(exec, hierarchy, edge_parent);

  // Vertex parents by Eq. (1), straight from the base level's sided parents.
  const std::span<const std::int64_t> sided0 = hierarchy.levels[0].sided_parent;
  exec::parallel_for(exec, nv, [&](size_type x) {
    out.parent[static_cast<std::size_t>(n + x)] =
        static_cast<index_t>(sided0[static_cast<std::size_t>(x)] >> 1);
  });
}

void pandora_dendrogram_into(const exec::Executor& exec, const graph::EdgeList& mst,
                             index_t num_vertices, Dendrogram& out, bool validate_input) {
  std::shared_ptr<const SortedEdges> sorted;
  exec.phase("sort",
             [&] { sorted = sorted_edges_cached(exec, mst, num_vertices, validate_input); });
  pandora_dendrogram_into(exec, *sorted, out);
}

Dendrogram pandora_dendrogram(const exec::Executor& exec, const SortedEdges& sorted) {
  Dendrogram dendrogram;
  pandora_dendrogram_into(exec, sorted, dendrogram);
  return dendrogram;
}

Dendrogram pandora_dendrogram(const exec::Executor& exec, const graph::EdgeList& mst,
                              index_t num_vertices, bool validate_input) {
  Dendrogram dendrogram;
  pandora_dendrogram_into(exec, mst, num_vertices, dendrogram, validate_input);
  return dendrogram;
}

namespace {

/// A dendrogram artifact as stored in the Executor's ArtifactCache.  The
/// validation flag is atomic for the same reason as CachedSortedEdges:
/// concurrent batch queries may share the entry, and validation is monotone.
struct CachedDendrogram {
  Dendrogram dendrogram;
  std::atomic<bool> validated{false};
};

}  // namespace

std::shared_ptr<const Dendrogram> pandora_dendrogram_cached(const exec::Executor& exec,
                                                            const graph::EdgeList& mst,
                                                            index_t num_vertices,
                                                            bool validate_input) {
  std::shared_ptr<CachedDendrogram> entry = exec::cached_artifact<CachedDendrogram>(
      exec, exec::ArtifactTag::dendrogram,
      [&] { return mst_fingerprint(exec, mst, num_vertices); },
      [&] {
        // The dendrogram carries the sort's weight and edge_order, so the
        // sort is not cached beside it: a miss hashes the MST once and sorts.
        SortedEdges sorted;
        exec.phase("sort", [&] {
          if (validate_input) graph::validate_tree(mst, num_vertices);
          sort_edges_into(exec, mst, num_vertices, sorted);
        });
        auto built = std::make_shared<CachedDendrogram>();
        built->validated = validate_input;
        pandora_dendrogram_into(exec, sorted, built->dendrogram);
        return built;
      });
  if (validate_input && !entry->validated) {  // a hit first built unvalidated
    graph::validate_tree(mst, num_vertices);
    entry->validated = true;
  }
  const Dendrogram* view = &entry->dendrogram;
  return {std::move(entry), view};
}

}  // namespace pandora::dendrogram
