#include "pandora/dendrogram/pandora.hpp"

#include <algorithm>
#include <atomic>

#include "pandora/dendrogram/contraction.hpp"
#include "pandora/dendrogram/expansion.hpp"
#include "pandora/exec/fingerprint.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/graph/tree.hpp"

namespace pandora::dendrogram {

namespace {

/// Contraction and expansion over the sorted endpoints `u`/`v` (rank i =
/// sorted edge i): fills `out.parent`.  `out.weight` and `out.edge_order`
/// are the caller's.  `u` and `v` may live in `out.parent` itself: only the
/// contraction reads them, and `out.parent` is written after it.
void build_from_sorted(const exec::Executor& exec, std::span<const index_t> u,
                       std::span<const index_t> v, index_t num_vertices, Dendrogram& out) {
  const auto n = static_cast<index_t>(u.size());
  const index_t nv = num_vertices;

  // The base level's global indices are the identity, so no gid iota is ever
  // materialised (the contraction reads the loop index directly).
  ContractionHierarchy hierarchy;
  if (n > 0)
    exec.phase("contraction", [&] { hierarchy = build_hierarchy(exec, u, v, {}, nv, n); });

  out.num_edges = n;
  out.num_vertices = nv;
  out.parent.assign(static_cast<std::size_t>(n) + static_cast<std::size_t>(nv), kNone);
  if (n == 0) return;  // single data point: the vertex is the root

  std::span<index_t> edge_parent(out.parent.data(), static_cast<std::size_t>(n));
  expand_multilevel(exec, hierarchy, edge_parent);

  // Vertex parents by Eq. (1), straight from the base level's sided parents.
  const std::span<const std::int64_t> sided0 = hierarchy.levels[0].sided_parent;
  exec::parallel_for(exec, nv, [&](size_type x) {
    out.parent[static_cast<std::size_t>(n + x)] =
        static_cast<index_t>(sided0[static_cast<std::size_t>(x)] >> 1);
  });
}

}  // namespace

void pandora_dendrogram_into(const exec::Executor& exec, const SortedEdges& sorted,
                             Dendrogram& out) {
  out.weight = sorted.weight;  // copy-assign: reuses capacity
  out.edge_order = sorted.order;
  build_from_sorted(exec, sorted.u, sorted.v, sorted.num_vertices, out);
}

void pandora_dendrogram_into(const exec::Executor& exec, const graph::EdgeList& mst,
                             index_t num_vertices, Dendrogram& out, bool validate_input) {
  // The sort writes weights and ranks straight into the output, and the
  // endpoints into the output's parent storage (n + num_vertices >= 2n slots
  // for a tree), which the contraction consumes before any parent is
  // written: a cold build keeps no sorted copy of its own.
  const std::size_t n = mst.size();
  const auto nv = static_cast<std::size_t>(num_vertices);
  exec.phase("sort", [&] {
    if (validate_input) graph::validate_tree(mst, num_vertices);
    out.weight.resize(n);
    out.edge_order.resize(n);
    out.parent.resize(std::max(n + nv, 2 * n));
    const std::span<index_t> endpoints(out.parent);
    sort_edges_into(exec, mst, endpoints.first(n), endpoints.subspan(n, n), out.weight,
                    out.edge_order);
  });
  const std::span<const index_t> endpoints(out.parent);
  build_from_sorted(exec, endpoints.first(n), endpoints.subspan(n, n), num_vertices, out);
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
/// validation flag is atomic because concurrent batch queries may share the
/// entry (see the ArtifactCache locking contract): validation is monotone
/// (false -> true), so a racy double validation is merely redundant work.
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
        auto built = std::make_shared<CachedDendrogram>();
        pandora_dendrogram_into(exec, mst, num_vertices, built->dendrogram, validate_input);
        built->validated = validate_input;
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
