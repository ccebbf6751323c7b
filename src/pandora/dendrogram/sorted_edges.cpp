#include "pandora/dendrogram/sorted_edges.hpp"

#include <algorithm>
#include <bit>

#include "pandora/common/expect.hpp"
#include "pandora/exec/fingerprint.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/exec/sort.hpp"
#include "pandora/graph/tree.hpp"

namespace pandora::dendrogram {

namespace {

using exec::mix_fingerprint;

/// Low 32 bits of edge id's descending weight key — the part the packed sort
/// discards; recomputed on demand by the collision fix-up.
std::uint32_t low_key_of(const graph::EdgeList& edges, std::uint64_t packed_entry) {
  const auto id = static_cast<std::size_t>(packed_entry & 0xffffffffu);
  return static_cast<std::uint32_t>(exec::descending_weight_key(edges[id].weight));
}

/// Repairs runs of equal 32-bit key prefixes whose weights differ below the
/// prefix: after the prefix sort such a run is in ascending id order, but the
/// canonical order continues through the remaining weight-key bits first.
/// Exact ties (identical weights) have identical low keys too, so their runs
/// are left untouched and keep the stable ascending-id tie-break.
///
/// Two passes keep the repair race-free: a read-only pass marks each
/// repair-run start with its end position, then a second pass sorts the
/// (disjoint) marked runs.  Total scan work is O(n) — each element belongs to
/// exactly one run, walked by the run's first entry — and repairs themselves
/// are rare and local.
///
/// Returns false without repairing when the marked runs cover most of the
/// array: weights so tightly clustered that the 32-bit prefix separates
/// almost nothing would turn the repair into one big serial comparison sort,
/// so the caller falls back to the parallel merge argsort instead.
[[nodiscard]] bool repair_prefix_collisions(const exec::Executor& exec,
                                            std::span<std::uint64_t> packed,
                                            const graph::EdgeList& edges) {
  const size_type n = static_cast<size_type>(packed.size());
  auto run_end_lease = exec.workspace().take_uninit<size_type>(n);
  const std::span<size_type> run_end = run_end_lease.span();

  // Pass 1 (reads packed, writes only run_end[p]): find runs needing repair.
  exec::parallel_for(exec, n, [&](size_type p) {
    run_end[static_cast<std::size_t>(p)] = 0;  // 0 = nothing to repair here
    const std::uint64_t prefix = packed[static_cast<std::size_t>(p)] >> 32;
    if (p > 0 && (packed[static_cast<std::size_t>(p - 1)] >> 32) == prefix) return;
    size_type end = p + 1;
    while (end < n && (packed[static_cast<std::size_t>(end)] >> 32) == prefix) ++end;
    if (end - p < 2) return;
    const std::uint32_t first = low_key_of(edges, packed[static_cast<std::size_t>(p)]);
    for (size_type q = p + 1; q < end; ++q) {
      if (low_key_of(edges, packed[static_cast<std::size_t>(q)]) != first) {
        run_end[static_cast<std::size_t>(p)] = end;
        return;
      }
    }
  });

  const size_type total_repair = exec::parallel_sum(
      exec, n, size_type{0}, [&](size_type p) {
        const size_type end = run_end[static_cast<std::size_t>(p)];
        return end == 0 ? size_type{0} : end - p;
      });
  if (2 * total_repair > n) return false;  // degenerate: prefixes separate nothing

  // Pass 2: sort each marked run; runs are disjoint, so writes never overlap
  // and every read stays within the writer's own run.
  exec::parallel_for(exec, n, [&](size_type p) {
    const size_type end = run_end[static_cast<std::size_t>(p)];
    if (end == 0) return;
    std::sort(packed.begin() + p, packed.begin() + end,
              [&](std::uint64_t a, std::uint64_t b) {
                const std::uint32_t la = low_key_of(edges, a);
                const std::uint32_t lb = low_key_of(edges, b);
                if (la != lb) return la < lb;
                return (a & 0xffffffffu) < (b & 0xffffffffu);
              });
  });
  return true;
}

/// The key-packed radix argsort: writes the descending-(weight, id)
/// permutation into `order`.  Returns false (leaving `order` unspecified)
/// when the input degenerates the prefix repair — the caller then uses the
/// comparison path.
[[nodiscard]] bool radix_argsort(const exec::Executor& exec, const graph::EdgeList& edges,
                                 std::span<index_t> order) {
  const size_type n = static_cast<size_type>(edges.size());
  auto packed_lease = exec.workspace().take_uninit<std::uint64_t>(n);
  const std::span<std::uint64_t> packed = packed_lease.span();
  exec::parallel_for(exec, n, [&](size_type i) {
    packed[static_cast<std::size_t>(i)] = exec::pack_key_and_id(
        exec::descending_weight_key(edges[static_cast<std::size_t>(i)].weight),
        static_cast<index_t>(i));
  });
  // Radix over the key bytes only; stability over the id bytes implements
  // the ascending-id tie-break (ids were packed in ascending order).
  exec::radix_sort_u64(exec, packed, /*first_byte=*/4, /*last_byte=*/8);
  if (!repair_prefix_collisions(exec, packed, edges)) return false;
  exec::parallel_for(exec, n, [&](size_type i) {
    order[static_cast<std::size_t>(i)] =
        static_cast<index_t>(packed[static_cast<std::size_t>(i)] & 0xffffffffu);
  });
  return true;
}

/// The degenerate-prefix fallback: a stable merge argsort under the explicit
/// descending-(weight, id) comparator.
void merge_argsort(const exec::Executor& exec, const graph::EdgeList& edges,
                   std::span<index_t> order) {
  const size_type n = static_cast<size_type>(edges.size());
  exec::parallel_for(exec, n,
                     [&](size_type i) { order[static_cast<std::size_t>(i)] =
                                            static_cast<index_t>(i); });
  exec::merge_sort(exec, order, [&edges](index_t a, index_t b) {
    const double wa = edges[static_cast<std::size_t>(a)].weight;
    const double wb = edges[static_cast<std::size_t>(b)].weight;
    if (wa != wb) return wa > wb;
    return a < b;
  });
}

}  // namespace

void sort_edges_into(const exec::Executor& exec, const graph::EdgeList& edges,
                     std::span<index_t> u, std::span<index_t> v, std::span<double> weight,
                     std::span<index_t> order) {
  const size_type n = static_cast<size_type>(edges.size());
  PANDORA_EXPECT(u.size() == edges.size() && v.size() == edges.size() &&
                     weight.size() == edges.size() && order.size() == edges.size(),
                 "sort_edges_into needs one output slot per edge");

  if (!radix_argsort(exec, edges, order)) merge_argsort(exec, edges, order);

  // Gather endpoints and weights once from the permutation (never sort
  // structs: the sort moved 8-byte words only).
  exec::parallel_for(exec, n, [&](size_type i) {
    const auto& e = edges[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
    u[static_cast<std::size_t>(i)] = e.u;
    v[static_cast<std::size_t>(i)] = e.v;
    weight[static_cast<std::size_t>(i)] = e.weight;
  });
}

SortedEdges sort_edges(const exec::Executor& exec, const graph::EdgeList& edges,
                       index_t num_vertices, bool validate_input) {
  if (validate_input) graph::validate_tree(edges, num_vertices);
  const std::size_t n = edges.size();
  SortedEdges sorted;
  sorted.num_vertices = num_vertices;
  sorted.u.resize(n);
  sorted.v.resize(n);
  sorted.weight.resize(n);
  sorted.order.resize(n);
  sort_edges_into(exec, edges, sorted.u, sorted.v, sorted.weight, sorted.order);
  return sorted;
}

void merge_sorted_edges_delta(const exec::Executor& exec, const SortedEdges& base,
                              std::span<const char> keep, const graph::EdgeList& added,
                              std::span<const index_t> vertex_remap, index_t num_vertices,
                              SortedEdges& out) {
  PANDORA_EXPECT(&out != &base, "merge_sorted_edges_delta output must not alias its input");
  PANDORA_EXPECT(static_cast<index_t>(keep.size()) == base.num_edges(),
                 "one keep flag per original edge required");
  const size_type e_base = static_cast<size_type>(base.num_edges());
  const size_type e_added = static_cast<size_type>(added.size());

  // New dense index of every surviving original edge: its rank among the
  // survivors in original order (ties between survivors keep their relative
  // sorted order because the renumbering is monotone).
  auto rank_lease = exec.workspace().take_uninit<index_t>(e_base);
  const std::span<index_t> rank = rank_lease.span();
  index_t num_kept = 0;
  for (size_type i = 0; i < e_base; ++i)
    rank[static_cast<std::size_t>(i)] = keep[static_cast<std::size_t>(i)] != 0 ? num_kept++ : kNone;

  // The added run, sorted descending-(weight, position): positions continue
  // after the survivors, so on exact ties a survivor always precedes an
  // added edge and the merge below can break ties by run.
  auto added_order_lease = exec.workspace().take_uninit<index_t>(e_added);
  const std::span<index_t> added_order = added_order_lease.span();
  for (size_type j = 0; j < e_added; ++j)
    added_order[static_cast<std::size_t>(j)] = static_cast<index_t>(j);
  std::sort(added_order.begin(), added_order.end(), [&](index_t a, index_t b) {
    const double wa = added[static_cast<std::size_t>(a)].weight;
    const double wb = added[static_cast<std::size_t>(b)].weight;
    if (wa != wb) return wa > wb;
    return a < b;
  });

  const size_type e_out = static_cast<size_type>(num_kept) + e_added;
  out.num_vertices = num_vertices;
  out.u.resize(static_cast<std::size_t>(e_out));
  out.v.resize(static_cast<std::size_t>(e_out));
  out.weight.resize(static_cast<std::size_t>(e_out));
  out.order.resize(static_cast<std::size_t>(e_out));

  const auto remap = [&](index_t vertex) {
    return vertex_remap.empty() ? vertex : vertex_remap[static_cast<std::size_t>(vertex)];
  };

  // One linear merge of the two descending runs.  `i` walks base's sorted
  // positions (skipping dropped edges), `j` walks the sorted added run; on a
  // weight tie the surviving base edge wins (smaller new index).
  size_type i = 0, j = 0, o = 0;
  const auto next_survivor = [&] {
    while (i < e_base && keep[static_cast<std::size_t>(
                             base.order[static_cast<std::size_t>(i)])] == 0)
      ++i;
    return i < e_base;
  };
  while (true) {
    const bool has_base = next_survivor();
    const bool has_added = j < e_added;
    if (!has_base && !has_added) break;
    bool take_base;
    if (has_base && has_added) {
      const double wb = base.weight[static_cast<std::size_t>(i)];
      const double wa =
          added[static_cast<std::size_t>(added_order[static_cast<std::size_t>(j)])].weight;
      take_base = wb >= wa;
    } else {
      take_base = has_base;
    }
    const auto slot = static_cast<std::size_t>(o++);
    if (take_base) {
      const auto pos = static_cast<std::size_t>(i++);
      out.u[slot] = remap(base.u[pos]);
      out.v[slot] = remap(base.v[pos]);
      out.weight[slot] = base.weight[pos];
      out.order[slot] = rank[static_cast<std::size_t>(base.order[pos])];
    } else {
      const auto a = static_cast<std::size_t>(added_order[static_cast<std::size_t>(j++)]);
      const graph::WeightedEdge& edge = added[a];
      out.u[slot] = edge.u;
      out.v[slot] = edge.v;
      out.weight[slot] = edge.weight;
      out.order[slot] = num_kept + static_cast<index_t>(a);
    }
  }
}

std::uint64_t mst_fingerprint(const exec::Executor& exec, const graph::EdgeList& edges,
                              index_t num_vertices) {
  const size_type n = static_cast<size_type>(edges.size());
  // Each edge hashes with its position, so the sum is order-sensitive while
  // remaining a deterministic parallel reduction.
  const std::uint64_t body = exec::parallel_sum(
      exec, n, std::uint64_t{0}, [&](size_type i) {
        const auto& e = edges[static_cast<std::size_t>(i)];
        const std::uint64_t endpoints =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.u)) << 32) |
            static_cast<std::uint32_t>(e.v);
        const std::uint64_t salted =
            std::bit_cast<std::uint64_t>(e.weight) +
            0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1);
        return mix_fingerprint(endpoints ^ mix_fingerprint(salted));
      });
  return mix_fingerprint(
      body ^ mix_fingerprint(static_cast<std::uint64_t>(n)) ^
      mix_fingerprint(~static_cast<std::uint64_t>(static_cast<std::uint32_t>(num_vertices))));
}

}  // namespace pandora::dendrogram
