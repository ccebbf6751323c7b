#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/backend.hpp"
#include "pandora/exec/executor.hpp"

/// Parallel sorting.
///
/// Two algorithms are provided, both stable:
///  * `merge_sort` — comparison-based; the initial descending-weight edge
///    sort of Section 3.1.1 falls back to it only when the input's 32-bit
///    weight prefixes separate almost nothing (see `sort_edges`).
///  * `radix_sort_u64` — an LSD radix sort over packed 64-bit keys, optionally
///    restricted to a byte range.  It carries the whole hot path: the (chain,
///    index) sort of the expansion stage (Section 3.3.3) and — through the
///    order-preserving key transforms below — the initial descending-weight
///    edge sort, where the sort key occupies the high 32 bits and the original
///    edge id rides in the low 32 bits so that radixing only the key bytes
///    leaves the ids as the stable tie-break.  This mirrors the paper's
///    observation that GPU dendrogram time is dominated by sorts and that
///    radix-style sorts are the best-scaling primitive (Figure 12).
///    Every call, whatever its size, runs `Backend::radix_sort_u64`: the
///    default implementation's chunked histogram/scatter passes go through
///    `run_chunks`, with one worker (and so inline on the caller) below the
///    parallel grain or on a single-thread Executor; a device backend
///    overrides it with a native sort.
///
/// All scratch (ping-pong buffers, per-chunk histograms) is leased from the
/// Executor's Workspace, so repeated sorts on same-sized inputs allocate
/// nothing after the first call.
namespace pandora::exec {

namespace detail {

/// Sort `v` into `num_chunks` sorted runs, then merge pairwise in rounds.
template <class T, class Comp>
void parallel_merge_sort(const Executor& exec, std::vector<T>& v, Comp comp) {
  const size_type n = static_cast<size_type>(v.size());
  const int num_threads = exec.num_threads();
  // Round chunk count down to a power of two for a clean pairwise merge tree.
  int chunks = 1;
  while (chunks * 2 <= num_threads) chunks *= 2;
  if (chunks < 2 || n < kParallelForGrain) {
    std::stable_sort(v.begin(), v.end(), comp);
    return;
  }

  std::vector<size_type> bounds(static_cast<std::size_t>(chunks) + 1);
  for (int c = 0; c <= chunks; ++c) bounds[c] = n * c / chunks;

  auto sort_chunk = [&](int c) {
    std::stable_sort(v.begin() + bounds[c], v.begin() + bounds[c + 1], comp);
  };
  exec.run_chunks(chunks, num_threads, sort_chunk);

  auto buffer = exec.workspace().template take_uninit<T>(n);
  T* src = v.data();
  T* dst = buffer.data();
  for (int width = 1; width < chunks; width *= 2) {
    const int merges = chunks / (2 * width);
    auto merge_pair = [&](int m) {
      const int c = m * 2 * width;
      const size_type lo = bounds[c];
      const size_type mid = bounds[std::min(c + width, chunks)];
      const size_type hi = bounds[std::min(c + 2 * width, chunks)];
      std::merge(src + lo, src + mid, src + mid, src + hi, dst + lo, comp);
    };
    exec.run_chunks(merges, num_threads, merge_pair);
    std::swap(src, dst);
  }
  if (src != v.data()) std::memcpy(v.data(), src, sizeof(T) * static_cast<std::size_t>(n));
}

}  // namespace detail

/// Stable comparison sort of `v` under `comp`.
template <class T, class Comp>
void merge_sort(const Executor& exec, std::vector<T>& v, Comp comp) {
  if (exec.num_threads() > 1) {
    detail::parallel_merge_sort(exec, v, comp);
  } else {
    std::stable_sort(v.begin(), v.end(), comp);
  }
}

/// Stable LSD radix sort of 64-bit keys, ascending, over the byte range
/// [first_byte, last_byte) (byte 0 is least significant).  Restricting the
/// range turns the sort into a key-value sort whose key and value share one
/// word: sorting only bytes [4, 8) of `(key32 << 32) | value32` words orders
/// by key32 while stability preserves the pre-sort order of equal keys —
/// which is ascending value32 when the caller packed values in that order.
inline void radix_sort_u64(const Executor& exec, std::span<std::uint64_t> keys,
                           int first_byte = 0, int last_byte = 8) {
  const size_type n = static_cast<size_type>(keys.size());
  if (n < 2) return;
  // The backend's native sort is one uncancellable kernel from the caller's
  // point of view (its internal run_chunks launches bypass the Executor), so
  // bracket it with explicit checks.
  exec.check_cancellation();
  exec.backend().radix_sort_u64(exec.workspace(), exec.parallelize(n) ? exec.num_threads() : 1,
                                keys, first_byte, last_byte);
  exec.check_cancellation();
}

// --- order-preserving key transforms ---------------------------------------
//
// The IEEE-754 "sign-flip trick": reinterpret the float's bits as an unsigned
// integer, then flip the sign bit for non-negative values and ALL bits for
// negative values.  The result compares (as an unsigned integer) exactly like
// the float compares, for every finite value including denormals and for
// ±infinity.  ±0.0 must be canonicalised first (they compare equal as floats
// but have different bit patterns).  NaNs have no total order and are
// excluded by input validation.

/// Order-preserving u32 key of a float (ascending).
[[nodiscard]] inline std::uint32_t order_preserving_key32(float value) {
  if (value == 0.0f) value = 0.0f;  // -0.0f -> +0.0f
  const auto bits = std::bit_cast<std::uint32_t>(value);
  return bits ^ ((bits >> 31) != 0 ? ~std::uint32_t{0} : std::uint32_t{1} << 31);
}

/// Order-preserving u64 key of a double (ascending).
[[nodiscard]] inline std::uint64_t order_preserving_key64(double value) {
  if (value == 0.0) value = 0.0;  // -0.0 -> +0.0
  const auto bits = std::bit_cast<std::uint64_t>(value);
  return bits ^ ((bits >> 63) != 0 ? ~std::uint64_t{0} : std::uint64_t{1} << 63);
}

/// Order-preserving u64 key of a double for DESCENDING sorts (larger weight
/// -> smaller key), the order of the Section 3.1.1 edge sort.
[[nodiscard]] inline std::uint64_t descending_weight_key(double weight) {
  return ~order_preserving_key64(weight);
}

/// Packs the high 32 bits of a descending weight key with an edge id:
/// radix-sorting the packed words on bytes [4, 8) orders by the key prefix
/// while stability keeps equal prefixes in ascending id order — the canonical
/// tie-break.  (Ties in the prefix with *differing* low key bits are repaired
/// by a run fix-up pass; see sort_edges.)
[[nodiscard]] inline std::uint64_t pack_key_and_id(std::uint64_t descending_key,
                                                   index_t id) {
  return (descending_key & (~std::uint64_t{0} << 32)) |
         static_cast<std::uint32_t>(id);
}

/// Maps a non-negative double to a u64 preserving order (IEEE-754 bit trick;
/// valid because distances/weights in this library are >= 0).  Prefer
/// order_preserving_key64, which also handles negative values.
[[nodiscard]] inline std::uint64_t order_preserving_bits(double non_negative) {
  return std::bit_cast<std::uint64_t>(non_negative);
}

}  // namespace pandora::exec
