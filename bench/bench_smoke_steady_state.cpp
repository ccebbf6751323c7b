// CI smoke: steady-state allocation check on a small fig11-style workload.
//
// Builds mutual-reachability MSTs for ~50k points, warms an Executor with
// two dendrogram constructions, then asserts that the third run performs
// ZERO heap allocations and ZERO arena misses — the edge sort writes
// straight into the output Dendrogram, its endpoints, the contraction and
// the expansion run out of the workspace arena, and the output reuses its
// capacity.  Three measured passes:
//  * "pipeline": `Pipeline::build_dendrogram_into` over one MST;
//  * "serial sort+build": the same on a serial-backend executor;
//  * "distinct MSTs": two different MSTs of the same size, alternated on
//    one caching executor and rotated by one edge per run, so every build
//    is of an input no earlier call saw — a cold build is held to the same
//    gate, and no per-input artifact may be allocated on the way.
// Exits non-zero on any allocation, so the Release CI job fails if a
// regression reintroduces per-call allocations.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_allocation_count{0};
}  // namespace

// Replaceable global allocation functions (see tests/alloc_counter.hpp for
// the test-suite twin of this counter).
void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  while (true) {
    if (void* p = std::malloc(size)) return p;
    if (std::new_handler handler = std::get_new_handler()) {
      handler();
    } else {
      throw std::bad_alloc{};
    }
  }
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  const auto align = static_cast<std::size_t>(alignment);
  const std::size_t rounded = (size + align - 1) / align * align;
  while (true) {
    if (void* p = std::aligned_alloc(align, rounded)) return p;
    if (std::new_handler handler = std::get_new_handler()) {
      handler();
    } else {
      throw std::bad_alloc{};
    }
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

#include "bench_common.hpp"
#include "pandora/pipeline.hpp"

using namespace pandora;

int main() {
  const index_t n = bench::scaled(50000);
  bench::print_header("Steady-state allocation smoke (fig11-style workload)",
                      "CI gate: zero heap allocations after warm-up");

  const exec::Executor executor(exec::default_backend());
  const auto mst_of = [&](std::uint64_t seed) {
    const spatial::PointSet points = data::make_dataset("HaccProxy", n, seed);
    spatial::KdTree tree(points);
    return Pipeline::on(executor).with_min_pts(2).build_mst(points, tree);
  };
  const graph::EdgeList mst = mst_of(2024);
  const auto pipeline = Pipeline::on(executor);

  // Third of three identical runs of `run`: the first sizes the arena, the
  // second settles OpenMP team state.  Returns false on any allocation.
  const auto steady_state = [&](const char* label, const exec::Executor& on, auto&& run) {
    run();
    run();
    on.workspace().reset_stats();
    const std::size_t before = g_allocation_count.load();
    Timer timer;
    run();
    const double seconds = timer.seconds();
    const std::size_t allocations = g_allocation_count.load() - before;
    const std::size_t misses = on.workspace().stats().misses;
    std::printf("n=%d  %s steady-state run: %.1f ms, %zu heap allocations, %zu arena misses\n",
                n, label, 1e3 * seconds, allocations, misses);
    return allocations == 0 && misses == 0;
  };

  dendrogram::Dendrogram out;
  const bool pipeline_ok = steady_state(
      "pipeline", executor, [&] { pipeline.build_dendrogram_into(mst, n, out); });
  if (out.num_edges != n - 1 || out.parent[0] != kNone) {
    std::printf("FAIL: dendrogram shape is wrong\n");
    return 1;
  }

  const exec::Executor serial(exec::serial_backend());
  dendrogram::Dendrogram serial_out;
  const bool serial_ok = steady_state("serial sort+build", serial, [&] {
    dendrogram::pandora_dendrogram_into(serial, mst, n, serial_out);
  });
  if (serial_out.parent != out.parent) {
    std::printf("FAIL: serial dendrogram differs from the pipeline one\n");
    return 1;
  }

  // Each run also rotates both edge lists by one edge in place, so no build
  // ever sees an input that an earlier call saw: every build is cold.
  graph::EdgeList first = mst;
  graph::EdgeList second = mst_of(2025);
  dendrogram::Dendrogram first_out, second_out;
  const bool distinct_ok = steady_state("distinct MSTs", executor, [&] {
    for (graph::EdgeList* edges : {&first, &second})
      std::rotate(edges->begin(), edges->begin() + 1, edges->end());
    dendrogram::pandora_dendrogram_into(executor, first, n, first_out);
    dendrogram::pandora_dendrogram_into(executor, second, n, second_out);
  });
  if (first_out.parent != dendrogram::pandora_dendrogram(serial, first, n).parent ||
      second_out.parent != dendrogram::pandora_dendrogram(serial, second, n).parent) {
    std::printf("FAIL: a distinct-MST dendrogram differs from a fresh serial build\n");
    return 1;
  }

  if (!pipeline_ok || !serial_ok || !distinct_ok) {
    std::printf("FAIL: steady-state dendrogram construction must not allocate\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
