// Figure 14: throughput as a function of the sample count, comparing the
// union-find baseline with parallel PANDORA on subsamples of a large dataset.
// The reproduced shape: the baseline peaks immediately and slowly decays;
// PANDORA's throughput *grows* with n until the parallel hardware saturates,
// overtaking the baseline at a modest crossover size.
//
// This bench re-runs the dendrogram many times per size, so it also reports
// the Executor workspace's steady-state behaviour: scratch allocations per
// iteration after the first call (expected: 0 — every buffer is recycled).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pandora/common/rng.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "pandora/pipeline.hpp"

using namespace pandora;

namespace {

spatial::PointSet subsample(const spatial::PointSet& points, index_t n, std::uint64_t seed) {
  Rng rng(seed);
  spatial::PointSet out(points.dim(), n);
  for (index_t i = 0; i < n; ++i) {
    const auto src = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(points.size())));
    for (int d = 0; d < points.dim(); ++d) out.at(i, d) = points.at(src, d);
  }
  return out;
}

void run_series(const exec::Executor& executor, const std::string& dataset,
                bench::JsonReport& json) {
  const index_t full_n = bench::scaled(2000000);
  const spatial::PointSet full = data::make_dataset(dataset, full_n, 11);
  std::printf("\n--- %s (subsampled from %d points) ---\n", dataset.c_str(), full.size());
  std::printf("%10s %18s %18s %17s %14s %14s\n", "samples", "UnionFind [MP/s]",
              "Pandora-MT [MP/s]", "Replay [MP/s]", "warm allocs", "steady allocs");
  for (index_t n = 10000; n <= full_n; n *= 4) {
    const spatial::PointSet points = subsample(full, n, 5 + static_cast<std::uint64_t>(n));
    spatial::KdTree tree(points);
    const graph::EdgeList mst =
        Pipeline::on(executor).with_min_pts(2).build_mst(points, tree);

    // Cold construction comparison: the plain builders cache nothing, so
    // every repeat really sorts (comparable across PRs and algorithms).
    const bench::Measurement m_uf = bench::measure(
        3, [&] { (void)dendrogram::union_find_dendrogram(executor, mst, n); });
    const double t_uf = m_uf.best();

    const auto pandora_pipeline = Pipeline::on(executor);
    // Warm-up call: the workspace sizes itself for this n (counting misses),
    // then the timed repeats should run allocation-free out of the arena.
    executor.workspace().reset_stats();
    (void)pandora_pipeline.build_dendrogram(mst, n);
    const exec::Workspace::Stats warm = executor.workspace().stats();
    executor.workspace().reset_stats();
    const int repeats = 3;
    const bench::Measurement m_pandora =
        bench::measure(repeats, [&] { (void)pandora_pipeline.build_dendrogram(mst, n); });
    const double t_pandora = m_pandora.best();
    const exec::Workspace::Stats steady = executor.workspace().stats();

    // The repeated-identical-query scenario this bench frames: the cached
    // dendrogram replays, so a repeat only hashes the MST and allocates
    // nothing (the "steady allocs" column counts arena misses of exactly
    // these runs).
    (void)dendrogram::pandora_dendrogram_cached(executor, mst, n);  // warm the cache
    executor.workspace().reset_stats();
    const bench::Measurement m_replay = bench::measure(
        repeats, [&] { (void)dendrogram::pandora_dendrogram_cached(executor, mst, n); });
    const exec::Workspace::Stats replay_steady = executor.workspace().stats();

    std::printf("%10d %18.1f %18.1f %17.1f %14zu %14.1f\n", n,
                bench::mpoints_per_sec(n, t_uf), bench::mpoints_per_sec(n, t_pandora),
                bench::mpoints_per_sec(n, m_replay.best()), warm.misses,
                static_cast<double>(replay_steady.misses) / repeats);

    json.field("dataset", dataset)
        .field("n", n)
        .timing("union_find", m_uf)
        .timing("pandora", m_pandora)
        .timing("pandora_replay", m_replay)
        .field("warm_allocs", warm.misses)
        .field("steady_allocs_per_run",
               static_cast<double>(steady.misses) / repeats)
        .field("replay_steady_allocs_per_run",
               static_cast<double>(replay_steady.misses) / repeats);
    json.end_row();
  }
}

}  // namespace

int main() {
  bench::print_header("Throughput vs sample count (dendrogram construction)",
                      "Figure 14 (Hacc497M and Normal300M2 sampling curves)");
  exec::Executor executor(exec::default_backend());
  bench::JsonReport json("fig14");
  run_series(executor, "HaccProxy", json);
  run_series(executor, "Normal2D", json);
  std::printf(
      "\nExpected shape (paper): UnionFind flat/slowly decaying from the start;\n"
      "Pandora rising with n until saturation (~1e6 there), crossing UnionFind at\n"
      "moderate sizes (~3e4 there).  'steady allocs' should be 0: repeated queries\n"
      "on one Executor recycle every scratch buffer from its workspace arena.\n");
  return 0;
}
