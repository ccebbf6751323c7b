// Figure 15: end-to-end HDBSCAN* (first two steps: EMST + dendrogram) as a
// function of minPts (mpts = 2, 4, 8, 16), comparing
//   * the baseline pipeline — parallel EMST + sequential union-find
//     dendrogram (the MemoGFK / UnionFind-MT role), against
//   * the PANDORA pipeline — parallel EMST + parallel PANDORA dendrogram
//     (the ArborX + Pandora role).
// Reproduced shapes: the PANDORA pipeline wins overall; the *dendrogram*
// share grows with mpts much faster for the baseline (1.6-2.4x from mpts 2 to
// 16 there) than for PANDORA (1.1-1.5x).
//
// Sweep mode: the mpts sweep is the ArtifactCache's home turf.  The kd-tree
// does not depend on mpts, so the sweep builds it once and replays it per
// value; a repeated sweep (the serving scenario) additionally replays the
// per-mpts core distances.  The "rebuild" columns force caching off — what
// this bench necessarily did before the spatial cache hooks existed — and the
// "replay" columns run the same per-mpts preparation on a warm cache, leaving
// only the genuinely mpts-dependent EMST to rebuild.

#include <optional>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/pipeline.hpp"

using namespace pandora;

namespace {

struct PrepareTimes {
  double tree_seconds = 0;
  double core_seconds = 0;
  double mst_seconds = 0;
  graph::EdgeList mst;

  [[nodiscard]] double total() const { return tree_seconds + core_seconds + mst_seconds; }
};

/// The per-mpts preparation (kd-tree, core distances, mutual-reachability
/// EMST) through the cache-aware hooks; with caching off this is the rebuild
/// path, on a warm cache the tree and core phases become replays.
PrepareTimes prepare(const exec::Executor& executor, const spatial::PointSet& points,
                     int mpts) {
  PrepareTimes times;
  // One content hash shared by both cache lookups (cf. hdbscan()).
  std::optional<std::uint64_t> points_fp;
  if (executor.artifact_caching())
    points_fp = spatial::point_set_fingerprint(executor, points);

  Timer timer;
  const auto tree = spatial::kdtree_cached(executor, points, 32, points_fp);
  times.tree_seconds = timer.seconds();

  timer.reset();
  const auto core = hdbscan::core_distances_cached(executor, points, *tree, mpts, points_fp);
  times.core_seconds = timer.seconds();

  timer.reset();
  times.mst =
      spatial::mutual_reachability_mst(executor, points, *tree, core->values, core->round1_seed);
  times.mst_seconds = timer.seconds();
  return times;
}

void run_dataset(const exec::Executor& executor, const std::string& name,
                 bench::JsonReport& json) {
  std::printf("\n--- %s ---\n", name.c_str());
  std::printf("%6s | %13s %14s | %13s %14s | %9s | %13s\n", "mpts", "Ttotal(base)",
              "Tdendro(base)", "Ttotal(ours)", "Tdendro(ours)", "speedup", "prep replay");
  const index_t n = bench::scaled(400000);
  const spatial::PointSet points = data::make_dataset(name, n, 2024);
  double first_uf = 0, last_uf = 0, first_pandora = 0, last_pandora = 0;
  double rebuild_total = 0, replay_total = 0;
  for (const int mpts : {2, 4, 8, 16}) {
    // Rebuild path: caching off, every phase computed from scratch (the
    // cold-construction columns of the figure).  Median-of-3 like every
    // other measurement the CI regression gate consumes.
    executor.set_artifact_caching(false);
    PrepareTimes rebuild;
    const bench::Measurement m_rebuild =
        bench::measure(3, [&] { rebuild = prepare(executor, points, mpts); });

    // Replay path: warm the cache with one pass, then measure the same
    // preparation again — tree and core replay, the EMST rebuilds.
    executor.set_artifact_caching(true);
    (void)prepare(executor, points, mpts);
    PrepareTimes replay;
    const bench::Measurement m_replay_prepare =
        bench::measure(3, [&] { replay = prepare(executor, points, mpts); });
    rebuild_total += m_rebuild.median();
    replay_total += m_replay_prepare.median();

    const graph::EdgeList& mst = rebuild.mst;

    // Cold dendrogram construction comparison (the plain builders cache
    // nothing, so repeats sort).
    const bench::Measurement m_uf = bench::measure(3, [&] {
      (void)dendrogram::union_find_dendrogram(executor, mst, n);
    });
    const double t_uf = m_uf.best();
    const auto pandora_pipeline = Pipeline::on(executor);
    const bench::Measurement m_pandora = bench::measure(3, [&] {
      (void)pandora_pipeline.build_dendrogram(mst, n);
    });
    const double t_pandora = m_pandora.best();

    // Sweep scenario on the warm cache: repeated queries against this mpts's
    // MST replay its cached dendrogram instead of rebuilding it.
    (void)dendrogram::pandora_dendrogram_cached(executor, mst, n);
    const bench::Measurement m_replay = bench::measure(
        3, [&] { (void)dendrogram::pandora_dendrogram_cached(executor, mst, n); });
    if (mpts == 2) {
      first_uf = t_uf;
      first_pandora = t_pandora;
    }
    last_uf = t_uf;
    last_pandora = t_pandora;

    const double shared = rebuild.core_seconds + rebuild.mst_seconds;
    std::printf(
        "%6d | %12.3fs %13.1fms | %12.3fs %13.1fms (replay %.1fms) | %8.2fx | %6.0fms/%.0fms\n",
        mpts, shared + t_uf, 1e3 * t_uf, shared + t_pandora, 1e3 * t_pandora,
        1e3 * m_replay.best(), (shared + t_uf) / (shared + t_pandora),
        1e3 * m_replay_prepare.median(), 1e3 * m_rebuild.median());

    json.field("dataset", name)
        .field("mpts", static_cast<std::int64_t>(mpts))
        .field("n", points.size())
        .field("shared_seconds", shared)
        .field("prepare_rebuild_seconds", m_rebuild.median())
        .field("prepare_rebuild_tree_seconds", rebuild.tree_seconds)
        .field("prepare_rebuild_core_seconds", rebuild.core_seconds)
        .field("prepare_replay_seconds", m_replay_prepare.median())
        .field("prepare_replay_tree_seconds", replay.tree_seconds)
        .field("prepare_replay_core_seconds", replay.core_seconds)
        .timing("union_find", m_uf)
        .timing("pandora", m_pandora)
        .timing("pandora_replay", m_replay);
    json.end_row();
  }
  std::printf("dendrogram growth mpts 2 -> 16: baseline %.2fx, pandora %.2fx\n",
              last_uf / first_uf, last_pandora / first_pandora);
  std::printf("sweep preparation, all mpts: rebuild %.0fms vs cache replay %.0fms (%.2fx)\n",
              1e3 * rebuild_total, 1e3 * replay_total,
              replay_total > 0 ? rebuild_total / replay_total : 0.0);
}

}  // namespace

int main() {
  bench::print_header("HDBSCAN* (EMST + dendrogram) vs minPts",
                      "Figure 15 (Hacc37M and Uniform100M3D, mpts sweep)");
  exec::Executor executor(exec::default_backend());
  bench::JsonReport json("fig15");
  run_dataset(executor, "HaccProxy", json);
  run_dataset(executor, "Uniform3D", json);
  std::printf(
      "\nExpected shape (paper): times grow with mpts; the baseline's dendrogram time\n"
      "grows 1.6-2.4x across the sweep vs 1.1-1.5x for Pandora, so the end-to-end\n"
      "advantage of the Pandora pipeline widens with mpts.  Sweep mode: replayed\n"
      "preparation beats the rebuild path (the kd-tree and core distances are cache\n"
      "hits; only the mpts-dependent EMST is rebuilt).\n");
  return 0;
}
