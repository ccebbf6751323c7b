// hdbscan_cold: points in, clusters out.  One client thread runs closed-loop
// `hdbscan::hdbscan` calls on a default executor (nproc threads, artifact
// caching on) over a pool of distinct HaccProxy point sets larger than the
// ArtifactCache, so every query pays the fresh-input path.

#include <memory>

#include "layers.hpp"
#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

namespace px = pandora::exec;

constexpr index_t kPoints = 20000;
// > ArtifactCache::kDefaultSlots (16); large enough that the median over the
// pool barely depends on which sets a seed draws.
constexpr int kPool = 64;
constexpr std::size_t kThroughputWindow = 16;  // ops, ~1.5 s

struct State {
  std::vector<pandora::spatial::PointSet> pool;
  px::Executor exec{px::default_backend(), hardware_threads()};
};

pandora::hdbscan::HdbscanOptions query_options() {
  pandora::hdbscan::HdbscanOptions options;
  options.min_pts = 4;
  options.min_cluster_size = 25;
  return options;
}

std::unique_ptr<State> make_state(std::uint64_t seed) {
  auto state = std::make_unique<State>();
  for (int i = 0; i < kPool; ++i)
    state->pool.push_back(
        pandora::data::make_dataset("HaccProxy", kPoints, derive_seed(seed, 1, i)));
  // Warm the arena on the last two sets; the loop cycles through the whole
  // pool before it reaches them, so their cached artifacts are long evicted.
  for (int i = kPool - 2; i < kPool; ++i)
    (void)pandora::hdbscan::hdbscan(state->exec, state->pool[static_cast<std::size_t>(i)],
                                    query_options());
  return state;
}

}  // namespace

Outcome run_hdbscan_cold(const Options& options) {
  Outcome outcome;
  std::vector<double> setup_seconds;
  const std::unique_ptr<State> state =
      repeated_setup(options.trace, setup_seconds, [&] { return make_state(options.seed); });
  const px::Executor& exec = state->exec;
  const px::Executor check_exec(px::default_backend(), hardware_threads());
  check_exec.set_artifact_caching(false);
  const pandora::hdbscan::HdbscanOptions query = query_options();

  std::unique_ptr<LayerTrace> trace = options.trace ? std::make_unique<LayerTrace>() : nullptr;
  std::vector<double> op_seconds;
  std::vector<double> traced_seconds;
  ExecCounters counters;

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; keep_running(options, start, op_seconds.size()); ++i) {
    const pandora::spatial::PointSet& points = state->pool[i % state->pool.size()];
    const bool traced = traced_turn(options, i, state->pool.size());
    ++outcome.attempted;
    try {
      const ExecCounters before = ExecCounters::read();
      pandora::hdbscan::HdbscanResult result;
      std::uint64_t op_id = 0, op_start_ns = 0;
      const Clock::time_point op_start = Clock::now();
      if (!traced) {
        result = pandora::hdbscan::hdbscan(exec, points, query);
      } else {
        const px::ScopedTrace scoped(exec, &trace->recorder());
        const Span op(trace.get(), exec, "hdbscan.op", Layer::hdbscan);
        op_id = op.id();
        op_start_ns = op.start_ns();
        result = pandora::hdbscan::hdbscan(exec, points, query);
      }
      const double seconds = seconds_since(op_start);
      counters += ExecCounters::read() - before;
      (traced ? traced_seconds : op_seconds).push_back(seconds);

      if (traced) {
        // The op hashes the points before its first phase; a standalone
        // call of the same function on the same input times that hash.
        const Clock::time_point probe_start = Clock::now();
        (void)pandora::spatial::point_set_fingerprint(exec, points);
        std::uint64_t cursor = op_start_ns;
        trace->add_derived(op_id, "exec.fingerprint", Layer::exec, seconds_since(probe_start),
                           &cursor);
        (void)trace->add_phases(op_id, cursor, result.times);
      }
      const bool ok = result.labels.size() == static_cast<std::size_t>(points.size()) &&
                      parents_match(options, result.dendrogram,
                                    pandora::dendrogram::union_find_dendrogram(
                                        check_exec, result.mst, points.size())
                                        .parent);
      if (!ok) ++outcome.failed;
    } catch (const std::exception&) {
      ++outcome.failed;
    }
  }

  if (trace == nullptr) {
    add_end_to_end(outcome, setup_seconds, op_seconds,
                   std::vector<double>(op_seconds.size(), static_cast<double>(kPoints)),
                   kThroughputWindow);
    return outcome;
  }
  const auto ops = static_cast<double>(traced_seconds.size());
  add_span_metrics(outcome, *trace,
                   {"spatial.kdtree", "hdbscan.core_distances", "spatial.mst", "dendrogram.sort",
                    "dendrogram.contraction", "dendrogram.expansion", "hdbscan.condense",
                    "hdbscan.extract", "exec.fingerprint"},
                   ops);
  const std::map<std::string, double> totals = trace->total_ms_by_name();
  outcome.add("spatial.mst_share",
              totals.contains("hdbscan.op") && totals.contains("spatial.mst")
                  ? totals.at("spatial.mst") / totals.at("hdbscan.op")
                  : 0,
              "fraction");
  add_exec_metrics(outcome, counters, static_cast<double>(outcome.attempted));
  outcome.add("trace.overhead_frac", overhead_fraction(traced_seconds, op_seconds), "fraction");
  add_self_time_metrics(outcome, *trace, ops);
  outcome.detail["traced_samples"] = ops;
  outcome.detail["samples"] = static_cast<double>(op_seconds.size());
  write_trace(*trace, options.trace_out, outcome);
  return outcome;
}

}  // namespace perfbench
