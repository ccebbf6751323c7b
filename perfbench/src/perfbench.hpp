#pragma once

// Shared plumbing of the repository benchmark: command-line options, the
// per-run outcome (metrics + counts), statistics helpers, and the output
// checks every workload applies to its results.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/dendrogram/dendrogram.hpp"
#include "pandora/graph/edge.hpp"

namespace perfbench {

using pandora::index_t;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path of a traced run ("" = none)
  /// Self-test hook: corrupt one dendrogram parent of the first checked op,
  /// which the output check must catch.
  bool corrupt = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Sample counts and other context, printed beside the result line.
  std::map<std::string, double> detail;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// --- statistics --------------------------------------------------------------

/// q-quantile (q in [0, 1]) by linear interpolation between closest ranks
/// (the "inclusive" method); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

[[nodiscard]] double mean(const std::vector<double>& samples);

/// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Deterministic per-item seed derived from the workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                                        std::uint64_t index);

// --- output checks -----------------------------------------------------------

/// True when `dendrogram.parent` equals `reference` bit for bit.  With the
/// self-test corruption armed (once per process), one parent is flipped
/// before the comparison, so the check must fail.
[[nodiscard]] bool parents_match(const Options& options,
                                 const pandora::dendrogram::Dendrogram& dendrogram,
                                 const std::vector<index_t>& reference);

/// Union-find reference parents of every tree in `trees`, computed on
/// `nproc` serial executors with artifact caching off, so neither the
/// timed executor's cache nor its arena is touched.
[[nodiscard]] std::vector<std::vector<index_t>> union_find_references(
    const std::vector<const pandora::graph::EdgeList*>& trees,
    const std::vector<index_t>& num_vertices);

/// The core count (`nproc`): the thread budget of every timed executor and
/// the ceiling on client threads.
[[nodiscard]] int hardware_threads();

/// Set-up builds per untraced run: at least kSetupRepeats, then more until
/// they have taken kSetupSeconds in all, up to kMaxSetupRepeats, so that a
/// set-up of 0.1 s is still the median of many builds.  A traced run builds
/// once.
inline constexpr int kSetupRepeats = 5;
inline constexpr int kMaxSetupRepeats = 25;
inline constexpr double kSetupSeconds = 2.0;

/// Builds a workload's state with `make()` (which returns a
/// `std::unique_ptr`) as often as the rule above says, appending each
/// build's seconds to `seconds`, and keeps the last build.
template <class Make>
[[nodiscard]] auto repeated_setup(bool traced, std::vector<double>& seconds, Make&& make) {
  decltype(make()) state;
  double total = 0.0;
  for (int r = 0; r < (traced ? 1 : kMaxSetupRepeats); ++r) {
    if (r >= kSetupRepeats && total >= kSetupSeconds) break;
    state.reset();  // release the previous build first: peak memory stays one build
    const Clock::time_point start = Clock::now();
    state = make();
    seconds.push_back(seconds_since(start));
    total += seconds.back();
  }
  return state;
}

/// Whether op `op` of a closed loop over a pool of `pool` inputs is traced.
/// In a traced run whole passes over the pool alternate between untraced
/// and traced ops: both samples see the same inputs, and no traced op meets
/// an input whose artifacts the op just before it cached.
[[nodiscard]] inline bool traced_turn(const Options& options, std::size_t op, std::size_t pool) {
  return options.trace && (op / pool) % 2 == 1;
}

/// A closed-loop run measures for `options.seconds`; an untraced run also
/// keeps going until it holds `kMinOps` ops, so that ten samples lie beyond
/// its p90.
inline constexpr std::size_t kMinOps = 100;

[[nodiscard]] inline bool keep_running(const Options& options, Clock::time_point start,
                                       std::size_t ops) {
  return seconds_since(start) < options.seconds || (!options.trace && ops < kMinOps);
}

// --- end-to-end metric assembly ---------------------------------------------

/// Median, over windows of `window` consecutive ops, of the points a window
/// completed per second of its op time.  A trailing partial window counts
/// only when it is the sole window; 0 without ops.
[[nodiscard]] double windowed_throughput(const std::vector<double>& op_seconds,
                                         const std::vector<double>& op_points,
                                         std::size_t window);

/// The end-to-end metrics every workload prints in an untraced run:
/// `setup_s` (median of the repeated set-ups), the p50 of `op_seconds`,
/// `windowed_throughput` in Mpoints/s (op i completed `op_points[i]`
/// points), and peak RSS.  The p90 and the whole-run mean throughput go to
/// the context line.
void add_end_to_end(Outcome& outcome, const std::vector<double>& setup_seconds,
                    const std::vector<double>& op_seconds, const std::vector<double>& op_points,
                    std::size_t window);

/// (traced - untraced) / untraced of the two samples' medians.
[[nodiscard]] double overhead_fraction(const std::vector<double>& traced,
                                       const std::vector<double>& untraced);

/// Registry counter deltas of the exec layer over a measured region.
struct ExecCounters {
  std::uint64_t run_chunks = 0;
  std::uint64_t arena_misses = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  [[nodiscard]] static ExecCounters read();
  ExecCounters& operator+=(const ExecCounters& other);
  [[nodiscard]] ExecCounters operator-(const ExecCounters& before) const;
};

/// exec.run_chunks_per_op, exec.arena_misses_per_op, exec.cache_hit_ratio.
void add_exec_metrics(Outcome& outcome, const ExecCounters& delta, double ops);

// --- workloads ---------------------------------------------------------------

[[nodiscard]] Outcome run_hdbscan_cold(const Options& options);
[[nodiscard]] Outcome run_dendrogram_skew(const Options& options);
[[nodiscard]] Outcome run_batch_small(const Options& options);
[[nodiscard]] Outcome run_serve_churn(const Options& options);

}  // namespace perfbench
