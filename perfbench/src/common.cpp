#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "pandora/exec/backend.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/exec/fingerprint.hpp"
#include "pandora/obs/metrics.hpp"
#include "perfbench.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  return pandora::exec::combine_fingerprint(pandora::exec::combine_fingerprint(seed, stream),
                                            index);
}

int hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

bool parents_match(const Options& options, const pandora::dendrogram::Dendrogram& dendrogram,
                   const std::vector<index_t>& reference) {
  static std::atomic<bool> corruption_armed{true};
  if (options.corrupt && !dendrogram.parent.empty() && corruption_armed.exchange(false)) {
    std::vector<index_t> corrupted = dendrogram.parent;
    corrupted.back() = corrupted.back() == 0 ? 1 : 0;
    return corrupted == reference;
  }
  return dendrogram.parent == reference;
}

std::vector<std::vector<index_t>> union_find_references(
    const std::vector<const pandora::graph::EdgeList*>& trees,
    const std::vector<index_t>& num_vertices) {
  std::vector<std::vector<index_t>> references(trees.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    const pandora::exec::Executor exec(pandora::exec::serial_backend());
    exec.set_artifact_caching(false);
    for (std::size_t i = next++; i < trees.size(); i = next++)
      references[i] =
          pandora::dendrogram::union_find_dendrogram(exec, *trees[i], num_vertices[i]).parent;
  };
  std::vector<std::thread> threads;
  const int count = std::min<int>(hardware_threads(), static_cast<int>(trees.size()));
  for (int t = 0; t < count; ++t) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();
  return references;
}

double windowed_throughput(const std::vector<double>& op_seconds,
                           const std::vector<double>& op_points, std::size_t window) {
  window = std::max<std::size_t>(window, 1);
  std::vector<double> rates;
  double seconds = 0.0, points = 0.0;
  for (std::size_t i = 0; i < op_seconds.size(); ++i) {
    seconds += op_seconds[i];
    points += op_points[i];
    const bool full = (i + 1) % window == 0;
    const bool sole = i + 1 == op_seconds.size() && rates.empty();
    if ((full || sole) && seconds > 0) rates.push_back(points / seconds);
    if (full) seconds = points = 0.0;
  }
  return percentile(rates, 0.5);
}

void add_end_to_end(Outcome& outcome, const std::vector<double>& setup_seconds,
                    const std::vector<double>& op_seconds, const std::vector<double>& op_points,
                    std::size_t window) {
  double timed_seconds = 0.0, points = 0.0;
  for (std::size_t i = 0; i < op_seconds.size(); ++i) {
    timed_seconds += op_seconds[i];
    points += op_points[i];
  }
  outcome.add("setup_s", percentile(setup_seconds, 0.5), "s");
  outcome.add("latency_p50_ms", 1e3 * percentile(op_seconds, 0.5), "ms");
  outcome.add("throughput_mpts_s", 1e-6 * windowed_throughput(op_seconds, op_points, window),
              "Mpoints/s");
  outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
  // Reported, not gated: a stalled vCPU on a shared host stalls a whole
  // parallel op, so the tail and the whole-run mean swing far more from run
  // to run than the median and the windowed median do.
  outcome.detail["latency_p90_ms"] = 1e3 * percentile(op_seconds, 0.9);
  outcome.detail["mean_throughput_mpts_s"] =
      timed_seconds > 0 ? 1e-6 * points / timed_seconds : 0;
  outcome.detail["throughput_window_ops"] = static_cast<double>(window);
  outcome.detail["samples"] = static_cast<double>(op_seconds.size());
  outcome.detail["setup_repeats"] = static_cast<double>(setup_seconds.size());
}

double overhead_fraction(const std::vector<double>& traced, const std::vector<double>& untraced) {
  const double base = percentile(untraced, 0.5);
  return base > 0 ? (percentile(traced, 0.5) - base) / base : 0.0;
}

ExecCounters ExecCounters::read() {
  const pandora::obs::Registry& registry = pandora::obs::registry();
  return {registry.counter_value("pandora_exec_run_chunks_total"),
          registry.counter_value("pandora_workspace_arena_misses_total"),
          registry.counter_value("pandora_cache_hits_total"),
          registry.counter_value("pandora_cache_misses_total")};
}

ExecCounters& ExecCounters::operator+=(const ExecCounters& other) {
  run_chunks += other.run_chunks;
  arena_misses += other.arena_misses;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  return *this;
}

ExecCounters ExecCounters::operator-(const ExecCounters& before) const {
  return {run_chunks - before.run_chunks, arena_misses - before.arena_misses,
          cache_hits - before.cache_hits, cache_misses - before.cache_misses};
}

void add_exec_metrics(Outcome& outcome, const ExecCounters& delta, double ops) {
  outcome.add("exec.run_chunks_per_op", ops > 0 ? static_cast<double>(delta.run_chunks) / ops : 0,
              "count");
  outcome.add("exec.arena_misses_per_op",
              ops > 0 ? static_cast<double>(delta.arena_misses) / ops : 0, "count");
  const std::uint64_t lookups = delta.cache_hits + delta.cache_misses;
  outcome.add("exec.cache_hit_ratio",
              lookups > 0 ? static_cast<double>(delta.cache_hits) / static_cast<double>(lookups)
                          : 0.0,
              "fraction");
}

}  // namespace perfbench
