// serve_churn: writes beside reads on one published clustering.  A
// `snapshot::PublishedClustering` holds 20k 2-D Gaussian-blob points; the
// writer (main thread, serial executor) runs an open loop at 2 updates/s
// that alternately inserts 100 points and erases them, each write timed from
// its due time; 2 reader threads, each with its own serial executor, run
// closed-loop `acquire()` + `Snapshot::hdbscan`.

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "layers.hpp"
#include "pandora/common/rng.hpp"
#include "pandora/snapshot/published_clustering.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

namespace px = pandora::exec;
namespace psnap = pandora::snapshot;

constexpr index_t kPoints = 20000;
constexpr index_t kBatchPoints = 100;
constexpr int kBatches = 16;  // insert batches, reused cyclically (each is erased again)
// 2 updates/s.  Each reader pays a cold first read (~190 ms on a 4-core
// Xeon) on every new epoch; at 4 updates/s that is 75-95% of a reader's time
// and the warm-read count swings 4x from run to run.
constexpr double kWriteInterval = 0.5;
constexpr int kReaders = 2;
constexpr int kChecksPerReader = 8;
constexpr int kCheckEvery = 8;  // reads
constexpr std::size_t kThroughputWindow = 128;  // warm reads, ~0.5 s per reader

pandora::hdbscan::HdbscanOptions query_options() {
  pandora::hdbscan::HdbscanOptions options;
  options.min_pts = 4;
  options.min_cluster_size = 16;
  return options;
}

/// `n` 2-D points: 4 Gaussian blobs (sd 0.03) and 10% uniform noise in the
/// unit square.  Unlike `data::gaussian_blobs`, whose centres are uniform and
/// may overlap, the centres sit near the quadrant centres (jittered by up to
/// 0.05), so every seed yields the same cluster structure and about the same
/// read cost.
pandora::spatial::PointSet blob_points(index_t n, std::uint64_t seed) {
  pandora::Rng rng(seed);
  double centres[4][2];
  for (int b = 0; b < 4; ++b)
    for (int d = 0; d < 2; ++d)
      centres[b][d] = 0.25 + 0.5 * ((b >> d) & 1) + rng.uniform(-0.05, 0.05);
  pandora::spatial::PointSet points(2, n);
  for (index_t i = 0; i < n; ++i) {
    const bool noise = rng.next_double() < 0.1;
    const std::uint64_t b = rng.next_below(4);
    for (int d = 0; d < 2; ++d)
      points.at(i, d) = noise ? rng.next_double() : rng.normal(centres[b][d], 0.03);
  }
  return points;
}

pandora::spatial::PointSet slice(const pandora::spatial::PointSet& points, index_t first,
                                 index_t count) {
  pandora::spatial::PointSet out(points.dim(), count);
  const auto dim = static_cast<std::size_t>(points.dim());
  std::copy_n(points.coords().begin() + static_cast<std::ptrdiff_t>(first * dim),
              static_cast<std::size_t>(count) * dim, out.coords().begin());
  return out;
}

struct State {
  std::vector<pandora::spatial::PointSet> batches;
  px::Executor writer_exec{px::serial_backend()};
  psnap::PublishedClustering published{writer_exec};
  std::vector<std::unique_ptr<px::Executor>> readers;
};

std::unique_ptr<State> make_state(std::uint64_t seed) {
  auto state = std::make_unique<State>();
  const pandora::spatial::PointSet all =
      blob_points(kPoints + kBatches * kBatchPoints, derive_seed(seed, 5, 0));
  for (int b = 0; b < kBatches; ++b)
    state->batches.push_back(slice(all, kPoints + b * kBatchPoints, kBatchPoints));
  state->published.insert(slice(all, 0, kPoints));  // the initial publish
  for (int r = 0; r < kReaders; ++r) {
    state->readers.push_back(std::make_unique<px::Executor>(px::serial_backend()));
    // Warm each reader: the first read of the epoch, then a warm read.
    for (int k = 0; k < 2; ++k)
      (void)state->published.acquire()->hdbscan(*state->readers.back(), query_options());
  }
  return state;
}

/// A read kept for the after-window check against a cold rebuild.
struct Sample {
  pandora::spatial::PointSet points;
  std::vector<index_t> labels;
  std::vector<index_t> parent;
};

struct ReaderLog {
  std::vector<double> warm, first, traced_warm;
  std::vector<double> warm_points;  ///< points of each warm read
  std::uint64_t reads = 0;
  std::uint64_t traced_reads = 0;
  std::uint64_t failed = 0;
  std::vector<Sample> samples;
};

void reader_loop(const psnap::PublishedClustering& published, const px::Executor& exec,
                 LayerTrace* trace, const std::atomic<bool>& stop, ReaderLog& log) {
  const pandora::hdbscan::HdbscanOptions query = query_options();
  std::uint64_t last_epoch = published.published_epoch();
  for (std::uint64_t n = 0; !stop.load(std::memory_order_acquire); ++n) {
    const bool traced = trace != nullptr && n % 2 == 1;
    try {
      psnap::SnapshotPtr snap;
      pandora::hdbscan::HdbscanResult result;
      const Clock::time_point start = Clock::now();
      if (!traced) {
        snap = published.acquire();
        result = snap->hdbscan(exec, query);
      } else {
        ++log.traced_reads;
        const px::ScopedTrace scoped(exec, &trace->recorder());
        const Span read(trace, exec, "snapshot.read", Layer::snapshot);
        {
          const Span span(trace, exec, "snapshot.acquire", Layer::snapshot);
          snap = published.acquire();
        }
        {
          // The first reader of an epoch builds the kd-tree here.
          const Span span(trace, exec, "spatial.kdtree", Layer::spatial);
          (void)snap->tree(exec);
        }
        const Span span(trace, exec, "snapshot.hdbscan", Layer::snapshot);
        result = snap->hdbscan(exec, query);
        trace->add_phases(span.id(), span.start_ns(), result.times);
      }
      const double seconds = seconds_since(start);
      const bool first = snap->epoch() != last_epoch;
      last_epoch = snap->epoch();
      ++log.reads;
      (first ? log.first : traced ? log.traced_warm : log.warm).push_back(seconds);
      if (!first && !traced) log.warm_points.push_back(static_cast<double>(snap->size()));
      if (n % kCheckEvery == 0 && log.samples.size() < kChecksPerReader)
        log.samples.push_back({snap->points(), result.labels, result.dendrogram.parent});
    } catch (const std::exception&) {
      ++log.reads;
      ++log.failed;
    }
  }
}

}  // namespace

Outcome run_serve_churn(const Options& options) {
  Outcome outcome;
  std::vector<double> setup_seconds;
  const std::unique_ptr<State> state =
      repeated_setup(options.trace, setup_seconds, [&] { return make_state(options.seed); });
  psnap::PublishedClustering& published = state->published;

  std::unique_ptr<LayerTrace> trace = options.trace ? std::make_unique<LayerTrace>() : nullptr;
  std::optional<px::ScopedTrace> writer_trace;
  if (trace != nullptr) writer_trace.emplace(state->writer_exec, &trace->recorder());
  pandora::obs::Registry& registry = pandora::obs::registry();
  const pandora::obs::Histogram& dyn_insert = registry.histogram("pandora_dyn_insert_seconds");
  const pandora::obs::Histogram& dyn_erase = registry.histogram("pandora_dyn_erase_seconds");
  const pandora::obs::Histogram& publish = registry.histogram("pandora_snapshot_publish_seconds");
  const double dyn_before = dyn_insert.sum_seconds() + dyn_erase.sum_seconds();
  const double publish_before = publish.sum_seconds();
  const std::uint64_t publishes_before = publish.count();
  const ExecCounters counters_before = ExecCounters::read();

  std::vector<ReaderLog> logs(kReaders);
  std::atomic<bool> stop{false};
  std::vector<double> write_seconds, late_seconds;
  std::uint64_t write_failures = 0;
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::jthread> readers;
    for (int r = 0; r < kReaders; ++r)
      readers.emplace_back([&, r] {
        reader_loop(published, *state->readers[static_cast<std::size_t>(r)], trace.get(), stop,
                    logs[static_cast<std::size_t>(r)]);
      });

    std::vector<index_t> inserted;
    for (int k = 0; k * kWriteInterval < options.seconds; ++k) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(k * kWriteInterval));
      std::this_thread::sleep_until(due);
      late_seconds.push_back(seconds_since(due));
      const double dyn_start = dyn_insert.sum_seconds() + dyn_erase.sum_seconds();
      try {
        const bool insert = k % 2 == 0;
        const Span span(trace.get(), state->writer_exec,
                        insert ? "snapshot.insert" : "snapshot.erase", Layer::snapshot);
        if (insert) {
          inserted = published.insert(state->batches[static_cast<std::size_t>(k / 2 % kBatches)]);
        } else {
          published.erase(inserted);
        }
        if (trace != nullptr) {
          std::uint64_t cursor = span.start_ns();
          trace->add_derived(span.id(), "dyn.repair", Layer::dyn,
                             dyn_insert.sum_seconds() + dyn_erase.sum_seconds() - dyn_start,
                             &cursor);
        }
      } catch (const std::exception&) {
        ++write_failures;
      }
      write_seconds.push_back(seconds_since(due));
    }
    stop.store(true, std::memory_order_release);
  }  // readers join here
  const double window = seconds_since(start);
  // Counter deltas of the window only, before the checks below run cold
  // queries of their own.  They hold the writer's share too.
  const ExecCounters window_counters = ExecCounters::read() - counters_before;
  writer_trace.reset();

  // Sampled reads must be bit-identical to a cold HDBSCAN* on the same
  // points with a fresh executor.
  std::uint64_t check_failures = 0, checks = 0;
  for (const ReaderLog& log : logs)
    for (const Sample& sample : log.samples) {
      const px::Executor fresh(px::default_backend(), hardware_threads());
      const pandora::hdbscan::HdbscanResult cold =
          pandora::hdbscan::hdbscan(fresh, sample.points, query_options());
      ++checks;
      if (cold.labels != sample.labels || !parents_match(options, cold.dendrogram, sample.parent))
        ++check_failures;
    }

  std::vector<double> warm, first, traced_warm, warm_points;
  std::uint64_t reads = 0, traced_reads = 0;
  for (const ReaderLog& log : logs) {
    warm.insert(warm.end(), log.warm.begin(), log.warm.end());
    first.insert(first.end(), log.first.begin(), log.first.end());
    traced_warm.insert(traced_warm.end(), log.traced_warm.begin(), log.traced_warm.end());
    warm_points.insert(warm_points.end(), log.warm_points.begin(), log.warm_points.end());
    reads += log.reads;
    traced_reads += log.traced_reads;
    outcome.failed += log.failed;
  }
  outcome.attempted = reads + write_seconds.size();
  outcome.failed += write_failures + check_failures;
  outcome.detail["warm_reads"] = static_cast<double>(warm.size());
  outcome.detail["first_reads"] = static_cast<double>(first.size());
  outcome.detail["writes"] = static_cast<double>(write_seconds.size());
  outcome.detail["checked_reads"] = static_cast<double>(checks);
  outcome.detail["writer_late_max_ms"] =
      1e3 * (late_seconds.empty() ? 0.0 : percentile(late_seconds, 1.0));

  if (trace == nullptr) {
    // Throughput counts warm reads per second of warm-read time.  Reads per
    // second of window mostly count how many warm reads fit between the
    // first reads of successive epochs, which amplifies any change in
    // first-read time about threefold; that figure is snapshot.reads_per_s.
    add_end_to_end(outcome, setup_seconds, warm, warm_points, kThroughputWindow);
    return outcome;
  }
  const std::map<std::string, double> totals = trace->total_ms_by_name();
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second;
  };
  // Every other read is traced, first reads included; per-read layer times
  // divide by the traced reads.  The writer's spans count in the self times.
  const auto traced_count = static_cast<double>(traced_reads);
  add_span_metrics(outcome, *trace,
                   {"spatial.kdtree", "hdbscan.core_distances", "spatial.mst", "dendrogram.sort",
                    "dendrogram.contraction", "dendrogram.expansion", "hdbscan.condense",
                    "hdbscan.extract"},
                   traced_count);
  outcome.add("spatial.mst_share",
              total("snapshot.read") > 0 ? total("spatial.mst") / total("snapshot.read") : 0,
              "fraction");
  add_exec_metrics(outcome, window_counters, static_cast<double>(reads));
  const double writes = static_cast<double>(write_seconds.size());
  const double inserts = std::ceil(writes / 2.0), erases = std::floor(writes / 2.0);
  outcome.add("snapshot.insert_ms", inserts > 0 ? total("snapshot.insert") / inserts : 0, "ms");
  outcome.add("snapshot.erase_ms", erases > 0 ? total("snapshot.erase") / erases : 0, "ms");
  outcome.add("dyn.repair_ms",
              writes > 0 ? 1e3 * (dyn_insert.sum_seconds() + dyn_erase.sum_seconds() - dyn_before) /
                               writes
                         : 0,
              "ms");
  const std::uint64_t publishes = publish.count() - publishes_before;
  outcome.add("snapshot.publish_ms",
              publishes > 0 ? 1e3 * (publish.sum_seconds() - publish_before) /
                                  static_cast<double>(publishes)
                            : 0,
              "ms");
  outcome.add("snapshot.first_read_share",
              reads > 0 ? static_cast<double>(first.size()) / static_cast<double>(reads) : 0,
              "fraction");
  outcome.add("snapshot.writer_late_ms", 1e3 * mean(late_seconds), "ms");
  outcome.add("snapshot.reads_per_s", static_cast<double>(reads) / window, "1/s");
  outcome.add("snapshot.first_read_p50_ms", 1e3 * percentile(first, 0.5), "ms");
  outcome.add("snapshot.write_p50_ms", 1e3 * percentile(write_seconds, 0.5), "ms");
  outcome.add("trace.overhead_frac", overhead_fraction(traced_warm, warm), "fraction");
  add_self_time_metrics(outcome, *trace, traced_count);
  outcome.detail["traced_samples"] = traced_count;
  write_trace(*trace, options.trace_out, outcome);
  return outcome;
}

}  // namespace perfbench
