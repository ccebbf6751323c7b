// The obs:: telemetry contracts: exact log2 histogram buckets, quantiles
// quoted as bucket upper bounds, lossless concurrent recording (the gcc-tsan
// CI lane runs this suite as the telemetry race stress), per-thread trace
// rings with counted drops — and the load-bearing one, verified with a
// replaced global operator new: recording metrics and emitting spans on a
// warm serving path allocates NOTHING, so instrumentation never invalidates
// the zero-heap steady-state gates.

#include "alloc_counter.hpp"  // must precede everything that allocates

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/expansion.hpp"
#include "pandora/dendrogram/mixed.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "pandora/exec/sort.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/obs/trace.hpp"
#include "pandora/pipeline.hpp"
#include "pandora/spatial/emst.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using pandora::testing::AllocationCounterScope;
using pandora::testing::Topology;
using pandora::testing::make_tree;

// --- histogram bucketing ----------------------------------------------------

TEST(Histogram, BucketBoundariesAreExactPowersOfTwo) {
  // bucket 0 <- the value 0; bucket b (b >= 1) <- bit_width b, [2^(b-1), 2^b).
  static_assert(obs::Histogram::bucket_index(0) == 0);
  static_assert(obs::Histogram::bucket_index(1) == 1);
  static_assert(obs::Histogram::bucket_index(2) == 2);
  static_assert(obs::Histogram::bucket_index(3) == 2);
  static_assert(obs::Histogram::bucket_index(4) == 3);
  static_assert(obs::Histogram::bucket_index(7) == 3);
  static_assert(obs::Histogram::bucket_index(8) == 4);

  for (int b = 1; b < obs::Histogram::kNumBuckets - 1; ++b) {
    const std::uint64_t lo = std::uint64_t{1} << (b - 1);
    const std::uint64_t hi = (std::uint64_t{1} << b) - 1;
    EXPECT_EQ(obs::Histogram::bucket_index(lo), b) << "lower edge of bucket " << b;
    EXPECT_EQ(obs::Histogram::bucket_index(hi), b) << "upper edge of bucket " << b;
    EXPECT_EQ(obs::Histogram::bucket_upper_ns(b), hi);
  }
  // The last bucket absorbs everything beyond 2^62 and quotes 2^63.
  EXPECT_EQ(obs::Histogram::bucket_index(~std::uint64_t{0}), obs::Histogram::kNumBuckets - 1);
  EXPECT_EQ(obs::Histogram::bucket_upper_ns(obs::Histogram::kNumBuckets - 1),
            std::uint64_t{1} << 63);
}

TEST(Histogram, BucketCountsAreExact) {
  obs::Histogram h;
  h.observe_ns(0);                          // bucket 0
  h.observe_ns(1);                          // bucket 1
  for (int i = 0; i < 5; ++i) h.observe_ns(100);  // bit_width(100) = 7
  h.observe_ns(127);                        // still bucket 7
  h.observe_ns(128);                        // bucket 8

  EXPECT_EQ(h.count(), 9u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(7), 6u);
  EXPECT_EQ(h.bucket_count(8), 1u);
  EXPECT_DOUBLE_EQ(h.sum_seconds(), 1e-9 * (0 + 1 + 5 * 100 + 127 + 128));

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(7), 0u);
}

TEST(Histogram, QuantilesQuoteContainingBucketUpperBound) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty

  // 99 fast samples (bucket 7, upper bound 127ns) and one 1ms straggler
  // (bit_width(1'000'000) = 20, upper bound 2^20 - 1 ns).
  for (int i = 0; i < 99; ++i) h.observe_ns(100);
  h.observe_ns(1'000'000);

  EXPECT_DOUBLE_EQ(h.quantile(0.5), 127e-9);
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 127e-9);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 127e-9);  // rank 99 is still a fast one
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1e-9 * ((std::uint64_t{1} << 20) - 1));
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 127e-9);  // rank clamps to the 1st sample
}

TEST(Histogram, ObserveSecondsRoundsToNanoseconds) {
  obs::Histogram h;
  h.observe(-1.0);   // negative durations clamp to the zero bucket
  h.observe(1e-9);   // 1ns -> bucket 1
  h.observe(3e-9);   // 3ns -> bucket 2
  h.observe(1.0);    // 1e9 ns -> bit_width 30
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(30), 1u);
}

// --- concurrent recording (the gcc-tsan lane's telemetry stress) ------------

TEST(Metrics, ConcurrentRecordingLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  obs::Registry reg;
  obs::Counter& counter = reg.counter("stress_total");
  obs::Gauge& gauge = reg.gauge("stress_level");
  obs::Histogram& hist = reg.histogram("stress_seconds");

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter.inc();
        gauge.add(t % 2 == 0 ? 1 : -1);
        hist.observe_ns(static_cast<std::uint64_t>(i % 1000));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  std::uint64_t bucket_sum = 0;
  for (int b = 0; b < obs::Histogram::kNumBuckets; ++b) bucket_sum += hist.bucket_count(b);
  EXPECT_EQ(bucket_sum, hist.count());
}

// --- registry lookups and exposition ----------------------------------------

TEST(Registry, HandlesAreStableAndLookupsReadBack) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("a_total");
  c.inc(3);
  // A later registration must not move the earlier node (std::map storage).
  for (int i = 0; i < 100; ++i) reg.counter("filler_" + std::to_string(i) + "_total");
  EXPECT_EQ(&reg.counter("a_total"), &c);
  EXPECT_EQ(reg.counter_value("a_total"), 3u);
  EXPECT_EQ(reg.counter_value("never_registered_total"), 0u);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);

  reg.gauge("g").set(-7);
  EXPECT_EQ(reg.gauge_value("g"), -7);

  reg.histogram("h_seconds").observe_ns(5);
  ASSERT_NE(reg.find_histogram("h_seconds"), nullptr);
  EXPECT_EQ(reg.find_histogram("h_seconds")->count(), 1u);

  reg.reset();  // counters and histograms zero; gauges keep tracking state
  EXPECT_EQ(reg.counter_value("a_total"), 0u);
  EXPECT_EQ(reg.find_histogram("h_seconds")->count(), 0u);
  EXPECT_EQ(reg.gauge_value("g"), -7);
}

TEST(Registry, PrometheusExpositionCarriesTypesLabelsAndBuckets) {
  obs::Registry reg;
  reg.counter("demo_jobs_total{outcome=\"ok\"}").inc(2);
  reg.counter("demo_jobs_total{outcome=\"shed\"}").inc();
  reg.gauge("demo_level").set(4);
  obs::Histogram& h = reg.histogram("demo_seconds");
  h.observe_ns(100);  // bucket 7, le 127e-9
  h.observe_ns(100);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE demo_jobs_total counter"), std::string::npos) << text;
  // One TYPE line per base name even with two labelled series.
  EXPECT_EQ(text.find("# TYPE demo_jobs_total counter"),
            text.rfind("# TYPE demo_jobs_total counter"));
  EXPECT_NE(text.find("demo_jobs_total{outcome=\"ok\"} 2"), std::string::npos);
  EXPECT_NE(text.find("demo_jobs_total{outcome=\"shed\"} 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_level gauge"), std::string::npos);
  EXPECT_NE(text.find("demo_level 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("demo_seconds_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("demo_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("demo_seconds_sum"), std::string::npos);
}

TEST(Registry, JsonSnapshotHasTheGatedShape) {
  obs::Registry reg;
  reg.counter("c_total").inc(5);
  reg.gauge("g").set(-1);
  obs::Histogram& h = reg.histogram("h_seconds");
  h.observe_ns(100);

  const std::string json = reg.json();
  EXPECT_NE(json.find("\"counters\": {\"c_total\": 5}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\": {\"g\": -1}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\": 1.27e-07"), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\": {\"7\": 1}"), std::string::npos) << json;
}

// --- trace recorder ----------------------------------------------------------

TEST(TraceRecorder, ThreadsGetTheirOwnRingsAndNothingIsLostBelowCapacity) {
  obs::TraceRecorder recorder({.events_per_thread = 64, .max_threads = 8});
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        const std::uint64_t start = recorder.now_ns();
        recorder.record("work", start, recorder.now_ns());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(recorder.events_recorded(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(recorder.events_dropped(), 0u);

  const std::string json = recorder.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"work\""), std::string::npos) << json;

  recorder.clear();
  EXPECT_EQ(recorder.events_recorded(), 0u);
}

TEST(TraceRecorder, FullRingWrapsAndCountsDrops) {
  obs::TraceRecorder recorder({.events_per_thread = 8, .max_threads = 2});
  for (int i = 0; i < 20; ++i) recorder.record("span", 0, 1);
  EXPECT_EQ(recorder.events_recorded(), 8u);   // ring capacity retained
  EXPECT_EQ(recorder.events_dropped(), 12u);   // the wrapped-over oldest
}

TEST(TraceRecorder, ThreadsBeyondMaxThreadsDropOutright) {
  obs::TraceRecorder recorder({.events_per_thread = 8, .max_threads = 1});
  recorder.record("owner", 0, 1);  // this thread claims the only ring
  std::thread other([&] {
    for (int i = 0; i < 3; ++i) recorder.record("homeless", 0, 1);
  });
  other.join();
  EXPECT_EQ(recorder.events_recorded(), 1u);
  EXPECT_EQ(recorder.events_dropped(), 3u);
}

TEST(TraceRecorder, LongNamesAreTruncatedNotCorrupted) {
  obs::TraceRecorder recorder({.events_per_thread = 4, .max_threads = 1});
  const std::string long_name(80, 'x');
  recorder.record(long_name, 1000, 2000);
  const std::string json = recorder.chrome_trace_json();
  EXPECT_NE(json.find(std::string(31, 'x')), std::string::npos) << json;
  EXPECT_EQ(json.find(std::string(32, 'x')), std::string::npos) << json;
}

// --- the phase seam ----------------------------------------------------------

/// The distinct span names of a Chrome trace, minus the `run_chunks` launch
/// spans: the phases `Executor::phase` recorded.
std::set<std::string> phase_span_names(const obs::TraceRecorder& recorder) {
  const std::string json = recorder.chrome_trace_json();
  const std::string marker = "\"name\": \"";
  std::set<std::string> names;
  for (std::size_t at = json.find(marker); at != std::string::npos; at = json.find(marker, at)) {
    at += marker.size();
    names.insert(json.substr(at, json.find('"', at) - at));
  }
  names.erase("run_chunks");
  return names;
}

/// Runs `f` on a fresh executor with a trace recorder and a ScopedPhaseTimes
/// installed, checks that the collected phase keys are exactly the phase
/// spans of the trace, and returns the keys.
template <class F>
std::set<std::string> traced_phase_keys(int threads, F&& f) {
  const exec::Executor executor(exec::default_backend(), threads);
  obs::TraceRecorder recorder({.events_per_thread = std::size_t{1} << 16, .max_threads = 64});
  PhaseTimes times;
  {
    const exec::ScopedTrace trace(executor, &recorder);
    const exec::ScopedPhaseTimes scope(executor, &times);
    f(executor);
  }
  EXPECT_EQ(recorder.events_dropped(), 0u);
  std::set<std::string> keys;
  for (const auto& [phase, seconds] : times.all()) keys.insert(phase);
  EXPECT_EQ(keys, phase_span_names(recorder));
  return keys;
}

TEST(Observability, PhaseTimesKeysAreThePhaseSpansOfEveryDriver) {
  // One seam feeds both observers, and every driver reports the phase keys
  // the benches map onto layers (perfbench's `add_phases` relies on them).
  using Keys = std::set<std::string>;
  const Keys pandora_keys = {"sort", "contraction", "expansion"};
  const Keys union_find_keys = {"sort", "dendrogram"};
  const Keys spatial_keys = {"tree_build", "core_distance", "mst", "condense", "extract"};
  auto with = [](Keys keys, const Keys& more) {
    keys.insert(more.begin(), more.end());
    return keys;
  };

  const index_t nv = 6000;
  const graph::EdgeList tree = make_tree(Topology::random_attach, nv, 5, 0);
  const spatial::PointSet points = data::gaussian_blobs(1500, 2, 3, 0.05, 0.1, 9);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    for (const auto& expansion : pandora::testing::both_expansions()) {
      EXPECT_EQ(traced_phase_keys(threads,
                                  [&](const exec::Executor& exec) {
                                    (void)expansion.build(exec, tree, nv);
                                  }),
                pandora_keys);
    }
    EXPECT_EQ(traced_phase_keys(threads,
                                [&](const exec::Executor& exec) {
                                  (void)dendrogram::mixed_dendrogram(exec, tree, nv, 0.1);
                                }),
              (Keys{"sort", "split", "subtrees", "stitch"}));
    EXPECT_EQ(traced_phase_keys(threads,
                                [&](const exec::Executor& exec) {
                                  (void)dendrogram::union_find_dendrogram(exec, tree, nv);
                                }),
              union_find_keys);
    EXPECT_EQ(traced_phase_keys(
                  threads, [&](const exec::Executor& exec) { (void)hdbscan::hdbscan(exec, points); }),
              with(spatial_keys, pandora_keys));
  }
}

// --- the zero-allocation contract -------------------------------------------

TEST(Observability, WarmMetricRecordingAllocatesNothing) {
  obs::Registry reg;  // registration below allocates; recording must not
  obs::Counter& counter = reg.counter("warm_total");
  obs::Gauge& gauge = reg.gauge("warm_level");
  obs::Histogram& hist = reg.histogram("warm_seconds");

  const AllocationCounterScope scope;
  for (int i = 0; i < 10000; ++i) {
    counter.inc();
    gauge.add(1);
    hist.observe_ns(static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(scope.count(), 0u) << "metric recording must be allocation-free";
}

TEST(Observability, WarmSpanRecordingAllocatesNothing) {
  obs::TraceRecorder recorder;
  recorder.record("warmup", 0, 1);  // claims this thread's ring (allocates)

  const AllocationCounterScope scope;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t start = recorder.now_ns();
    recorder.record("steady", start, recorder.now_ns());
  }
  EXPECT_EQ(scope.count(), 0u) << "span recording must be allocation-free";
}

TEST(Observability, EmstCountersRecordBoruvkaShape) {
  // A full build starts from singletons, so every point is active in every
  // round: it re-queries, reuses its still-valid candidate (a round-1 seed
  // included), or skips a query its lower bound proves cannot win.
  struct Shape {
    std::uint64_t rounds, queries, reuses, visited, seeded, skips;
  };
  obs::Registry& reg = obs::registry();
  const auto read = [&] {
    return Shape{reg.counter_value("pandora_emst_rounds_total"),
                 reg.counter_value("pandora_emst_queries_total"),
                 reg.counter_value("pandora_emst_candidate_reuses_total"),
                 reg.counter_value("pandora_emst_nodes_visited_total"),
                 reg.counter_value("pandora_emst_round1_seeded_total"),
                 reg.counter_value("pandora_emst_bound_skips_total")};
  };
  const auto shape_of = [&](auto&& build) {
    const Shape before = read();
    build();
    const Shape after = read();
    return Shape{after.rounds - before.rounds,   after.queries - before.queries,
                 after.reuses - before.reuses,   after.visited - before.visited,
                 after.seeded - before.seeded,   after.skips - before.skips};
  };
  const exec::Executor executor(exec::default_backend(), 4);

  const index_t n = 3000;
  const spatial::PointSet points = data::uniform_points(n, 2, 21);
  const spatial::KdTree tree(points);
  const Shape euclid = shape_of([&] {
    ASSERT_EQ(spatial::euclidean_mst(executor, points, tree).size(),
              static_cast<std::size_t>(n - 1));
  });
  EXPECT_GE(euclid.rounds, 1u);
  EXPECT_GE(euclid.queries, static_cast<std::uint64_t>(n)) << "round 1 queries every point";
  EXPECT_EQ(euclid.seeded, 0u);
  EXPECT_EQ(euclid.queries + euclid.reuses + euclid.skips,
            euclid.rounds * static_cast<std::uint64_t>(n));
  EXPECT_GE(euclid.visited, euclid.queries) << "every query visits at least the root";

  const index_t m = 5000;
  const spatial::PointSet hacc = data::make_dataset("HaccProxy", m, 1);
  const spatial::KdTree hacc_tree(executor, hacc);
  const hdbscan::CoreDistances core =
      hdbscan::core_distances_with_seeds(executor, hacc, hacc_tree, 4);
  const Shape mreach = shape_of([&] {
    ASSERT_EQ(spatial::mutual_reachability_mst(executor, hacc, hacc_tree, core.values,
                                               core.round1_seed)
                  .size(),
              static_cast<std::size_t>(m - 1));
  });
  EXPECT_GT(mreach.seeded, 0u) << "the core-distance pass certifies round-1 candidates";
  EXPECT_LE(mreach.seeded, mreach.reuses) << "seeded points count as reuses";
  EXPECT_EQ(mreach.queries + mreach.reuses + mreach.skips,
            mreach.rounds * static_cast<std::uint64_t>(m));
}

TEST(Observability, ContractionCountersRecordHierarchyShape) {
  // Every edge is contracted exactly once or survives to the final
  // (α-free) level, so over one hierarchy Σ m - Σ α = n - 1 exactly.
  struct Shape {
    std::uint64_t levels, edges, alpha;
  };
  obs::Registry& reg = obs::registry();
  const auto read = [&] {
    return Shape{reg.counter_value("pandora_contraction_levels_total"),
                 reg.counter_value("pandora_contraction_edges_total"),
                 reg.counter_value("pandora_contraction_alpha_edges_total")};
  };
  const exec::Executor executor(exec::default_backend(), 4);
  const auto shape_of = [&](const graph::EdgeList& tree, index_t nv) {
    const Shape before = read();
    (void)dendrogram::pandora_dendrogram(executor, tree, nv);
    const Shape after = read();
    return Shape{after.levels - before.levels, after.edges - before.edges,
                 after.alpha - before.alpha};
  };

  const index_t nv = 20000;
  const Shape random = shape_of(make_tree(Topology::random_attach, nv, 5, 0), nv);
  EXPECT_GE(random.levels, 2u);
  EXPECT_GT(random.alpha, 0u);
  EXPECT_EQ(random.edges - random.alpha, static_cast<std::uint64_t>(nv - 1));

  // The star with increasing weights is one chain: one level, no α-edge.
  graph::EdgeList star = data::star_tree(nv);
  data::assign_increasing_weights(star);
  const Shape chain = shape_of(star, nv);
  EXPECT_EQ(chain.levels, 1u);
  EXPECT_EQ(chain.alpha, 0u);
  EXPECT_EQ(chain.edges, static_cast<std::uint64_t>(nv - 1));
}

TEST(Observability, RadixPassCounterRecordsScatterPassesRun) {
  // One add per sort of the scatter passes actually run: bytes that are
  // constant across the keys cost nothing, whatever the size or executor.
  obs::Registry& reg = obs::registry();
  const auto passes_of = [&](auto&& sort) {
    const std::uint64_t before = reg.counter_value("pandora_sort_radix_passes_total");
    sort();
    return reg.counter_value("pandora_sort_radix_passes_total") - before;
  };
  Rng rng(3);
  for (const int threads : {1, 4}) {
    const exec::Executor executor(exec::default_backend(), threads);
    for (const std::size_t n : {std::size_t{300}, std::size_t{20000}}) {
      std::vector<std::uint64_t> low(n), full(n);
      for (auto& k : low) k = rng.next_u64() & 0xffffffu;  // bytes 0-2 only
      for (auto& k : full) k = rng.next_u64();
      EXPECT_EQ(passes_of([&] { exec::radix_sort_u64(executor, low, 4, 8); }), 0u)
          << threads << " threads, n=" << n;
      EXPECT_EQ(passes_of([&] { exec::radix_sort_u64(executor, full); }), 8u)
          << threads << " threads, n=" << n;
      EXPECT_TRUE(std::is_sorted(full.begin(), full.end()));
    }

    // The increasing-weight star is one root chain: from pre-sorted edges
    // the only sort is the chain sort, whose single key word never varies.
    const index_t nv = 5000;
    graph::EdgeList star = data::star_tree(nv);
    data::assign_increasing_weights(star);
    const dendrogram::SortedEdges sorted = dendrogram::sort_edges(executor, star, nv);
    EXPECT_EQ(passes_of([&] { (void)dendrogram::pandora_dendrogram(executor, sorted); }), 0u)
        << threads << " threads";
    EXPECT_EQ(passes_of([&] { (void)dendrogram::single_level_dendrogram(executor, sorted); }), 0u)
        << threads << " threads";
  }

  // Recording stays allocation-free: a warm sort adds to the counter
  // without touching the heap.
  const exec::Executor executor(exec::default_backend(), 1);
  std::vector<std::uint64_t> keys(5000);
  const auto refill = [&] {
    Rng fill(9);
    for (auto& k : keys) k = fill.next_u64();
  };
  refill();
  exec::radix_sort_u64(executor, keys);  // warm: sizes the arena
  refill();
  const std::uint64_t before = reg.counter_value("pandora_sort_radix_passes_total");
  const AllocationCounterScope scope;
  exec::radix_sort_u64(executor, keys);
  EXPECT_EQ(scope.count(), 0u) << "radix pass recording must be allocation-free";
  EXPECT_EQ(reg.counter_value("pandora_sort_radix_passes_total") - before, 8u);
}

TEST(Observability, WarmPipelineWithTracingAndMetricsAllocatesNothing) {
  // The composition gate: a steady-state dendrogram build with the metric
  // handles live AND a trace recorder installed (phase spans, run_chunks
  // spans, workspace/cache counters all firing) still never touches the
  // heap.  This is the claim that lets instrumentation stay always-on.
  const index_t nv = 20000;
  const graph::EdgeList tree = make_tree(Topology::random_attach, nv, 11, 0);
  const exec::Executor executor(exec::default_backend(), 4);
  const auto pipeline = Pipeline::on(executor);

  obs::TraceRecorder recorder;
  const exec::ScopedTrace trace(executor, &recorder);

  dendrogram::Dendrogram out;
  pipeline.build_dendrogram_into(tree, nv, out);  // warm: arena + ring claims
  pipeline.build_dendrogram_into(tree, nv, out);  // settles OpenMP team state

  const AllocationCounterScope scope;
  pipeline.build_dendrogram_into(tree, nv, out);
  EXPECT_EQ(scope.count(), 0u)
      << "tracing + metrics must not break the zero-heap steady state";
  EXPECT_GT(recorder.events_recorded(), 0u) << "spans were actually recorded";
}

}  // namespace
