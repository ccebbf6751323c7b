// batch_small: many small queries submitted together.  One client thread
// submits closed-loop batches through `Pipeline::batch().run_jobs`; one op
// is one batch of 30 small dendrogram queries (2k-30k vertices,
// log-uniform) and 2 large ones (250k vertices), all distinct
// random-attachment MSTs.

#include <cmath>
#include <memory>
#include <utility>

#include "layers.hpp"
#include "pandora/common/rng.hpp"
#include "pandora/data/tree_generators.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/pipeline.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

namespace px = pandora::exec;
namespace pserve = pandora::serve;

constexpr int kSmall = 30;
constexpr int kLarge = 2;
constexpr int kQueries = kSmall + kLarge;
constexpr index_t kSmallMin = 2000;
constexpr index_t kSmallMax = 30000;
constexpr index_t kLargeVertices = 250000;
constexpr int kPool = 4;  // batches; 4 x 32 distinct MSTs > ArtifactCache::kDefaultSlots
constexpr std::size_t kThroughputWindow = 3 * kPool;  // ops: whole passes, ~1.2 s

struct Batch {
  std::vector<pandora::graph::EdgeList> trees;
  std::vector<index_t> num_vertices;
  std::vector<std::vector<index_t>> references;  ///< union-find parents
};

struct State {
  std::vector<Batch> pool;
  px::Executor exec{px::default_backend(), hardware_threads()};
  pserve::BatchExecutor batch{pandora::Pipeline::on(exec).batch()};
};

pandora::graph::EdgeList random_tree(index_t num_vertices, std::uint64_t seed) {
  pandora::Rng rng(seed);
  pandora::graph::EdgeList tree = pandora::data::random_attachment_tree(num_vertices, rng);
  pandora::data::assign_random_weights(tree, rng);
  return tree;
}

/// Per-job timings of a traced batch.
struct TracedJobs {
  std::vector<double> wait_ms, run_ms;
  std::vector<char> on_slot;  // char, not bool: jobs write concurrently
};

/// The jobs of one batch, writing query q's dendrogram to out[q].  With a
/// trace, each job body records its wait and run time (relative to
/// `submit_ns`), a serve.job span under the batch span, and inside it a
/// dendrogram.op span around the same `pandora_dendrogram` call, split by
/// the library's phase times on the job's executor.
std::vector<pserve::BatchExecutor::Job> make_jobs(const Batch& batch,
                                                  std::vector<pandora::dendrogram::Dendrogram>& out,
                                                  LayerTrace* trace, const px::Executor& parent,
                                                  std::uint64_t batch_span, std::uint64_t submit_ns,
                                                  TracedJobs& traced) {
  std::vector<pserve::BatchExecutor::Job> jobs(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    const auto qi = static_cast<std::size_t>(q);
    jobs[qi].size_hint = batch.trees[qi].size();
    if (trace == nullptr) {
      jobs[qi].run = [&batch, &out, qi](const px::Executor& exec) {
        out[qi] =
            pandora::dendrogram::pandora_dendrogram(exec, batch.trees[qi], batch.num_vertices[qi]);
      };
      continue;
    }
    jobs[qi].run = [&batch, &out, &traced, &parent, trace, batch_span, submit_ns,
                    qi](const px::Executor& exec) {
      // A job's executor runs one job at a time, so a profiler per job is
      // safe; the batch installs the parent's trace recorder on every slot.
      const std::uint64_t begin_ns = trace->now_ns();
      {
        const Span job(trace, exec, "serve.job", Layer::serve, batch_span);
        pandora::PhaseTimes times;
        const px::ScopedPhaseTimes phases(exec, &times);
        const Span op(trace, exec, "dendrogram.op", Layer::dendrogram);
        out[qi] =
            pandora::dendrogram::pandora_dendrogram(exec, batch.trees[qi], batch.num_vertices[qi]);
        (void)trace->add_phases(op.id(), op.start_ns(), times);
      }
      traced.wait_ms[qi] = 1e-6 * static_cast<double>(begin_ns - submit_ns);
      traced.run_ms[qi] = 1e-6 * static_cast<double>(trace->now_ns() - begin_ns);
      traced.on_slot[qi] = &exec != &parent;
    };
  }
  return jobs;
}

std::unique_ptr<State> make_state(std::uint64_t seed) {
  auto state = std::make_unique<State>();
  for (int b = 0; b < kPool; ++b) {
    Batch batch;
    // Small sizes are log-uniform, stratified (one draw per 1/30 of the log
    // range, in shuffled order) so every batch carries about the same work.
    pandora::Rng rng(derive_seed(seed, 3, static_cast<std::uint64_t>(b)));
    std::vector<index_t> sizes(kQueries, kLargeVertices);
    const double log_min = std::log(kSmallMin), log_range = std::log(kSmallMax) - log_min;
    for (int q = 0; q < kSmall; ++q)
      sizes[static_cast<std::size_t>(q)] = static_cast<index_t>(
          std::lround(std::exp(log_min + log_range * (q + rng.next_double()) / kSmall)));
    for (int q = kSmall - 1; q > 0; --q)
      std::swap(sizes[static_cast<std::size_t>(q)],
                sizes[static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(q + 1)))]);
    for (int q = 0; q < kQueries; ++q) {
      const index_t n = sizes[static_cast<std::size_t>(q)];
      batch.trees.push_back(
          random_tree(n, derive_seed(seed, 4, static_cast<std::uint64_t>(b * kQueries + q))));
      batch.num_vertices.push_back(n);
    }
    state->pool.push_back(std::move(batch));
  }
  // Warm every slot arena on the last batch, which the loop reaches only
  // after the other batches have cycled its artifacts out of the cache.
  std::vector<pandora::dendrogram::Dendrogram> out(kQueries);
  TracedJobs unused;
  std::vector<pserve::BatchExecutor::Job> jobs =
      make_jobs(state->pool.back(), out, nullptr, state->exec, 0, 0, unused);
  (void)state->batch.run_jobs(jobs);
  return state;
}

}  // namespace

Outcome run_batch_small(const Options& options) {
  Outcome outcome;
  std::vector<double> setup_seconds;
  const std::unique_ptr<State> state =
      repeated_setup(options.trace, setup_seconds, [&] { return make_state(options.seed); });
  for (Batch& batch : state->pool) {
    std::vector<const pandora::graph::EdgeList*> trees;
    for (const auto& tree : batch.trees) trees.push_back(&tree);
    batch.references = union_find_references(trees, batch.num_vertices);
  }
  std::vector<double> batch_vertices;
  for (const Batch& batch : state->pool) {
    double sum = 0;
    for (const index_t n : batch.num_vertices) sum += static_cast<double>(n);
    batch_vertices.push_back(sum);
  }

  std::unique_ptr<LayerTrace> trace = options.trace ? std::make_unique<LayerTrace>() : nullptr;
  std::vector<double> op_seconds, op_vertices;
  std::vector<double> traced_seconds;
  std::vector<double> wait_ms, run_ms;
  double slot_busy = 0.0;
  ExecCounters counters;
  std::vector<pandora::dendrogram::Dendrogram> out(kQueries);

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; keep_running(options, start, op_seconds.size()); ++i) {
    const std::size_t slot = i % state->pool.size();
    const Batch& batch = state->pool[slot];
    const bool traced = traced_turn(options, i, state->pool.size());
    ++outcome.attempted;
    try {
      TracedJobs jobs_traced{std::vector<double>(kQueries), std::vector<double>(kQueries),
                             std::vector<char>(kQueries)};
      std::vector<pserve::JobResult> results;
      std::vector<pserve::BatchExecutor::Job> jobs;
      if (!traced) jobs = make_jobs(batch, out, nullptr, state->exec, 0, 0, jobs_traced);
      const ExecCounters before = ExecCounters::read();
      const Clock::time_point op_start = Clock::now();
      if (!traced) {
        results = state->batch.run_jobs(jobs);
      } else {
        const px::ScopedTrace scoped(state->exec, &trace->recorder());
        const Span span(trace.get(), state->exec, "serve.batch", Layer::serve);
        jobs = make_jobs(batch, out, trace.get(), state->exec, span.id(), span.start_ns(),
                         jobs_traced);
        results = state->batch.run_jobs(jobs);
      }
      const double seconds = seconds_since(op_start);
      counters += ExecCounters::read() - before;
      if (!traced) {
        op_seconds.push_back(seconds);
        op_vertices.push_back(batch_vertices[slot]);
      } else {
        traced_seconds.push_back(seconds);
        double slot_run_ms = 0.0;
        for (int q = 0; q < kQueries; ++q) {
          wait_ms.push_back(jobs_traced.wait_ms[q]);
          run_ms.push_back(jobs_traced.run_ms[q]);
          if (jobs_traced.on_slot[q]) slot_run_ms += jobs_traced.run_ms[q];
        }
        slot_busy += slot_run_ms / (1e3 * seconds * state->batch.num_slots());
      }
      bool ok = results.size() == static_cast<std::size_t>(kQueries);
      for (std::size_t q = 0; ok && q < results.size(); ++q)
        ok = results[q].outcome == pserve::JobOutcome::ok &&
             parents_match(options, out[q], batch.references[q]);
      if (!ok) ++outcome.failed;
    } catch (const std::exception&) {
      ++outcome.failed;
    }
  }

  if (trace == nullptr) {
    add_end_to_end(outcome, setup_seconds, op_seconds, op_vertices, kThroughputWindow);
    return outcome;
  }
  const auto ops = static_cast<double>(traced_seconds.size());
  add_span_metrics(outcome, *trace,
                   {"dendrogram.sort", "dendrogram.contraction", "dendrogram.expansion"}, ops);
  add_exec_metrics(outcome, counters, static_cast<double>(outcome.attempted));
  outcome.add("serve.job_wait_ms", mean(wait_ms), "ms");
  outcome.add("serve.job_run_ms", mean(run_ms), "ms");
  outcome.add("serve.slot_busy_frac", ops > 0 ? slot_busy / ops : 0, "fraction");
  outcome.add("trace.overhead_frac", overhead_fraction(traced_seconds, op_seconds), "fraction");
  add_self_time_metrics(outcome, *trace, ops);
  outcome.detail["traced_samples"] = ops;
  outcome.detail["samples"] = static_cast<double>(op_seconds.size());
  write_trace(*trace, options.trace_out, outcome);
  return outcome;
}

}  // namespace perfbench
