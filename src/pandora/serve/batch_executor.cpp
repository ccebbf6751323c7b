#include "pandora/serve/batch_executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "pandora/common/timer.hpp"
#include "pandora/exec/cancellation.hpp"
#include "pandora/obs/metrics.hpp"

namespace pandora::serve {

namespace {

/// Per-outcome registry handles (see pandora/obs/metrics.hpp for the
/// handle-caching idiom): one counter and, for jobs that actually ran, one
/// run-time histogram per JobOutcome, plus the queue-wait histogram.
obs::Counter& jobs_metric(JobOutcome outcome) {
  static obs::Counter& ok = obs::registry().counter("pandora_serve_jobs_total{outcome=\"ok\"}");
  static obs::Counter& cancelled =
      obs::registry().counter("pandora_serve_jobs_total{outcome=\"cancelled\"}");
  static obs::Counter& shed =
      obs::registry().counter("pandora_serve_jobs_total{outcome=\"shed\"}");
  static obs::Counter& failed =
      obs::registry().counter("pandora_serve_jobs_total{outcome=\"failed\"}");
  switch (outcome) {
    case JobOutcome::ok: return ok;
    case JobOutcome::cancelled: return cancelled;
    case JobOutcome::shed: return shed;
    case JobOutcome::failed: return failed;
  }
  return failed;
}

obs::Histogram& run_metric(JobOutcome outcome) {
  static obs::Histogram& ok =
      obs::registry().histogram("pandora_serve_job_run_seconds{outcome=\"ok\"}");
  static obs::Histogram& cancelled =
      obs::registry().histogram("pandora_serve_job_run_seconds{outcome=\"cancelled\"}");
  static obs::Histogram& failed =
      obs::registry().histogram("pandora_serve_job_run_seconds{outcome=\"failed\"}");
  switch (outcome) {
    case JobOutcome::cancelled: return cancelled;
    case JobOutcome::failed: return failed;
    default: return ok;
  }
}

obs::Histogram& wait_metric() {
  static obs::Histogram& wait = obs::registry().histogram("pandora_serve_job_wait_seconds");
  return wait;
}

}  // namespace

BatchExecutor::BatchExecutor(const exec::Executor& parent, BatchOptions options)
    : parent_(&parent),
      options_(options),
      batch_mutex_(std::make_unique<std::mutex>()),
      adaptive_(std::make_unique<AdaptiveState>()) {
  const int slots = std::max(parent.num_threads(), 1);
  slots_.reserve(static_cast<std::size_t>(slots));
  for (int i = 0; i < slots; ++i) {
    auto slot = std::make_unique<exec::Executor>(exec::serial_backend());
    // All slots share the parent's artifact pool (thread-safe by the
    // ArtifactCache locking contract); each keeps its own Workspace arena.
    slot->use_shared_artifact_cache(&parent.artifact_cache());
    slots_.push_back(std::move(slot));
  }
}

std::vector<JobResult> BatchExecutor::run_jobs(std::span<Job> jobs) {
  // One batch at a time on these slots (they are single-occupancy).
  const std::lock_guard<std::mutex> batch_lock(*batch_mutex_);

  // Policy toggles on the parent propagate to the slots at batch start (the
  // parent may have flipped caching since the last run).
  for (const auto& slot : slots_) {
    slot->set_artifact_caching(parent_->artifact_caching());
    // Tracing enabled on the parent covers the whole batch: slot workers
    // record into the same (thread-safe) recorder, each on its own ring.
    slot->set_trace_recorder(parent_->trace_recorder());
  }

  std::vector<std::size_t> small, large;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    (jobs[i].size_hint <= options_.small_query_threshold ? small : large).push_back(i);
  }

  // Outcomes are captured per job and the batch always settles whole: one
  // poisoned / slow / oversized query can never abort its batchmates.
  std::vector<JobResult> results(jobs.size());
  std::atomic<std::size_t> unfinished{jobs.size()};
  const Timer batch_timer;  // queue wait = run_jobs entry -> job pickup

  // Runs (or sheds) one job on the executor the scheduler assigned.
  auto run_one = [&](std::size_t j, const exec::Executor& exec) {
    JobResult& result = results[j];
    const Job& job = jobs[j];
    wait_metric().observe(batch_timer.seconds());
    // Admission: a job whose token already fired (a spent batch budget, a
    // caller that gave up) is shed, and so — under adaptive shedding — is
    // a job predicted slow while the batch is under pressure: more other
    // jobs pending than slots to absorb them, and the job's predicted run
    // time (size hint x the observed seconds-per-size-unit rate) above the
    // rolling p99 of completed-job latency.  Until enough samples
    // accumulate the model abstains and everything is admitted.
    bool shed = job.cancellation != nullptr && job.cancellation->cancelled();
    const std::size_t others_pending = unfinished.load(std::memory_order_relaxed) - 1;
    if (options_.adaptive_shedding && !shed &&
        others_pending > static_cast<std::size_t>(num_slots())) {
      const AdaptiveState& model = *adaptive_;
      const std::uint64_t total_ns = model.total_ns.load(std::memory_order_relaxed);
      const std::uint64_t total_size = model.total_size.load(std::memory_order_relaxed);
      if (model.latency.count() >= kAdaptiveMinSamples && total_ns > 0 && total_size > 0) {
        const double seconds_per_unit =
            1e-9 * static_cast<double>(total_ns) / static_cast<double>(total_size);
        const double predicted =
            static_cast<double>(std::max<size_type>(job.size_hint, 1)) * seconds_per_unit;
        shed = predicted > model.latency.quantile(0.99);
      }
    }
    if (shed) {
      result.outcome = JobOutcome::shed;
      jobs_metric(JobOutcome::shed).inc();
      unfinished.fetch_sub(1, std::memory_order_relaxed);
      return;
    }

    // Per-job token: the job's own deadline, chained to the caller's token.
    // Stack-allocated — the scope guard uninstalls it before it dies.
    exec::CancellationToken job_token;
    if (job.deadline.count() > 0)
      job_token.set_deadline(exec::CancellationToken::clock::now() + job.deadline);
    job_token.add_parent(job.cancellation);
    const bool cancellable = job.deadline.count() > 0 || job.cancellation != nullptr;

    Timer timer;
    try {
      // The job-level span wraps the whole run — phases and run_chunks
      // launches nest inside it — and still records when the job unwinds
      // with an exception.
      const exec::ScopedSpan span(exec, "serve.job");
      const exec::ScopedCancellation scope(exec, cancellable ? &job_token : nullptr);
      job.run(exec);
      result.outcome = JobOutcome::ok;
    } catch (const Cancelled&) {
      result.outcome = JobOutcome::cancelled;
      result.error = std::current_exception();
    } catch (...) {
      result.outcome = JobOutcome::failed;
      result.error = std::current_exception();
    }
    result.seconds = timer.seconds();
    jobs_metric(result.outcome).inc();
    run_metric(result.outcome).observe(result.seconds);
    if (result.outcome == JobOutcome::ok) {
      adaptive_->latency.observe(result.seconds);
      adaptive_->total_size.fetch_add(
          static_cast<std::uint64_t>(std::max<size_type>(job.size_hint, 1)),
          std::memory_order_relaxed);
      adaptive_->total_ns.fetch_add(static_cast<std::uint64_t>(result.seconds * 1e9),
                                    std::memory_order_relaxed);
    }
    unfinished.fetch_sub(1, std::memory_order_relaxed);
  };

  // Small queries packed per thread.  One worker per slot; workers pull
  // from a shared atomic cursor, so uneven job costs balance dynamically
  // instead of by a static split.
  std::atomic<std::size_t> cursor{0};
  auto drain = [&](int worker) {
    const exec::Executor& slot_exec = *slots_[static_cast<std::size_t>(worker)];
    while (true) {
      const std::size_t next = cursor.fetch_add(1, std::memory_order_relaxed);
      if (next >= small.size()) return;
      run_one(small[next], slot_exec);
    }
  };

  // A small-only batch that one worker can drain runs inline: no thread
  // spawn when one worker suffices.
  const int workers = std::min<int>(num_slots(), static_cast<int>(small.size()));
  if (workers == 1 && large.empty()) {
    drain(0);
    return results;
  }
  // Otherwise the slot workers drain the small queue while the calling
  // thread drains the large one — one at a time, with full intra-query
  // parallelism against the parent executor — so neither phase waits for
  // the other.  Safe because large jobs mutate only the parent executor and
  // small jobs only their slot; the shared ArtifactCache locks internally.
  // The cost is transient oversubscription (the parent's OpenMP team plus
  // the slot workers, bounded by 2x the budget).
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(drain, w);
  for (const std::size_t j : large) run_one(j, *parent_);
  for (std::thread& t : pool) t.join();
  return results;
}

}  // namespace pandora::serve
