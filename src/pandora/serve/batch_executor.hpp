#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/obs/metrics.hpp"

/// Batched multi-query serving on one Executor.
///
/// A serving deployment of this library is sweep- and batch-shaped: many
/// parameter settings over one point set, many point sets over one machine
/// (cf. cuSLINK, ParChain).  Running such queries one at a time on a parallel
/// Executor wastes the machine twice — small queries cannot amortise the
/// fork/join of intra-query parallelism, and the queue serialises behind each
/// query's sequential tail.  The `BatchExecutor` divides one executor's
/// thread budget *across* queries instead:
///
///  * **small queries are packed per thread**: each runs serially on one of
///    N persistent slot executors (N = the parent's thread budget), all N
///    running concurrently — query-level parallelism with zero fork/join
///    inside a query;
///  * **large queries keep intra-query parallelism**: they run one at a time
///    on the parent executor with its full thread budget (a large query
///    saturates the machine by itself).
///
/// Every slot owns its own `Workspace` arena, so the zero-steady-state-
/// allocation guarantee holds per slot: a warm batch of same-shaped queries
/// leases every scratch buffer from recycled blocks.  All slots share the
/// parent executor's `ArtifactCache` (thread-safe by its locking contract),
/// so artifacts computed by any query — kd-trees, core distances, EMSTs,
/// dendrograms — replay across the whole batch.
///
/// The serve layer is a pure job scheduler: it knows executors, not
/// dendrograms, HDBSCAN* or snapshots.  A query is a `Job` whose closure
/// calls the library on the executor it is handed, and `run_jobs` is the
/// one way to submit a batch.  A snapshot reader is a job that calls
/// `PublishedClustering::acquire()` when it starts; a writer publishing
/// beside the batch is a plain thread next to the `run_jobs` call.
namespace pandora::serve {

/// How one job of a batch ended (see BatchExecutor::run_jobs).
enum class JobOutcome : std::uint8_t {
  ok,         ///< ran to completion
  cancelled,  ///< started, then unwound with pandora::Cancelled (its deadline
              ///< or its caller's token fired mid-run)
  shed,       ///< never started: its token had already fired, or adaptive
              ///< shedding predicted it would blow the tail latency
  failed,     ///< started, then threw something other than Cancelled
};

/// Per-job outcome of a batch: what happened, the captured exception for
/// cancelled/failed jobs (nullptr for ok/shed), and the job's wall time
/// (0 for shed jobs — they never ran).
struct JobResult {
  JobOutcome outcome = JobOutcome::ok;
  std::exception_ptr error;
  double seconds = 0.0;
};

struct BatchOptions {
  /// Queries whose size hint (edges for dendrogram queries, points for
  /// HDBSCAN queries) is at most this are "small" and are packed onto the
  /// serial slot executors; larger queries run with full intra-query
  /// parallelism.  The default is a few multiples of the parallel-for grain:
  /// below it, a query's OpenMP fork/join overhead outweighs what
  /// intra-query parallelism buys, so query-level packing wins.
  size_type small_query_threshold = 16 * exec::kParallelForGrain;

  /// Shed jobs predicted to blow the tail latency.  The executor keeps a
  /// log2 latency histogram of completed jobs plus a running
  /// size-hint-to-seconds rate (both survive across batches).  Once
  /// `kAdaptiveMinSamples` jobs have completed ok, a job picked up while
  /// more other jobs of its batch are pending than there are slots is shed
  /// when its predicted run time (size_hint x observed seconds-per-unit)
  /// exceeds the rolling p99 of completed-job latency.  Both thresholds are
  /// derived online; nothing needs tuning.  A cold executor admits
  /// everything while it learns.
  bool adaptive_shedding = false;
};

class BatchExecutor {
 public:
  explicit BatchExecutor(const exec::Executor& parent, BatchOptions options = {});
  BatchExecutor(BatchExecutor&&) = default;
  BatchExecutor& operator=(BatchExecutor&&) = delete;

  /// Completed-ok jobs adaptive shedding waits for before it sheds anything.
  static constexpr std::size_t kAdaptiveMinSamples = 16;

  /// A unit of batched work.  `run` receives the executor the scheduler
  /// assigned (a serial slot executor for small jobs, the parent for large
  /// ones) and must confine all mutation to that executor and to state no
  /// other job touches (e.g. its own output slot).
  struct Job {
    std::function<void(const exec::Executor&)> run;
    size_type size_hint = 0;
    /// Per-job deadline, measured from the job's start (0 = none).
    std::chrono::nanoseconds deadline{0};
    /// Caller-owned cancellation token (nullptr = none); must outlive the
    /// batch call.  A job whose token has already fired when it is picked
    /// up is shed; one that fires mid-run cancels the job.  A batch budget
    /// is one `CancellationToken::after(budget)` shared by all the jobs.
    const exec::CancellationToken* cancellation = nullptr;
  };

  /// Runs every job to completion — the one way to submit work.  Small jobs
  /// execute concurrently: worker threads (one per slot) pull them from a
  /// shared queue, so slots stay busy regardless of how job costs vary.
  /// Large jobs execute on the calling thread against the parent executor,
  /// one at a time, overlapping the small drain.
  ///
  /// Reports a structured outcome per job (index-aligned with `jobs`)
  /// instead of first-exception-wins: `ok` jobs completed, `cancelled` jobs
  /// unwound with `pandora::Cancelled` (their partial work discarded, their
  /// slot arena intact), `shed` jobs were rejected at admission — their
  /// token had already fired, or adaptive shedding predicted them slow —
  /// and `failed` jobs threw.  One poisoned / slow / oversized query can
  /// therefore never abort its batchmates *or* hide their results.  Never
  /// throws for job failures.
  [[nodiscard]] std::vector<JobResult> run_jobs(std::span<Job> jobs);

  [[nodiscard]] const exec::Executor& parent() const noexcept { return *parent_; }
  [[nodiscard]] int num_slots() const noexcept { return static_cast<int>(slots_.size()); }
  /// Slot executors, exposed so tests and benches can inspect per-slot
  /// workspace statistics (the per-slot steady-state guarantee).
  [[nodiscard]] const exec::Executor& slot(int i) const { return *slots_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const BatchOptions& options() const noexcept { return options_; }

 private:
  /// Rolling latency model behind `BatchOptions::adaptive_shedding`,
  /// heap-held like the batch mutex so the executor stays movable.
  /// Completing ok jobs write it (relaxed atomics, from any worker);
  /// admission reads it.
  struct AdaptiveState {
    obs::Histogram latency;                    ///< completed-job run time
    std::atomic<std::uint64_t> total_size{0};  ///< sum of completed size hints
    std::atomic<std::uint64_t> total_ns{0};    ///< sum of completed run time
  };

  const exec::Executor* parent_;
  BatchOptions options_;
  /// Persistent serial executors, one per slot: their Workspace arenas stay
  /// warm across batches.  unique_ptr keeps them address-stable.
  std::vector<std::unique_ptr<exec::Executor>> slots_;
  /// Serialises whole batches on the slots (two threads may submit
  /// `run_jobs` concurrently; the slots are single-occupancy).  Heap-held so
  /// the executor stays movable.
  std::unique_ptr<std::mutex> batch_mutex_;
  std::unique_ptr<AdaptiveState> adaptive_;
};

}  // namespace pandora::serve
