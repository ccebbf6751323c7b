// Admission control and structured per-job outcomes in serve::BatchExecutor:
// caller tokens (fired before pickup: shed; fired mid-run: cancelled), a
// batch budget as one shared deadline token, per-job deadlines, adaptive
// shedding, and the JobResult contract — one slow / oversized / poisoned
// query never aborts or hides its batchmates.

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "pandora/data/point_generators.hpp"
#include "pandora/exec/cancellation.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/serve/batch_executor.hpp"

namespace {

using namespace pandora;
using namespace std::chrono_literals;
using serve::BatchExecutor;
using serve::JobOutcome;
using serve::JobResult;

/// A real cancellable workload: HDBSCAN* over a shared point set.
BatchExecutor::Job hdbscan_job(const spatial::PointSet& points, size_type size_hint = 0) {
  return BatchExecutor::Job{
      .run = [&points](const exec::Executor& exec) { (void)hdbscan::hdbscan(exec, points, {}); },
      .size_hint = size_hint != 0 ? size_hint : static_cast<size_type>(points.size()),
  };
}

TEST(ServeQos, DefaultPolicyRunsEverythingOk) {
  const exec::Executor parent;
  BatchExecutor batch(parent, {});
  const spatial::PointSet points = data::gaussian_blobs(400, 2, 3, 0.05, 0.1, 7);
  std::vector<BatchExecutor::Job> jobs(4, hdbscan_job(points));
  const std::vector<JobResult> results = batch.run_jobs(jobs);
  ASSERT_EQ(results.size(), 4u);
  for (const JobResult& result : results) {
    EXPECT_EQ(result.outcome, JobOutcome::ok);
    EXPECT_EQ(result.error, nullptr);
    EXPECT_GT(result.seconds, 0.0);
  }
}

TEST(ServeQos, SpentBatchBudgetShedsUnstartedJobs) {
  const exec::Executor parent;
  BatchExecutor batch(parent, {});
  const spatial::PointSet points = data::gaussian_blobs(400, 2, 3, 0.05, 0.1, 9);
  // A batch budget is one deadline token shared by every job; this one is
  // spent before the first job is picked up.
  const exec::CancellationToken budget = exec::CancellationToken::after(1ns);
  std::vector<BatchExecutor::Job> jobs(3, hdbscan_job(points));
  for (BatchExecutor::Job& job : jobs) job.cancellation = &budget;
  const std::vector<JobResult> results = batch.run_jobs(jobs);
  for (const JobResult& result : results) {
    EXPECT_EQ(result.outcome, JobOutcome::shed);
    EXPECT_EQ(result.error, nullptr);
    EXPECT_EQ(result.seconds, 0.0);
  }
}

TEST(ServeQos, PerJobDeadlineCancelsThatJobOnly) {
  const exec::Executor parent(exec::default_backend(), 1);  // one slot: admission in job order
  BatchExecutor batch(parent, {});
  const spatial::PointSet points = data::gaussian_blobs(3000, 3, 4, 0.05, 0.1, 11);
  std::vector<BatchExecutor::Job> jobs;
  jobs.push_back(hdbscan_job(points));
  jobs.back().deadline = 1ns;
  jobs.push_back(hdbscan_job(points));
  const std::vector<JobResult> results = batch.run_jobs(jobs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].outcome, JobOutcome::cancelled);
  ASSERT_NE(results[0].error, nullptr);
  EXPECT_THROW(std::rethrow_exception(results[0].error), Cancelled);
  EXPECT_EQ(results[1].outcome, JobOutcome::ok) << "the deadline is per-job, not per-batch";
}

TEST(ServeQos, CallerTokenFiredBeforePickupShedsItsJob) {
  const exec::Executor parent;
  BatchExecutor batch(parent, {});
  const spatial::PointSet points = data::gaussian_blobs(2000, 2, 3, 0.05, 0.1, 17);
  exec::CancellationToken token;
  token.cancel();  // fired before the batch even starts
  std::vector<BatchExecutor::Job> jobs;
  jobs.push_back(hdbscan_job(points));
  jobs.back().cancellation = &token;
  jobs.push_back(hdbscan_job(points));
  const std::vector<JobResult> results = batch.run_jobs(jobs);
  EXPECT_EQ(results[0].outcome, JobOutcome::shed);
  EXPECT_EQ(results[0].error, nullptr);
  EXPECT_EQ(results[0].seconds, 0.0) << "a shed job never ran";
  EXPECT_EQ(results[1].outcome, JobOutcome::ok);
}

TEST(ServeQos, CallerTokenFiredMidRunCancelsItsJob) {
  const exec::Executor parent;
  BatchExecutor batch(parent, {});
  const spatial::PointSet points = data::gaussian_blobs(2000, 2, 3, 0.05, 0.1, 17);
  exec::CancellationToken token;
  std::vector<BatchExecutor::Job> jobs;
  jobs.push_back(BatchExecutor::Job{
      .run =
          [&](const exec::Executor& exec) {
            token.cancel();  // the caller gives up once the job is running
            (void)hdbscan::hdbscan(exec, points, {});
          },
      .size_hint = static_cast<size_type>(points.size()),
      .cancellation = &token,
  });
  jobs.push_back(hdbscan_job(points));
  const std::vector<JobResult> results = batch.run_jobs(jobs);
  EXPECT_EQ(results[0].outcome, JobOutcome::cancelled);
  ASSERT_NE(results[0].error, nullptr);
  EXPECT_THROW(std::rethrow_exception(results[0].error), Cancelled);
  EXPECT_EQ(results[1].outcome, JobOutcome::ok);
}

TEST(ServeQos, FailedJobCapturesItsExceptionWithoutAbortingBatchmates) {
  const exec::Executor parent;
  BatchExecutor batch(parent, {});
  const spatial::PointSet points = data::gaussian_blobs(300, 2, 3, 0.05, 0.1, 23);
  std::vector<BatchExecutor::Job> jobs;
  jobs.push_back(BatchExecutor::Job{
      .run = [](const exec::Executor&) { throw std::runtime_error("query bug"); },
      .size_hint = 1,
  });
  jobs.push_back(hdbscan_job(points));
  const std::vector<JobResult> results = batch.run_jobs(jobs);
  EXPECT_EQ(results[0].outcome, JobOutcome::failed);
  ASSERT_NE(results[0].error, nullptr);
  EXPECT_THROW(std::rethrow_exception(results[0].error), std::runtime_error);
  EXPECT_EQ(results[1].outcome, JobOutcome::ok);
}

TEST(ServeQos, RunJobsReportsEveryFailureInJobOrder) {
  const exec::Executor parent;
  BatchExecutor batch(parent, {});
  std::vector<BatchExecutor::Job> jobs;
  jobs.push_back(BatchExecutor::Job{
      .run = [](const exec::Executor&) { throw std::invalid_argument("first"); },
      .size_hint = 1,
  });
  jobs.push_back(BatchExecutor::Job{
      .run = [](const exec::Executor&) { throw std::runtime_error("second"); },
      .size_hint = 2,
  });
  const std::vector<JobResult> results = batch.run_jobs(jobs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].outcome, JobOutcome::failed);
  EXPECT_THROW(std::rethrow_exception(results[0].error), std::invalid_argument);
  EXPECT_EQ(results[1].outcome, JobOutcome::failed);
  EXPECT_THROW(std::rethrow_exception(results[1].error), std::runtime_error);
}

TEST(ServeQos, AdaptiveSheddingShedsSlowJobFloodThatDefaultsAdmit) {
  // A flood of jobs each predicted to run ~100x the observed p99 job
  // latency.  Default options admit the whole flood; adaptive shedding —
  // thresholds derived online from the latency histogram, nothing tuned —
  // sheds most of it.  Outcomes are cross-checked against the obs::
  // registry's serve counters, so the test also proves the instrumentation
  // counts what actually happened.
  const exec::Executor parent(exec::default_backend(), 2);  // 2 slots: 12 pending jobs >> 2
  const auto sleep_job = [](size_type hint) {
    // Run time proportional to size_hint (1us per unit): the honest
    // size-hint-to-seconds relationship the adaptive model learns.
    return BatchExecutor::Job{
        .run =
            [hint](const exec::Executor&) {
              std::this_thread::sleep_for(std::chrono::microseconds(hint));
            },
        .size_hint = hint,
    };
  };
  std::vector<BatchExecutor::Job> flood(12, sleep_job(20000));  // ~20ms each

  {
    BatchExecutor default_options(parent, {});
    for (const JobResult& result : default_options.run_jobs(flood))
      EXPECT_EQ(result.outcome, JobOutcome::ok) << "default options admit everything";
  }

  BatchExecutor batch(parent, {.adaptive_shedding = true});

  // Teach the model what normal looks like: ~200us jobs, comfortably past
  // kAdaptiveMinSamples.  A cold adaptive executor must admit everything.
  std::vector<BatchExecutor::Job> warm(BatchExecutor::kAdaptiveMinSamples + 8, sleep_job(200));
  for (const JobResult& result : batch.run_jobs(warm))
    EXPECT_EQ(result.outcome, JobOutcome::ok) << "the model learns, it must not pre-shed";

  const std::uint64_t registry_shed_before =
      obs::registry().counter_value("pandora_serve_jobs_total{outcome=\"shed\"}");
  const std::vector<JobResult> results = batch.run_jobs(flood);

  std::uint64_t shed = 0;
  for (const JobResult& result : results) {
    if (result.outcome == JobOutcome::shed) {
      ++shed;
      EXPECT_EQ(result.error, nullptr);
      EXPECT_EQ(result.seconds, 0.0) << "shed jobs never ran";
    } else {
      // A job picked up once the queue drained below the slot count is
      // legitimately admitted — shedding must not starve the tail.
      EXPECT_EQ(result.outcome, JobOutcome::ok);
    }
  }
  EXPECT_GE(shed, 6u) << "the adaptive policy barely shed a 100x-slow flood";
  EXPECT_EQ(obs::registry().counter_value("pandora_serve_jobs_total{outcome=\"shed\"}") -
                registry_shed_before,
            shed)
      << "registry shed counter disagrees with the JobResult outcomes";
}

TEST(ServeQos, BatchExecutorReusableAfterShedding) {
  // A batch that shed everything leaves the slots warm and admissible: the
  // next batch (no budget) runs normally on the same executor.
  const exec::Executor parent;
  BatchExecutor batch(parent, {});
  const spatial::PointSet points = data::gaussian_blobs(300, 2, 3, 0.05, 0.1, 31);
  const exec::CancellationToken budget = exec::CancellationToken::after(1ns);
  std::vector<BatchExecutor::Job> jobs(2, hdbscan_job(points));
  for (BatchExecutor::Job& job : jobs) job.cancellation = &budget;
  for (const JobResult& result : batch.run_jobs(jobs))
    EXPECT_EQ(result.outcome, JobOutcome::shed);

  for (BatchExecutor::Job& job : jobs) job.cancellation = nullptr;
  for (const JobResult& result : batch.run_jobs(jobs))
    EXPECT_EQ(result.outcome, JobOutcome::ok);
}

}  // namespace
