#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "sched/fair.hpp"
#include "sched/util.hpp"
#include "workload/trace.hpp"

namespace mlfs {
namespace {

/// Minimal greedy scheduler for engine tests: gang-places jobs FIFO onto
/// the least-loaded feasible server.
class GreedyScheduler : public Scheduler {
 public:
  std::string name() const override { return "greedy-test"; }
  void schedule(SchedulerContext& ctx) override {
    for (const TaskId tid : sched::live_queue(ctx)) {
      if (ctx.cluster.task(tid).state != TaskState::Queued) continue;
      sched::place_job_gang(ctx, tid, sched::least_loaded_placement);
    }
  }
};

ClusterConfig four_by_four() {
  ClusterConfig c;
  c.server_count = 4;
  c.gpus_per_server = 4;
  return c;
}

std::vector<JobSpec> small_trace(std::size_t jobs, std::uint64_t seed = 21) {
  TraceConfig config;
  config.num_jobs = jobs;
  config.duration_hours = 6.0;
  config.seed = seed;
  config.max_gpu_request = 8;
  config.max_iterations = 40;
  return PhillyTraceGenerator(config).generate();
}

TEST(SimEngine, AllJobsCompleteOnSmallWorkload) {
  GreedyScheduler scheduler;
  SimEngine engine(four_by_four(), {}, small_trace(30), scheduler);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.job_count, 30u);
  EXPECT_EQ(m.jct_minutes.count(), 30u);
  for (const Job& job : engine.cluster().jobs()) {
    EXPECT_TRUE(job.done());
    EXPECT_GE(job.completion_time(), job.spec().arrival);
  }
}

TEST(SimEngine, JctAtLeastIdealExecutionTime) {
  GreedyScheduler scheduler;
  SimEngine engine(four_by_four(), {}, small_trace(20), scheduler);
  (void)engine.run();
  for (const Job& job : engine.cluster().jobs()) {
    const double jct = job.completion_time() - job.spec().arrival;
    // The job ran completed_iterations() >= 1 iterations, each at least
    // its ideal duration minus resume credits; a loose sanity bound:
    EXPECT_GE(jct, job.ideal_iteration_seconds() * 0.5);
  }
}

TEST(SimEngine, DeterministicForSameSeed) {
  auto run_once = [] {
    GreedyScheduler scheduler;
    SimEngine engine(four_by_four(), {}, small_trace(25, 9), scheduler);
    return engine.run();
  };
  const RunMetrics a = run_once();
  const RunMetrics b = run_once();
  EXPECT_EQ(a.jct_minutes.count(), b.jct_minutes.count());
  EXPECT_DOUBLE_EQ(a.average_jct_minutes(), b.average_jct_minutes());
  EXPECT_DOUBLE_EQ(a.makespan_hours, b.makespan_hours);
  EXPECT_DOUBLE_EQ(a.bandwidth_tb, b.bandwidth_tb);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.iterations_run, b.iterations_run);
}

TEST(SimEngine, MetricsConservation) {
  GreedyScheduler scheduler;
  SimEngine engine(four_by_four(), {}, small_trace(30), scheduler);
  const RunMetrics m = engine.run();

  // Deadline/accuracy ratios are fractions of all jobs.
  EXPECT_GE(m.deadline_ratio, 0.0);
  EXPECT_LE(m.deadline_ratio, 1.0);
  EXPECT_GE(m.accuracy_ratio, 0.0);
  EXPECT_LE(m.accuracy_ratio, 1.0);
  EXPECT_GE(m.average_accuracy, 0.0);
  EXPECT_LE(m.average_accuracy, 1.0);

  // Iterations run match per-job progress.
  std::size_t total_iterations = 0;
  for (const Job& job : engine.cluster().jobs()) {
    total_iterations += static_cast<std::size_t>(job.completed_iterations());
    // No job exceeds its budget.
    EXPECT_LE(job.completed_iterations(), job.spec().max_iterations);
    EXPECT_GE(job.completed_iterations(), 1);
  }
  EXPECT_EQ(m.iterations_run, total_iterations);

  // Makespan covers the longest JCT.
  EXPECT_GE(m.makespan_hours * 60.0 + 1e-6, m.jct_minutes.percentile(100.0));
}

TEST(SimEngine, AccuracyOnlyJobsStopAtRequirement) {
  auto specs = small_trace(12, 31);
  for (auto& spec : specs) {
    spec.stop_policy = StopPolicy::AccuracyOnly;
    spec.min_allowed_policy = StopPolicy::AccuracyOnly;
  }
  GreedyScheduler scheduler;
  SimEngine engine(four_by_four(), {}, specs, scheduler);
  (void)engine.run();
  for (const Job& job : engine.cluster().jobs()) {
    EXPECT_GE(job.current_accuracy(), job.spec().accuracy_requirement);
    // Stopped at the first iteration satisfying the requirement.
    if (job.completed_iterations() > 1) {
      EXPECT_LT(job.curve().accuracy_at(job.completed_iterations() - 1),
                job.spec().accuracy_requirement);
    }
  }
}

TEST(SimEngine, FixedIterationJobsRunFullBudget) {
  auto specs = small_trace(10, 33);
  for (auto& spec : specs) {
    spec.stop_policy = StopPolicy::FixedIterations;
    spec.min_allowed_policy = StopPolicy::FixedIterations;
  }
  GreedyScheduler scheduler;
  SimEngine engine(four_by_four(), {}, specs, scheduler);
  (void)engine.run();
  for (const Job& job : engine.cluster().jobs()) {
    EXPECT_EQ(job.completed_iterations(), job.spec().max_iterations);
  }
}

TEST(SimEngine, OptStopSavesIterationsWithoutBreakingAccuracy) {
  auto specs = small_trace(12, 35);
  for (auto& spec : specs) {
    spec.stop_policy = StopPolicy::OptStop;
    spec.min_allowed_policy = StopPolicy::OptStop;
    spec.max_iterations = 200;  // generous budget for OptStop to reclaim
  }
  GreedyScheduler scheduler;
  SimEngine engine(four_by_four(), {}, specs, scheduler);
  const RunMetrics m = engine.run();
  EXPECT_GT(m.iterations_saved, 0u);
  for (const Job& job : engine.cluster().jobs()) {
    // OptStop stops within a whisker of the best the budget could reach.
    const double best = job.curve().accuracy_at(job.spec().max_iterations);
    EXPECT_GE(job.current_accuracy(), 0.90 * best) << "job " << job.id();
  }
}

TEST(SimEngine, DeadlineProgressRecordedForLateJobs) {
  auto specs = small_trace(8, 37);
  for (auto& spec : specs) spec.deadline_slack_hours = 0.5;  // tight deadlines
  GreedyScheduler scheduler;
  SimEngine engine(four_by_four(), {}, specs, scheduler);
  (void)engine.run();
  for (const Job& job : engine.cluster().jobs()) {
    if (job.completion_time() > job.deadline()) {
      EXPECT_GE(job.iterations_at_deadline(), 0) << "late job must freeze progress";
      EXPECT_LE(job.accuracy_by_deadline(), job.current_accuracy() + 1e-12);
    }
  }
}

TEST(SimEngine, MaxSimTimeCensorsRuns) {
  EngineConfig config;
  config.max_sim_time = minutes(30);  // far too short for the workload
  GreedyScheduler scheduler;
  SimEngine engine(four_by_four(), config, small_trace(20, 39), scheduler);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.jct_minutes.count(), 20u);  // censored jobs still counted
  bool any_incomplete = false;
  for (const Job& job : engine.cluster().jobs()) {
    if (!job.done()) any_incomplete = true;
  }
  EXPECT_TRUE(any_incomplete);
}

TEST(SimEngine, SchedulerOverheadMeasured) {
  GreedyScheduler scheduler;
  SimEngine engine(four_by_four(), {}, small_trace(10, 41), scheduler);
  const RunMetrics m = engine.run();
  EXPECT_GE(m.sched_overhead_ms, 0.0);
  EXPECT_LT(m.sched_overhead_ms, 1000.0);
}

TEST(SimEngine, BandwidthAccruesForCrossServerJobs) {
  // A 8-worker PS job cannot fit on one 4-GPU server, so its PS traffic
  // must cross servers and accrue bandwidth.
  TraceConfig config;
  config.num_jobs = 6;
  config.duration_hours = 1.0;
  config.seed = 43;
  config.max_gpu_request = 8;
  config.gpu_request_weights = {0.0, 0.0, 0.0, 1.0, 0.0, 0.0};  // all 8-GPU
  config.parameter_server_fraction = 1.0;
  auto specs = PhillyTraceGenerator(config).generate();
  GreedyScheduler scheduler;
  SimEngine engine(four_by_four(), {}, specs, scheduler);
  const RunMetrics m = engine.run();
  EXPECT_GT(m.bandwidth_tb, 0.0);
}

TEST(SimEngine, ConstructorRejectsANonFiniteArrival) {
  GreedyScheduler scheduler;
  auto specs = small_trace(3);
  specs[1].arrival = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(SimEngine(four_by_four(), {}, specs, scheduler), ContractViolation);
}

TEST(SimEngine, InjectRejectsAnInvalidSpecBeforeTouchingState) {
  GreedyScheduler scheduler;
  SimEngine engine(four_by_four(), {}, small_trace(4), scheduler);
  for (int i = 0; i < 20 && engine.step(); ++i) {
  }
  const std::size_t jobs = engine.cluster().job_count();
  const std::size_t tasks = engine.cluster().task_count();
  JobSpec bad = small_trace(1, 5).front();
  bad.arrival = engine.now();
  bad.deadline_slack_hours = -1.0;
  EXPECT_THROW(engine.inject_job(bad), ContractViolation);
  EXPECT_EQ(engine.cluster().job_count(), jobs);
  EXPECT_EQ(engine.cluster().task_count(), tasks);
  EXPECT_TRUE(engine.injected_specs().empty());
  // The run carries on as if the spec had never been offered.
  while (engine.step()) {
  }
  for (const Job& job : engine.cluster().jobs()) EXPECT_TRUE(job.done());
}

}  // namespace
}  // namespace mlfs
