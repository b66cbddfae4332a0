#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <span>
#include <sstream>

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

// ------------------------------------------------- communication plans
//
// SimEngine caches each job's communication plan and reuses it until the
// job's Cluster::comm_version moves. Each test below changes something a
// plan depends on and demands that the plan the engine hands out equals
// one built from scratch, and that the change really moved it.

/// Two racks of two servers ({0,1} and {2,3}) behind tight uplinks, so a
/// cross-rack flow is uplink-bound. Jobs 0 and 1 are all-reduce gangs of
/// four and two workers that the tests place by hand (neither ever runs).
struct PlanBench {
  GreedyScheduler scheduler;
  std::unique_ptr<SimEngine> engine;

  explicit PlanBench(bool contention) {
    ClusterConfig c = four_by_four();
    c.servers_per_rack = 2;
    c.link_contention = contention;
    c.duty_cycles = contention;
    c.nic_capacity_mbps = 800.0;
    c.rack_uplink_capacity_mbps = 120.0;
    std::vector<JobSpec> specs(2);
    for (JobId id = 0; id < 2; ++id) {
      specs[id].id = id;
      specs[id].algorithm = id == 0 ? MlAlgorithm::Mlp : MlAlgorithm::Svm;
      specs[id].comm = CommStructure::AllReduce;
      specs[id].gpu_request = id == 0 ? 4 : 2;
    }
    engine = std::make_unique<SimEngine>(c, EngineConfig{}, specs, scheduler);
  }

  Cluster& cluster() { return engine->cluster(); }
  const Job& job(JobId id) { return cluster().job(id); }
  /// Places job `id`'s tasks in order on `servers`, each on GPU 0.
  void place(JobId id, const std::vector<ServerId>& servers) {
    const std::span<const TaskId> tasks = job(id).tasks();
    ASSERT_EQ(tasks.size(), servers.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) cluster().place_task(tasks[i], servers[i], 0);
  }
  void unplace(JobId id) {
    for (const TaskId tid : job(id).tasks()) cluster().unplace_task(tid);
  }
  /// The plan the engine hands out, which must equal a from-scratch build.
  CommPlan current_plan(JobId id) {
    const CommPlan cached = engine->comm_plan(job(id));
    EXPECT_TRUE(cached == engine->build_comm_plan(job(id)))
        << "job " << id << ": cached plan is stale";
    return cached;
  }
};

/// The plans' costs, versions aside.
bool same_costs(CommPlan a, CommPlan b) {
  a.version = b.version;
  return a == b;
}

TEST(CommPlan, NeighbourFlowOnASharedUplinkInvalidatesIt) {
  PlanBench bench(true);
  bench.place(0, {0, 1, 2, 3});  // a ring crossing both uplinks twice
  const CommPlan alone = bench.current_plan(0);
  ASSERT_TRUE(alone.ring_cross);
  // Job 1's ring 0 <-> 2 lands on both of job 0's uplinks.
  bench.place(1, {0, 2});
  const CommPlan shared = bench.current_plan(0);
  EXPECT_GT(shared.shared_round, alone.shared_round);
  EXPECT_EQ(shared.base_round, alone.base_round);
  bench.unplace(1);
  EXPECT_TRUE(same_costs(bench.current_plan(0), alone));
}

TEST(CommPlan, NeighbourPhaseChangeInvalidatesIt) {
  PlanBench bench(true);
  bench.place(0, {0, 1, 2, 3});
  bench.place(1, {0, 2});
  const CommPlan aligned = bench.current_plan(0);
  // Anti-phase job 1's window: it stops overlapping job 0's on the uplinks.
  ASSERT_TRUE(bench.cluster().set_phase_offset(1, 0.5));
  const CommPlan shifted = bench.current_plan(0);
  EXPECT_LT(shifted.shared_round, aligned.shared_round);
}

TEST(CommPlan, OwnMigrationInvalidatesIt) {
  for (const bool contention : {false, true}) {
    SCOPED_TRACE(contention ? "contention on" : "contention off");
    PlanBench bench(contention);
    bench.place(0, {0, 1, 2, 3});
    const CommPlan spread = bench.current_plan(0);
    ASSERT_FALSE(spread.transfers.empty());
    // Pull the rack-1 workers into rack 0: no hop crosses an uplink now.
    const std::span<const TaskId> tasks = bench.job(0).tasks();
    bench.cluster().move_task(tasks[2], 0, 1);
    bench.cluster().move_task(tasks[3], 1, 1);
    const CommPlan packed = bench.current_plan(0);
    EXPECT_LT(packed.base_round, spread.base_round);
  }
}

TEST(CommPlan, RestoreDropsEveryCachedPlan) {
  for (const bool contention : {false, true}) {
    SCOPED_TRACE(contention ? "contention on" : "contention off");
    PlanBench donor(contention);
    donor.place(0, {0, 1, 2, 3});
    const CommPlan spread = donor.current_plan(0);
    std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
    donor.engine->save_snapshot(file);

    // The victim caches a plan for a different placement, built with the
    // same number of placement changes behind it.
    PlanBench victim(contention);
    victim.place(0, {0, 0, 0, 0});
    const CommPlan packed = victim.current_plan(0);
    ASSERT_FALSE(packed.ring_cross);
    victim.engine->restore_snapshot(file);
    EXPECT_TRUE(same_costs(victim.current_plan(0), spread));
  }
}

}  // namespace
}  // namespace mlfs
