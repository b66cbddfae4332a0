// The MLFS facade: heuristic phase -> imitation -> RL switch (§3.4
// staging) and naming of the three series.
#include "core/mlfs.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "workload/trace.hpp"

namespace mlfs::core {
namespace {

ClusterConfig cluster_config() {
  ClusterConfig c;
  c.server_count = 4;
  c.gpus_per_server = 4;
  return c;
}

std::vector<JobSpec> trace(std::size_t jobs, std::uint64_t seed) {
  TraceConfig config;
  config.num_jobs = jobs;
  config.duration_hours = 10.0;
  config.seed = seed;
  config.max_gpu_request = 8;
  config.max_iterations = 60;
  return PhillyTraceGenerator(config).generate();
}

TEST(MlfsScheduler, NamesFollowConfig) {
  MlfsConfig heuristic;
  heuristic.heuristic_only = true;
  EXPECT_EQ(MlfsScheduler(heuristic).name(), "MLF-H");
  EXPECT_EQ(MlfsScheduler(MlfsConfig{}).name(), "MLF-RL");
  EXPECT_EQ(MlfsScheduler(MlfsConfig{}, "MLFS").name(), "MLFS");
}

TEST(MlfsScheduler, HeuristicOnlyNeverActivatesRl) {
  MlfsConfig config;
  config.heuristic_only = true;
  MlfsScheduler scheduler(config);
  SimEngine engine(cluster_config(), {}, trace(60, 3), scheduler);
  (void)engine.run();
  EXPECT_FALSE(scheduler.rl_active());
  EXPECT_EQ(scheduler.imitation_samples(), 0u);
}

TEST(MlfsScheduler, CollectsImitationSamplesAndSwitches) {
  MlfsConfig config;
  config.rl.warmup_samples = 60;  // switch quickly in a small test
  MlfsScheduler scheduler(config);
  SimEngine engine(cluster_config(), {}, trace(80, 5), scheduler);
  const RunMetrics m = engine.run();
  EXPECT_TRUE(scheduler.rl_active());
  EXPECT_GE(scheduler.imitation_samples(), 60u);
  EXPECT_EQ(m.jct_minutes.count(), 80u);
  for (const Job& job : engine.cluster().jobs()) EXPECT_TRUE(job.done());
}

TEST(MlfsScheduler, ClonedPolicyMatchesExpertOften) {
  MlfsConfig config;
  config.rl.warmup_samples = 150;
  MlfsScheduler scheduler(config);
  SimEngine engine(cluster_config(), {}, trace(100, 7), scheduler);
  (void)engine.run();
  ASSERT_TRUE(scheduler.rl_active());
  // Behaviour cloning should substantially beat the 1/K random baseline
  // on its own training set.
  EXPECT_GT(scheduler.imitation_accuracy(), 0.5);
}

TEST(MlfsScheduler, RlPhaseStillCompletesEverything) {
  MlfsConfig config;
  config.rl.warmup_samples = 40;
  MlfsScheduler scheduler(config);
  SimEngine engine(cluster_config(), {}, trace(120, 9), scheduler);
  const RunMetrics m = engine.run();
  EXPECT_TRUE(scheduler.rl_active());
  std::size_t incomplete = 0;
  for (const Job& job : engine.cluster().jobs()) {
    if (!job.done()) ++incomplete;
  }
  EXPECT_EQ(incomplete, 0u);
  EXPECT_GT(m.deadline_ratio, 0.5);
}

TEST(MlfsScheduler, DeterministicEndToEnd) {
  auto run_once = [] {
    MlfsConfig config;
    config.rl.warmup_samples = 50;
    MlfsScheduler scheduler(config);
    SimEngine engine(cluster_config(), {}, trace(60, 11), scheduler);
    return engine.run();
  };
  const RunMetrics a = run_once();
  const RunMetrics b = run_once();
  EXPECT_DOUBLE_EQ(a.average_jct_minutes(), b.average_jct_minutes());
  EXPECT_DOUBLE_EQ(a.bandwidth_tb, b.bandwidth_tb);
  EXPECT_EQ(a.migrations, b.migrations);
}

}  // namespace
}  // namespace mlfs::core
