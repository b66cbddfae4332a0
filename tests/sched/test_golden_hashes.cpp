// Golden event-stream hashes for every registered scheduler on two
// scenarios.
//
// FaultyContendedStream loads the whole engine at once: server crashes,
// rack outages and transient task kills; the recovery policies
// (quarantine, retry backoff with a budget, adaptive checkpointing); link
// contention with duty cycles on a racked fleet; and half the jobs
// streamed in through exp::run_streaming. Its hashes were captured before
// the engine's per-tick walks moved onto the cluster's live job set.
//
// OverloadedOptStop guards the learning-curve predictor: every job starts
// on OptStop and the fleet stays overloaded, so most jobs stop on a
// prediction and MLF-C keeps downgrading the jobs that allow it. Its hashes
// were captured before the pow3 and ilog fits became separable.
//
// RackAffinityMigration guards MLF-H's placement hot path on a racked
// fleet: the topology scatter of the comm-volume memo, the rack-spread
// dimension, and heavy overload relief (migrations) under server churn and
// task kills. Its hashes were captured while the reference placement paths
// (recompute-per-candidate comm volumes, full-scan load queries,
// comparator queue sort) still existed, and all three scenarios hashed
// identically with those paths switched on.
//
// A refactor of the engine, the cluster, the predictor or a scheduler that
// claims to keep every decision must leave them unchanged. Do NOT update a
// value to "fix" a failure: a mismatch means decisions changed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "core/mlf_c.hpp"
#include "exp/durable.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"

namespace mlfs::sched {
namespace {

exp::RunRequest faulty_streaming_request(const std::string& scheduler) {
  exp::RunRequest r;
  r.label = "golden-faulty-stream-" + scheduler;
  r.cluster.server_count = 8;
  r.cluster.gpus_per_server = 4;
  r.cluster.servers_per_rack = 2;
  r.cluster.link_contention = true;
  r.cluster.nic_capacity_mbps = 800.0;
  r.cluster.rack_uplink_capacity_mbps = 300.0;
  r.cluster.duty_cycles = true;
  r.engine.seed = 2027;
  r.engine.max_sim_time = hours(96.0);
  r.engine.fault.server_mtbf_hours = 30.0;
  r.engine.fault.server_mttr_hours = 0.5;
  r.engine.fault.rack_mtbf_hours = 60.0;
  r.engine.fault.task_kill_probability = 0.002;
  r.engine.fault.checkpoint_interval_iterations = 4;
  r.engine.recovery.enabled = true;
  r.engine.recovery.retry_budget = 6;
  r.engine.recovery.adaptive_checkpoint = true;
  r.engine.audit.enabled = true;
  r.trace.num_jobs = 36;
  r.trace.duration_hours = 4.0;
  r.trace.seed = 4242;
  r.trace.max_gpu_request = 8;
  r.scheduler = scheduler;
  r.mlfs_config.rl.warmup_samples = 100;
  return r;
}

/// (event_stream_hash, events_processed) per registered scheduler.
const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>& golden() {
  static const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> kGolden = {
      {"MLF-H", {0x6bd4cd817598fb7bull, 7466ull}},
      {"MLF-RL", {0x67e088e23b098f16ull, 7331ull}},
      {"MLFS", {0x69ad47f036386b7aull, 4511ull}},
      {"TensorFlow", {0x680bedd01f7f0cc5ull, 7108ull}},
      {"Tiresias", {0xa16ec5935f974d36ull, 7227ull}},
      {"SLAQ", {0xdc31a9fb76bdbeeaull, 9154ull}},
      {"Gandiva", {0xbca63bda10feca40ull, 7631ull}},
      {"Graphene", {0x0cf21ee8bb957a6cull, 7256ull}},
      {"HyperSched", {0xe6c1eb3fd55d12c0ull, 7165ull}},
      {"RL", {0x268c5828d8125875ull, 7193ull}},
      {"Optimus", {0x2aea9f959a75542eull, 7258ull}},
      {"Cassini", {0xf3ad6ced097365c4ull, 7483ull}},
  };
  return kGolden;
}

/// Every job on OptStop, half of them allowed to downgrade, arriving faster
/// than a small fleet drains them.
exp::RunRequest overloaded_optstop_request(const std::string& scheduler) {
  exp::RunRequest r;
  r.label = "golden-overloaded-optstop-" + scheduler;
  r.cluster.server_count = 6;
  r.cluster.gpus_per_server = 4;
  r.engine.seed = 2029;
  r.engine.max_sim_time = hours(200.0);
  r.trace.num_jobs = 80;
  r.trace.duration_hours = 2.0;
  r.trace.seed = 5151;
  r.trace.max_gpu_request = 8;
  r.trace.policy_fixed_fraction = 0.0;
  r.trace.policy_optstop_fraction = 1.0;
  r.trace.allow_downgrade_fraction = 0.5;
  r.scheduler = scheduler;
  r.mlfs_config.rl.warmup_samples = 100;
  return r;
}

/// (event_stream_hash, events_processed) per registered scheduler.
const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>& golden_optstop() {
  static const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> kGolden = {
      {"MLF-H", {0xf81e6dff02ddc6b3ull, 13739ull}},
      {"MLF-RL", {0x85d3de0e460ff8f1ull, 14129ull}},
      {"MLFS", {0x852119e69be2f7f3ull, 11325ull}},
      {"TensorFlow", {0x0daa78eef03e1c22ull, 13836ull}},
      {"Tiresias", {0xb051031d52f8e4beull, 14031ull}},
      {"SLAQ", {0xecf866963f43aa0aull, 16630ull}},
      {"Gandiva", {0xf8a70ca157cf2485ull, 14257ull}},
      {"Graphene", {0xe828755a67303646ull, 13930ull}},
      {"HyperSched", {0x10c7003052f023e0ull, 13793ull}},
      {"RL", {0x84482649c9933150ull, 14356ull}},
      {"Optimus", {0xba063443928ef14eull, 14175ull}},
      {"Cassini", {0x90bf53d18012e025ull, 14249ull}},
  };
  return kGolden;
}

/// 16 servers in racks of 4 with topology-aware, rack-spreading placement,
/// server churn and task kills, and gangs of up to 12 GPUs.
exp::RunRequest rack_affinity_migration_request(const std::string& scheduler) {
  exp::RunRequest r;
  r.label = "golden-rack-affinity-migration-" + scheduler;
  r.cluster.server_count = 16;
  r.cluster.gpus_per_server = 4;
  r.cluster.servers_per_rack = 4;
  r.engine.seed = 2031;
  r.engine.max_sim_time = hours(200.0);
  r.engine.fault.server_mtbf_hours = 20.0;
  r.engine.fault.server_mttr_hours = 0.5;
  r.engine.fault.task_kill_probability = 1e-3;
  r.trace.num_jobs = 120;
  r.trace.duration_hours = 4.0;
  r.trace.seed = 6161;
  r.trace.max_gpu_request = 12;
  r.scheduler = scheduler;
  r.mlfs_config.placement.use_topology = true;
  r.mlfs_config.placement.spread_racks = true;
  r.mlfs_config.rl.warmup_samples = 100;
  return r;
}

/// (event_stream_hash, events_processed) per registered scheduler.
const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>& golden_rack() {
  static const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> kGolden = {
      {"MLF-H", {0x51f774e775a6de4aull, 21193ull}},
      {"MLF-RL", {0x953a7d8652089fb3ull, 21293ull}},
      {"MLFS", {0x17788036080ff8bcull, 13530ull}},
      {"TensorFlow", {0xdb03f57bb8d51804ull, 21272ull}},
      {"Tiresias", {0x15cc9ceb3b11dd06ull, 21341ull}},
      {"SLAQ", {0x9d7a95ec6478bcc0ull, 23471ull}},
      {"Gandiva", {0x614447dcfb8b80d4ull, 21264ull}},
      {"Graphene", {0xb383b977b203cb6dull, 21238ull}},
      {"HyperSched", {0x60d24861419aea53ull, 21293ull}},
      {"RL", {0x90a57bee70077418ull, 21324ull}},
      {"Optimus", {0x16562d13472221a1ull, 21272ull}},
      {"Cassini", {0x1386802fbb288e84ull, 21270ull}},
  };
  return kGolden;
}

RunMetrics run_golden(const std::string& scheduler) {
  exp::RunRequest request = faulty_streaming_request(scheduler);
  const auto script = exp::split_streamed_tail(request, request.trace.num_jobs / 2);
  return exp::run_streaming(request, script);
}

class GoldenHashes : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenHashes, FaultyContendedStreamUnchanged) {
  const RunMetrics m = run_golden(GetParam());
  // The scenario must actually exercise what it claims to pin.
  EXPECT_GT(m.jobs_injected, 0u);
  EXPECT_GT(m.server_failures, 0u);
  EXPECT_GT(m.task_kills, 0u);
  EXPECT_GT(m.link_busy_seconds, 0.0);

  const auto it = golden().find(GetParam());
  ASSERT_NE(it, golden().end()) << "no golden hash for " << GetParam();
  EXPECT_EQ(m.event_stream_hash, it->second.first) << GetParam();
  EXPECT_EQ(m.events_processed, it->second.second) << GetParam();
}

TEST_P(GoldenHashes, OverloadedOptStopUnchanged) {
  const exp::EngineBundle bundle = exp::build_engine(overloaded_optstop_request(GetParam()));
  const RunMetrics m = bundle.engine->run();
  // The scenario must actually exercise what it claims to pin: most jobs
  // stop on a prediction, and MLF-C downgrades while the overload lasts.
  std::size_t predicted_stops = 0;
  for (const Job& job : bundle.engine->cluster().jobs()) {
    if (job.state() == JobState::Completed && job.active_policy() == StopPolicy::OptStop &&
        job.completed_iterations() < job.target_iterations()) {
      ++predicted_stops;
    }
  }
  EXPECT_GT(predicted_stops, m.job_count / 2) << GetParam();
  if (bundle.instance.controller != nullptr) {
    const auto* mlfc = dynamic_cast<const core::MlfC*>(bundle.instance.controller.get());
    ASSERT_NE(mlfc, nullptr);
    EXPECT_GT(mlfc->downgrade_count(), 0u);
  }

  const auto it = golden_optstop().find(GetParam());
  ASSERT_NE(it, golden_optstop().end()) << "no golden hash for " << GetParam();
  EXPECT_EQ(m.event_stream_hash, it->second.first) << GetParam();
  EXPECT_EQ(m.events_processed, it->second.second) << GetParam();
}

TEST_P(GoldenHashes, RackAffinityMigrationUnchanged) {
  const RunMetrics m = exp::execute_run(rack_affinity_migration_request(GetParam()));
  // The scenario must actually exercise what it claims to pin.
  EXPECT_GT(m.server_failures, 0u);
  EXPECT_GT(m.task_kills, 0u);
  if (GetParam() == "MLF-H") {
    EXPECT_GT(m.migrations, 0u);
    EXPECT_GT(m.comm_cache_hits, 0u);
  }

  const auto it = golden_rack().find(GetParam());
  ASSERT_NE(it, golden_rack().end()) << "no golden hash for " << GetParam();
  EXPECT_EQ(m.event_stream_hash, it->second.first) << GetParam();
  EXPECT_EQ(m.events_processed, it->second.second) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, GoldenHashes,
                         ::testing::ValuesIn(exp::registered_scheduler_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           }
                           return name;
                         });

TEST(GoldenHashesCoverage, EveryRegisteredSchedulerIsPinned) {
  const auto names = exp::registered_scheduler_names();
  EXPECT_EQ(names.size(), golden().size());
  EXPECT_EQ(names.size(), golden_optstop().size());
  EXPECT_EQ(names.size(), golden_rack().size());
  for (const auto& name : names) {
    EXPECT_EQ(golden().count(name), 1u) << name;
    EXPECT_EQ(golden_optstop().count(name), 1u) << name;
    EXPECT_EQ(golden_rack().count(name), 1u) << name;
  }
}

}  // namespace
}  // namespace mlfs::sched
