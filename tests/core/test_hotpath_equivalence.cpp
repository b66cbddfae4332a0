// Decision equivalence of the scheduler hot path (DESIGN.md, "Scheduler
// hot path"): MLF-H must write the same JSONL event stream byte for byte
// whatever the comm-memo capacity — fault-free and under churn, flat and
// rack topologies. The hot
// path itself has one implementation, pinned by the golden event-stream
// hashes (tests/sched/test_golden_hashes.cpp).
#include <gtest/gtest.h>

#include <sstream>

#include "core/mlf_h.hpp"
#include "sim/engine.hpp"
#include "sim/event_log.hpp"
#include "workload/trace.hpp"

namespace mlfs::core {
namespace {

struct RunResult {
  std::string events;
  RunMetrics metrics;
};

struct Variant {
  std::size_t memo_slots = 4096;
  FaultConfig fault;
  int servers_per_rack = 0;
  bool use_topology = false;
};

RunResult run(const Variant& v) {
  ClusterConfig cluster;
  cluster.server_count = 8;
  cluster.gpus_per_server = 4;
  cluster.servers_per_rack = v.servers_per_rack;

  MlfsConfig config;
  config.heuristic_only = true;
  config.placement.use_topology = v.use_topology;
  config.placement.comm_memo_slots = v.memo_slots;

  TraceConfig trace;
  trace.num_jobs = 80;
  trace.duration_hours = 8.0;
  trace.seed = 21;
  trace.max_gpu_request = 12;

  EngineConfig engine_config;
  engine_config.seed = 77;
  engine_config.fault = v.fault;

  MlfH scheduler{config};
  SimEngine engine(cluster, engine_config, PhillyTraceGenerator(trace).generate(), scheduler);
  std::ostringstream os;
  JsonlEventLog log(os);
  engine.set_observer(&log);
  RunResult r;
  r.metrics = engine.run();
  r.events = os.str();
  return r;
}

// The comm-volume memo against a one-slot memo, which misses on nearly
// every query and so recomputes the volumes call after call: capacity
// trades hits for misses and must never change a decision.
void expect_memo_equivalent(const RunResult& thrashing, const RunResult& memoized) {
  ASSERT_FALSE(memoized.events.empty());
  EXPECT_EQ(thrashing.events, memoized.events);
  EXPECT_EQ(thrashing.metrics.average_jct_minutes(), memoized.metrics.average_jct_minutes());
  EXPECT_EQ(thrashing.metrics.makespan_hours, memoized.metrics.makespan_hours);
  EXPECT_EQ(thrashing.metrics.deadline_ratio, memoized.metrics.deadline_ratio);
  EXPECT_EQ(thrashing.metrics.bandwidth_tb, memoized.metrics.bandwidth_tb);
  EXPECT_EQ(thrashing.metrics.migrations, memoized.metrics.migrations);
  EXPECT_EQ(thrashing.metrics.preemptions, memoized.metrics.preemptions);
  EXPECT_EQ(thrashing.metrics.iterations_run, memoized.metrics.iterations_run);
  EXPECT_EQ(thrashing.metrics.candidates_scanned, memoized.metrics.candidates_scanned);
  EXPECT_GT(memoized.metrics.comm_cache_hits, 0u);
  EXPECT_GT(thrashing.metrics.comm_cache_misses, memoized.metrics.comm_cache_misses);
}

TEST(HotPathEquivalence, FaultFreeFlatNetwork) {
  Variant thrashing;
  thrashing.memo_slots = 1;
  expect_memo_equivalent(run(thrashing), run(Variant{}));
}

TEST(HotPathEquivalence, UnderServerChurnAndTaskKills) {
  FaultConfig fault;
  fault.server_mtbf_hours = 6.0;
  fault.server_mttr_hours = 0.5;
  fault.task_kill_probability = 0.002;
  Variant thrashing;
  thrashing.memo_slots = 1;
  thrashing.fault = fault;
  Variant memoized;
  memoized.fault = fault;
  expect_memo_equivalent(run(thrashing), run(memoized));
}

TEST(HotPathEquivalence, RackTopologyWithAffinityPlacement) {
  // Rack-affinity comm volumes (the memo's topology scatter) and
  // cross-rack movement degradation feed the distance identically whether
  // the volumes come from the memo or are recomputed.
  Variant thrashing;
  thrashing.memo_slots = 1;
  thrashing.servers_per_rack = 4;
  thrashing.use_topology = true;
  Variant memoized;
  memoized.servers_per_rack = 4;
  memoized.use_topology = true;
  const RunResult b = run(memoized);
  expect_memo_equivalent(run(thrashing), b);
  EXPECT_GT(b.metrics.migrations, 0u);
}

}  // namespace
}  // namespace mlfs::core
