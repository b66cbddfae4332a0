// Regression tests for the communication-volume memo (core/placement.cpp).
//
// The memo was originally keyed on the cluster-wide placement epoch, so ANY
// placement anywhere invalidated EVERY cached vector: the hit rate collapsed
// from ~49% on a 16-server fleet to ~0.45% at 96 servers, precisely where
// memoization matters. Keying on the job's own communication version (only
// same-job placements can change a task's comm vector) restores fleet-scale
// hit rates; the first test pins that with a floor at the 96-server point. The
// second pins the bounded-arena eviction path: a memo capacity far below the
// working set must change performance counters only, never decisions.
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

RunResult run_fleet(int servers, std::size_t memo_slots) {
  ClusterConfig cluster;
  cluster.server_count = servers;
  cluster.gpus_per_server = 4;

  MlfsConfig config;
  config.heuristic_only = true;
  config.placement.comm_memo_slots = memo_slots;

  TraceConfig trace;
  trace.num_jobs = 4 * servers;  // scale offered load with the fleet
  trace.duration_hours = 4.0;
  trace.seed = 21;
  trace.max_gpu_request = 12;

  EngineConfig engine_config;
  engine_config.seed = 77;

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

double hit_ratio(const RunMetrics& m) {
  const double total = static_cast<double>(m.comm_cache_hits + m.comm_cache_misses);
  return total == 0.0 ? 0.0 : static_cast<double>(m.comm_cache_hits) / total;
}

TEST(CommMemo, HitRateHoldsAtFleetScale) {
  const RunResult small = run_fleet(16, 4096);
  const RunResult large = run_fleet(96, 4096);
  ASSERT_GT(large.metrics.comm_cache_hits + large.metrics.comm_cache_misses, 0u);
  const double small_ratio = hit_ratio(small.metrics);
  const double large_ratio = hit_ratio(large.metrics);
  // Measured with per-job keying: ~15.6% at 16 servers, ~5.2% at 96.
  // Global-epoch keying collapsed two orders of magnitude between these two
  // points (~49% -> ~0.45%); per-job keying must keep the 96-server point
  // within a small constant factor of the 16-server one, and far above the
  // collapsed value.
  EXPECT_GE(large_ratio, small_ratio / 4.0)
      << "comm-memo hit ratio collapsed with fleet size: " << small_ratio << " -> "
      << large_ratio;
  EXPECT_GE(large_ratio, 0.02) << "comm-memo hit ratio at fleet scale: " << large_ratio;
}

TEST(CommMemo, TinyCapacityEvictsWithoutChangingDecisions) {
  const RunResult roomy = run_fleet(16, 4096);
  const RunResult tiny = run_fleet(16, 2);
  ASSERT_FALSE(roomy.events.empty());
  EXPECT_EQ(roomy.events, tiny.events);
  EXPECT_EQ(roomy.metrics.average_jct_minutes(), tiny.metrics.average_jct_minutes());
  EXPECT_EQ(roomy.metrics.makespan_hours, tiny.metrics.makespan_hours);
  EXPECT_EQ(roomy.metrics.migrations, tiny.metrics.migrations);
  // Two slots can't hold the working set: eviction must show up as misses.
  EXPECT_GT(tiny.metrics.comm_cache_misses, roomy.metrics.comm_cache_misses);
}

}  // namespace
}  // namespace mlfs::core
