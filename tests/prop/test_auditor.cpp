// SimAuditor tests: clean audited runs across chaotic configurations, the
// observer-only guarantee (audit on == audit off, bitwise), and the
// deliberate slot-leak bug being caught with a structured diagnostic.
#include <gtest/gtest.h>

#include "exp/fuzz.hpp"
#include "exp/runner.hpp"
#include "sim/audit.hpp"
#include "sim/metrics.hpp"

namespace mlfs::exp {
namespace {

/// Small audited scenario with every fault dimension enabled.
RunRequest chaos_request(const std::string& scheduler) {
  RunRequest r;
  r.label = "auditor-chaos";
  r.cluster.server_count = 5;
  r.cluster.gpus_per_server = 4;
  r.cluster.servers_per_rack = 2;
  r.cluster.slow_server_fraction = 0.4;
  r.engine.seed = 1234;
  r.engine.max_sim_time = hours(72.0);
  r.engine.straggler_probability = 0.02;
  r.engine.straggler_replicas = 1;
  r.engine.fault.server_mtbf_hours = 12.0;
  r.engine.fault.server_mttr_hours = 0.4;
  r.engine.fault.task_kill_probability = 2e-4;
  r.engine.fault.rack_mtbf_hours = 36.0;
  r.engine.fault.rack_mttr_hours = 0.2;
  r.engine.fault.checkpoint_interval_iterations = 3;
  r.engine.audit.enabled = true;
  r.trace.num_jobs = 25;
  r.trace.duration_hours = 3.0;
  r.trace.seed = 99;
  r.trace.max_gpu_request = 8;
  r.scheduler = scheduler;
  return r;
}

TEST(Auditor, CleanUnderChaosForRepresentativeSchedulers) {
  // MLFS exercises the full hot path + MLF-H cache audit; Tiresias and
  // TensorFlow cover preemptive and naive baselines.
  for (const char* name : {"MLFS", "Tiresias", "TensorFlow"}) {
    EXPECT_NO_THROW({
      const RunMetrics m = execute_run(chaos_request(name));
      EXPECT_EQ(m.job_count, 25u) << name;
    }) << name;
  }
}

TEST(Auditor, IsPureObserver) {
  // Enabling the audit must not change a single decision or metric.
  RunRequest with = chaos_request("MLFS");
  RunRequest without = chaos_request("MLFS");
  without.engine.audit.enabled = false;
  EXPECT_TRUE(deterministic_equal(execute_run(with), execute_run(without)));
}

TEST(Auditor, StrideSkipsEventsButStillAudits) {
  RunRequest r = chaos_request("SLAQ");
  r.engine.audit.stride = 16;  // cheap mode: audit every 16th event
  EXPECT_NO_THROW(execute_run(r));
}

TEST(Auditor, CatchesInjectedSlotLeak) {
  RunRequest r = chaos_request("MLFS");
  r.cluster.debug_slot_leak = true;
  try {
    execute_run(r);
    FAIL() << "slot leak was not detected";
  } catch (const AuditViolation& v) {
    EXPECT_EQ(v.report().invariant, "server-usage");
    EXPECT_GE(v.report().sim_time, 0.0);
    EXPECT_GT(v.report().event_index, 0u);
    EXPECT_FALSE(v.report().event.empty());
    // The diagnostic names the server and the cached-vs-recomputed gap.
    EXPECT_NE(std::string(v.what()).find("cached usage"), std::string::npos);
  }
}

TEST(Auditor, CatchesLiveSetDrift) {
  // Drop a live job from the cluster's live set behind the engine's back:
  // the next sweep re-derives {arrived and not terminal} and disagrees.
  EngineBundle bundle = build_engine(chaos_request("Tiresias"));
  SimEngine& engine = *bundle.engine;
  while (engine.cluster().live_jobs().empty()) ASSERT_TRUE(engine.step());
  engine.cluster().set_job_live(engine.cluster().live_jobs().front(), false);
  try {
    while (engine.step()) {
    }
    FAIL() << "live-set drift was not detected";
  } catch (const AuditViolation& v) {
    EXPECT_EQ(v.report().invariant, "live-set");
  }
}

TEST(Auditor, LeakGoesUnnoticedWithoutAudit) {
  // The run completes and looks plausible without the auditor — the
  // point of having one.
  RunRequest r = chaos_request("MLFS");
  r.cluster.debug_slot_leak = true;
  r.engine.audit.enabled = false;
  EXPECT_NO_THROW(execute_run(r));
}

TEST(Auditor, ViolationIsAContractViolation) {
  // Existing catch sites for ContractViolation keep working.
  RunRequest r = chaos_request("MLFS");
  r.cluster.debug_slot_leak = true;
  EXPECT_THROW(execute_run(r), ContractViolation);
}

TEST(Auditor, ReportToStringMentionsInvariantAndEvent) {
  const AuditReport report{"server-usage", "detail text", "tick", 12.5, 42};
  const std::string s = report.to_string();
  EXPECT_NE(s.find("server-usage"), std::string::npos);
  EXPECT_NE(s.find("tick"), std::string::npos);
  EXPECT_NE(s.find("detail text"), std::string::npos);
}

}  // namespace
}  // namespace mlfs::exp
