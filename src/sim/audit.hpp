// Simulation invariant auditor. Opt-in via EngineConfig::audit: after
// every event the engine processes, the auditor re-derives the cluster's
// bookkeeping from first principles — task placement vs server task lists,
// incremental usage sums and the lazy load index vs a full rescan, gang
// execution and queue membership, DAG structure, and the engine's counter
// identities — and throws a structured AuditViolation on the first
// divergence. It is a pure observer: it reads raw state (via friendship)
// and never triggers a load-index refresh or any other mutation, so an
// audited run is bit-identical (deterministic_equal) to an unaudited one.
//
// The fuzz harness (exp/fuzz.hpp, tools/mlfs_fuzz) runs every registered
// scheduler under this auditor on randomized scenarios and shrinks any
// failing case to a minimal replayable RunRequest; see DESIGN.md,
// "Invariants & property testing" for the full invariant catalog.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "common/sim_time.hpp"
#include "sim/engine_state.hpp"
#include "workload/ids.hpp"

namespace mlfs {

class SimEngine;
struct RunMetrics;

/// Opt-in invariant auditing (EngineConfig::audit).
struct AuditConfig {
  bool enabled = false;
  /// Audit every Nth event (1 = every event). Larger strides trade
  /// detection latency for speed on big CI scenarios; the sweep itself is
  /// O(tasks + servers×gpus + queue) per audited event.
  int stride = 1;
};

/// Structured diagnostic attached to every violation. `invariant` is a
/// stable identifier (e.g. "server-usage", "load-index") that the fuzz
/// shrinker matches on, so a shrunk case is only accepted when it still
/// fails the *same* invariant.
struct AuditReport {
  std::string invariant;
  std::string detail;
  std::string event;            ///< event being processed when detected
  SimTime sim_time = 0.0;
  std::uint64_t event_index = 0;  ///< events processed before detection

  std::string to_string() const;
};

/// Thrown on the first invariant violation. Subclasses ContractViolation
/// so existing catch sites (CLI mains, tests) already handle it; carries
/// the machine-readable report for the fuzz harness.
class AuditViolation : public ContractViolation {
 public:
  explicit AuditViolation(AuditReport report);
  const AuditReport& report() const { return report_; }

 private:
  AuditReport report_;
};

/// The auditor. Owned by the engine when EngineConfig::audit.enabled; the
/// engine calls on_sim_start() once, after_event() after every processed
/// event, and check_metrics() on the assembled RunMetrics before run()
/// returns.
class SimAuditor {
 public:
  explicit SimAuditor(const SimEngine& engine);

  /// Pre-run structural checks: every job's DAG is acyclic, its
  /// topological order covers all nodes, and parent/child adjacency is
  /// mirrored consistently.
  void on_sim_start();

  /// Called after every event; runs the full invariant sweep every
  /// `stride` events. `subject` is the event's job id (used to track
  /// which jobs have arrived).
  void after_event(const char* event, JobId subject);

  /// Full sweep at the current instant (also used directly by tests).
  void check_now(const char* context);

  /// End-of-run accounting identities between the assembled RunMetrics
  /// and the per-job ground truth.
  void check_metrics(const RunMetrics& m) const;

  /// Called by the engine right after inject_job registered a streamed
  /// job: grows the arrival-tracking vector (the new job has not arrived
  /// yet — its Arrival event is pending).
  void on_job_injected();

  /// Re-derives the auditor's observational state from a freshly restored
  /// engine (SimEngine::restore_snapshot): arrival tracking from the
  /// pending event queue, the monotone-counter snapshots from the restored
  /// counters, and the event count (which also keeps the audit-stride
  /// phase identical to the uninterrupted run). The auditor itself is
  /// never serialized — it is a pure observer, so everything it needs is
  /// derivable.
  void resync_after_restore();

  std::uint64_t events_seen() const { return events_seen_; }
  std::uint64_t audits_performed() const { return audits_; }

 private:
  [[noreturn]] void fail(const char* invariant, const std::string& detail) const;

  void check_dag_structure() const;
  void check_servers_and_tasks() const;
  void check_load_index() const;
  void check_queue() const;
  void check_link_model() const;
  void check_comm_plans() const;
  void check_jobs() const;
  void check_live_set() const;
  void check_prediction_service() const;
  void check_accounting();

  const SimEngine& engine_;
  std::vector<char> arrived_;  ///< per job: arrival event processed
  std::string current_event_ = "sim-start";
  std::uint64_t events_seen_ = 0;
  std::uint64_t audits_ = 0;

  // Monotone-counter snapshots from the previous sweep.
  EngineCounters last_counters_;
  double last_bandwidth_mb_ = 0.0;
  double last_inter_rack_mb_ = 0.0;
  SimTime last_now_ = 0.0;
};

}  // namespace mlfs
