// The scheduler abstraction the engine drives. A scheduler is invoked on
// every tick ("the job scheduler runs every minute", §4.1) with a view of
// the cluster, the waiting queue, and an ops interface through which it
// places queued tasks, preempts running tasks back to the queue, and
// migrates tasks between servers. The engine times each invocation for the
// scheduler-overhead metric (Figs. 4(h)/5(h)).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/sim_time.hpp"
#include "sim/cluster.hpp"

namespace mlfs {

class PredictionService;

/// Mutation interface handed to schedulers. Implemented by the engine so
/// every action goes through one place that keeps queue membership, task
/// state, waiting-time accounting, and the bandwidth ledger consistent.
class SchedulerOps {
 public:
  virtual ~SchedulerOps() = default;

  /// Moves a queued task onto (server, gpu). Returns false (and does
  /// nothing) if the task is not queued or the indices are invalid.
  virtual bool place(TaskId task, ServerId server, int gpu) = 0;

  /// Preempts a running task back to the waiting queue. Aborts the job's
  /// in-flight iteration (gang execution stops until re-placed).
  virtual void preempt_to_queue(TaskId task) = 0;

  /// Migrates a running task directly to another server/GPU. Charges the
  /// task's state size to the bandwidth ledger and a one-time delay to the
  /// task's next iteration. Returns false if the task is not running.
  virtual bool migrate(TaskId task, ServerId server, int gpu) = 0;

  /// Rolls back a placement made earlier in the same round for a job that
  /// could not complete its gang (all-or-nothing placement). The task
  /// returns to the queue; unlike preempt_to_queue this does not count as
  /// a preemption and must only be used on tasks of non-running jobs.
  virtual void release(TaskId task) = 0;

  /// Sets a job's communication-phase offset in [0, 1) on the link model
  /// (CASSINI-style interleaving; see sim/link_model.hpp). Returns true
  /// iff the stored offset changed — the engine counts changes as
  /// RunMetrics::phase_offset_hits. No-op (false) when link contention is
  /// disabled; the default keeps ops fakes in harnesses working.
  virtual bool set_phase_offset(JobId job, double offset) {
    (void)job;
    (void)offset;
    return false;
  }
};

/// Read-only + ops context for one scheduling round.
struct SchedulerContext {
  Cluster& cluster;
  /// Waiting tasks, arrival order; schedulers impose their own order.
  const std::vector<TaskId>& queue;
  SchedulerOps& ops;
  SimTime now = 0.0;
  double hr = 0.9;  ///< server overload threshold (engine config)
  /// Unified prediction substrate (runtime estimates + cached curve
  /// fits); nullptr in predictor-less harnesses — consumers fall back to
  /// the same arithmetic over the job's ground-truth state.
  const PredictionService* prediction = nullptr;
  /// Gang placement is all-or-nothing per round, except this job (the
  /// longest-waiting one, engine-chosen) may accumulate partial
  /// placements across rounds so arbitrarily large gangs cannot starve.
  JobId protected_job = kInvalidJob;
};

/// Hot-path instrumentation accumulated over a run (see DESIGN.md,
/// "Scheduler hot path"). Schedulers that do not track these return zeros.
struct SchedStats {
  std::size_t candidates_scanned = 0;  ///< servers examined during host choice
  /// The full underloaded partition per call. Equal to candidates_scanned
  /// now that the linear funnel is the only candidate path; kept because
  /// the snapshot's SchedStats record and the CSV/benchmark readers carry it.
  std::size_t candidates_linear = 0;
  std::size_t comm_cache_hits = 0;  ///< per-(task, server) comm-volume memo hits
  std::size_t comm_cache_misses = 0;  ///< memo rebuilds (one per task per version)

  /// Snapshot order (io::write_fields / read_fields).
  static constexpr auto fields() {
    return std::tuple{&SchedStats::candidates_scanned, &SchedStats::candidates_linear,
                      &SchedStats::comm_cache_hits, &SchedStats::comm_cache_misses};
  }
};
static_assert(io::lists_every_field<SchedStats>);

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// Hot-path counters for the perf trajectory (RunMetrics surfaces them).
  virtual SchedStats sched_stats() const { return {}; }

  /// One scheduling round: place waiting tasks, handle overloaded servers.
  virtual void schedule(SchedulerContext& ctx) = 0;

  /// Lifecycle notifications (optional).
  virtual void on_job_arrival(const Job& job, SimTime now) {
    (void)job;
    (void)now;
  }
  virtual void on_job_complete(const Job& job, SimTime now) {
    (void)job;
    (void)now;
  }

  /// Scheduler-internal consistency check, called by SimAuditor after
  /// every audited event. Implementations validate their private caches
  /// against the cluster ground truth (e.g. MlfH's priority cache) and
  /// throw AuditViolation on divergence. Must not mutate anything.
  virtual void audit_invariants(const Cluster& cluster, SimTime now) const {
    (void)cluster;
    (void)now;
  }

  /// Snapshot hooks (SimEngine::save_snapshot / restore_snapshot): the
  /// scheduler serializes whatever internal state a bit-identical resume
  /// needs (service accounting, RNG streams, policy weights) into an
  /// opaque payload it alone interprets; a cache it can rebuild on demand
  /// is not state. The default is
  /// correct for stateless schedulers; anything carrying run state across
  /// ticks must override BOTH, or a restored run will diverge from the
  /// uninterrupted one (tests/sched/test_restore_determinism.cpp catches
  /// this for every registered scheduler).
  virtual void save_state(std::ostream& os) const { (void)os; }
  virtual void restore_state(std::istream& is) { (void)is; }
  /// Restores a payload from a still-readable snapshot file older than v10,
  /// the last version that changed a scheduler payload (v10 files go to
  /// restore_state). The default suits every scheduler
  /// whose payload has not changed since that version; one whose payload
  /// did change overrides this to read the old layout, and a forwarding
  /// decorator forwards it.
  virtual void restore_legacy_state(std::istream& is, std::uint32_t version) {
    (void)version;
    restore_state(is);
  }
};

}  // namespace mlfs
