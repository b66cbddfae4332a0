// End-of-run metrics — exactly the eight panels of Figs. 4/5 plus the
// makespan numbers quoted in §4.2.1 and the component counters the
// ablation figures need (overload occurrences for Fig. 8(a), migrations).
#pragma once

#include <cstdint>
#include <string>

#include "common/stats.hpp"

namespace mlfs {

class Cluster;

/// Every simulation-derived field: a pure function of the run's inputs,
/// compared whole by deterministic_equal.
struct DeterministicMetrics {
  std::string scheduler;
  std::size_t job_count = 0;
  /// Jobs streamed into the live engine (SimEngine::inject_job) rather
  /// than registered at construction; 0 for pure trace-driven runs.
  std::size_t jobs_injected = 0;

  SampleSet jct_minutes;            ///< per-job completion time (Figs. 4/5 (a),(b))
  double makespan_hours = 0.0;      ///< first arrival -> last completion
  double deadline_ratio = 0.0;      ///< jobs finishing by their deadline (c)
  SampleSet waiting_seconds;        ///< per-job waiting time (d)
  double average_accuracy = 0.0;    ///< accuracy by deadline, mean (e)
  double accuracy_ratio = 0.0;      ///< accuracy requirement met by deadline (f)
  double bandwidth_tb = 0.0;        ///< total cross-server traffic (g)
  double inter_rack_tb = 0.0;       ///< rack-crossing share (topology extension)

  std::size_t overload_occurrences = 0;  ///< server-tick overload events (Fig. 8(a))
  std::size_t migrations = 0;
  std::size_t preemptions = 0;
  std::size_t partial_releases = 0;   ///< gang-timeout placement releases
  std::size_t watchdog_evictions = 0;
  std::size_t iterations_run = 0;
  std::size_t iterations_saved = 0;  ///< max_iterations - executed, summed (MLF-C effect)
  double urgent_deadline_ratio = 0.0;  ///< deadline ratio among jobs with urgency > 8 (Fig. 6)

  // -- failure-recovery accounting (fault-injection subsystem) --
  std::size_t server_failures = 0;    ///< individual crashes + rack-outage casualties
  std::size_t rack_outages = 0;       ///< correlated rack-level outage events
  std::size_t task_kills = 0;         ///< transient single-task kills
  std::size_t crash_evictions = 0;    ///< placed tasks evicted by server crashes
  std::size_t iterations_rolled_back = 0;  ///< completed iterations lost to checkpoint rollback
  double work_lost_gpu_seconds = 0.0;      ///< GPU-seconds of discarded training work
  double mean_recovery_seconds = 0.0;      ///< fault impact -> victim job running again
  /// Useful iteration work over all iteration work executed (== 1.0 in a
  /// fault-free run; lost work = rollbacks + discarded in-flight fractions).
  double goodput = 1.0;

  // -- recovery policies (sim/health.hpp; all zero while disabled) --
  std::size_t quarantines = 0;             ///< servers placed in quarantine
  std::size_t quarantine_valve_saves = 0;  ///< quarantines vetoed by the capacity valve
  std::size_t task_retries = 0;            ///< backoff re-admissions scheduled
  double backoff_delay_seconds = 0.0;      ///< total backoff delay imposed
  std::size_t jobs_failed_permanent = 0;   ///< jobs that exhausted their retry budget
  std::size_t crashes_absorbed = 0;        ///< crashes of quarantined/capped empty servers
  double wasted_work_avoided_gpu_seconds = 0.0;  ///< estimated loss those crashes skipped

  // -- determinism fingerprint (snapshot/restore contract) --
  std::size_t events_processed = 0;        ///< events the engine dispatched
  /// Chained FNV-1a over every processed event's identity
  /// (SimEngine::event_stream_hash). Two runs of the same seed — including
  /// one resumed from a snapshot — must agree exactly.
  std::uint64_t event_stream_hash = 0;

  // -- scheduler hot-path instrumentation (see DESIGN.md) --
  std::size_t sched_rounds = 0;           ///< scheduling rounds executed
  std::size_t candidates_scanned = 0;     ///< servers examined during host choice
  /// Equal to candidates_scanned: the linear funnel examines the whole
  /// underloaded partition. Kept for the CSV and benchmark readers.
  std::size_t candidates_linear = 0;
  /// Counters of the removed bucketed placement index; always 0. Kept only
  /// because the benchmark harness still reports them.
  std::size_t pindex_queries = 0;
  std::size_t pindex_servers_pruned = 0;
  std::size_t pindex_servers_bypassed = 0;

  // -- link contention (sim/link_model.hpp; zero while the feature is off) --
  /// Cross-server communication seconds charged under the link model
  /// (fair-share comm time summed over iterations and all-reduce rounds).
  double link_busy_seconds = 0.0;
  /// Communication seconds lost to link sharing: fair-share comm time
  /// minus what the uncongested static bandwidths would have cost.
  double contention_slowdown_seconds = 0.0;
  /// Scheduler-applied communication-phase-offset changes (CASSINI
  /// interleaving; each hit re-phased one job's comm window).
  std::size_t phase_offset_hits = 0;

  // -- prediction service (predict/service.hpp) --
  std::size_t fits_cold = 0;           ///< curve fits from the basis' init point
  std::size_t fits_warm = 0;           ///< fits seeded from a previous chain link
  std::size_t prediction_cache_hits = 0;  ///< memo / stored-link reuse (no fitting at all)
  std::size_t nm_objective_evals = 0;  ///< residual evaluations across all fits and probes

  bool operator==(const DeterministicMetrics&) const = default;
};

/// A run's metrics: the deterministic fields plus three real-clock ones,
/// which are not reproducible even between two serial runs of one seed,
/// and the comm-memo counters, which count this process's cache (a
/// snapshot restore empties it).
struct RunMetrics : DeterministicMetrics {
  double sched_overhead_ms = 0.0;  ///< mean wall-clock per scheduling round (h)
  std::size_t comm_cache_hits = 0;    ///< per-(task, server) comm-memo hits
  std::size_t comm_cache_misses = 0;  ///< comm-memo rebuilds
  /// Wall-clock spent fitting/combining curve predictions.
  double fit_wall_ms = 0.0;
  /// Wall-clock of the whole run() event loop (0 when the engine was
  /// stepped manually); fit_wall_ms / run_wall_ms is the predictor's
  /// runtime share, gated in bench_largescale.
  double run_wall_ms = 0.0;

  double average_jct_minutes() const { return jct_minutes.mean(); }
  double average_waiting_seconds() const { return waiting_seconds.mean(); }

  /// One-line human-readable summary.
  std::string summary() const;
};

/// Bitwise equality over every simulation-derived field — the determinism
/// contract the parallel experiment runner is held to (a run must not
/// depend on what else executes concurrently). It compares the
/// DeterministicMetrics base whole, so it excludes exactly the three
/// real-clock fields (sched_overhead_ms, fit_wall_ms and run_wall_ms) and
/// the comm-memo counters.
inline bool deterministic_equal(const RunMetrics& a, const RunMetrics& b) {
  return static_cast<const DeterministicMetrics&>(a) == b;
}

}  // namespace mlfs
