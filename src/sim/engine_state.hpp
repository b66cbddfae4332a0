// The engine's persisted state records (see DESIGN.md §5 and §6c). Each
// declares its fields once, in snapshot order (io::write_fields /
// io::write_columns), and a static_assert fails the build when a member is
// added without being listed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <tuple>

#include "common/binio.hpp"
#include "common/sim_time.hpp"

namespace mlfs {

/// One job's engine-side runtime record. The defaults are a job's state
/// when it is registered, so growing the per-job vector is one statement.
struct JobRuntime {
  std::uint64_t epoch = 0;  ///< bumped on abort/start: stale IterationDone guard
  SimTime waiting_since = 0.0;  ///< valid while Waiting
  SimTime partial_since = -1.0;  ///< -1 = not partially placed
  bool deadline_recorded = false;
  // Checkpoint/resume model: an aborted iteration keeps the fraction of
  // progress it had made; the job's next iteration start subtracts it.
  SimTime iter_started = 0.0;  ///< start of the in-flight iteration
  double iter_duration = 0.0;  ///< its planned duration
  double resume_credit = 0.0;  ///< completed fraction in [0, 0.95]
  /// Fault-impact time for the recovery-latency metric (-1 = not impacted).
  SimTime fault_stopped_since = -1.0;
  int retries_used = 0;  ///< fault rollbacks absorbed against the retry budget

  /// Snapshot column order (the engine section interleaves the per-server
  /// and per-task columns after fields 7 and 8).
  static constexpr auto fields() {
    using R = JobRuntime;
    return std::tuple{&R::epoch, &R::waiting_since, &R::partial_since, &R::deadline_recorded,
                      &R::iter_started, &R::iter_duration, &R::resume_credit,
                      &R::fault_stopped_since, &R::retries_used};
  }
};
static_assert(io::lists_every_field<JobRuntime>);

/// The engine's run-long scalars: the counters and accumulators behind
/// RunMetrics plus the watchdog and tick bookkeeping. Snapshotted whole as
/// the engine section's tail.
struct EngineCounters {
  std::size_t jobs_completed = 0;
  std::size_t jobs_failed = 0;
  std::size_t overload_occurrences = 0;
  std::size_t migrations = 0;
  std::size_t preemptions = 0;
  std::size_t partial_releases = 0;
  std::size_t watchdog_evictions = 0;
  std::size_t iterations_run = 0;
  std::size_t server_failures = 0;
  std::size_t rack_outages = 0;
  std::size_t task_kills = 0;
  std::size_t crash_evictions = 0;
  std::size_t retry_backoffs = 0;
  double backoff_delay_seconds_total = 0.0;
  std::size_t crashes_absorbed = 0;   ///< crashes of capped servers with no victims
  std::size_t victimful_crashes = 0;  ///< crashes that evicted at least one task
  std::size_t iterations_rolled_back = 0;
  double inflight_work_lost_iterations = 0.0;  ///< discarded partial-iteration fractions
  double work_lost_gpu_seconds = 0.0;
  double recovery_seconds_sum = 0.0;
  std::size_t recoveries = 0;
  double sched_wall_ms_total = 0.0;  ///< real clock, like RunMetrics::sched_overhead_ms
  std::size_t sched_rounds = 0;
  // Link-contention accounting (all stay zero while
  // ClusterConfig::link_contention is off — the zero-when-disabled audit).
  double link_busy_seconds = 0.0;  ///< cross-server comm seconds under the link model
  double contention_slowdown_seconds = 0.0;  ///< comm seconds lost to link sharing
  std::uint64_t phase_offset_hits = 0;  ///< scheduler phase-offset changes applied
  int stall_ticks = 0;
  bool tick_armed = false;

  /// Snapshot order.
  static constexpr auto fields() {
    using C = EngineCounters;
    return std::tuple{&C::jobs_completed, &C::jobs_failed, &C::overload_occurrences,
                      &C::migrations, &C::preemptions, &C::partial_releases,
                      &C::watchdog_evictions, &C::iterations_run, &C::server_failures,
                      &C::rack_outages, &C::task_kills, &C::crash_evictions,
                      &C::retry_backoffs, &C::backoff_delay_seconds_total,
                      &C::crashes_absorbed, &C::victimful_crashes, &C::iterations_rolled_back,
                      &C::inflight_work_lost_iterations, &C::work_lost_gpu_seconds,
                      &C::recovery_seconds_sum, &C::recoveries, &C::sched_wall_ms_total,
                      &C::sched_rounds, &C::link_busy_seconds, &C::contention_slowdown_seconds,
                      &C::phase_offset_hits, &C::stall_ticks, &C::tick_armed};
  }
};
static_assert(io::lists_every_field<EngineCounters>);

}  // namespace mlfs
