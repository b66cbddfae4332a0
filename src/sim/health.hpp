// Failure-aware recovery policies (robustness extension on top of the
// fault-injection subsystem; see DESIGN.md "Recovery policies").
//
// Four opt-in mechanisms turn the fault model from a pure stressor into
// something the scheduler mitigates:
//  * server health tracking — per-server exponentially-decayed crash/kill
//    score plus an observed-MTBF estimator fed by the fault events;
//  * quarantine with probation — servers whose score crosses a threshold
//    are excluded from the shared placement funnel for a backoff-growing
//    window, then probationally re-admitted under a task cap, guarded by
//    a safety valve that never quarantines below a minimum active
//    capacity;
//  * retry budgets + jittered exponential backoff — fault-killed tasks
//    re-enter the queue after a backoff delay instead of instantly, and a
//    job that exhausts its retry budget becomes failed-permanent
//    (JobState::Failed);
//  * adaptive checkpointing — per-job checkpoint interval from the
//    Young/Daly approximation sqrt(2 · MTBF · checkpoint_cost) using the
//    live MTBF estimate.
//
// Everything defaults off: a default RecoveryConfig leaves the engine
// bit-identical to a run without this subsystem (the determinism and
// golden-hash tests pin it).
#pragma once

#include <cstddef>
#include <vector>

#include "common/binio.hpp"
#include "common/sim_time.hpp"
#include "workload/ids.hpp"

namespace mlfs {

/// Opt-in recovery policies. `enabled` is the master switch: when false the
/// engine never consults the tracker, draws no recovery randomness, and
/// behaves bitwise-identically to a build without the subsystem.
struct RecoveryConfig {
  bool enabled = false;

  // -- server health score (exponentially decayed event count) --
  /// A crash adds 1.0 to the server's health score; a transient task kill
  /// adds this much (kills are weaker evidence of a bad machine).
  double kill_weight = 0.25;
  /// Half-life of the health score, hours: events older than a few
  /// half-lives stop counting against a server.
  double score_halflife_hours = 6.0;

  // -- quarantine / probation --
  bool quarantine_enabled = true;
  /// Score at or above which a recovering server is quarantined instead of
  /// re-admitted to the placement funnel.
  double quarantine_score_threshold = 2.0;
  /// First quarantine window, minutes; each subsequent quarantine of the
  /// same server multiplies the window by `quarantine_backoff_factor`, up
  /// to `quarantine_max_minutes`.
  double quarantine_base_minutes = 30.0;
  double quarantine_backoff_factor = 2.0;
  double quarantine_max_minutes = 480.0;
  /// After the quarantine window the server serves a probation period
  /// under a placement cap; surviving it crash-free restores full service.
  double probation_minutes = 60.0;
  int probation_task_cap = 1;
  /// Safety valve: quarantining never drops the active (up and
  /// not-quarantined) server count below
  /// max(1, ceil(min_active_fraction × server_count)).
  double min_active_fraction = 0.75;

  // -- retry budget + backoff re-admission --
  bool retry_backoff_enabled = true;
  /// Fault-caused rollbacks a job may absorb before it is marked
  /// failed-permanent; 0 = unlimited.
  int retry_budget = 0;
  /// Backoff before a fault-killed task re-enters the queue:
  /// min(base · factor^retries, max) · (1 + jitter · U[0,1)).
  double backoff_base_seconds = 30.0;
  double backoff_factor = 2.0;
  double backoff_max_seconds = 1800.0;
  double backoff_jitter = 0.25;

  // -- adaptive checkpointing --
  /// Replace FaultConfig::checkpoint_interval_iterations with the
  /// Young/Daly interval computed from the observed MTBF. Checkpointing
  /// stops being free: every checkpointed iteration is charged
  /// `checkpoint_cost_seconds`.
  bool adaptive_checkpoint = false;
  double checkpoint_cost_seconds = 2.0;
  int max_checkpoint_interval = 50;

  // -- fault-domain placement --
  /// Penalize packing a gang into one rack (PlacementParams::spread_racks
  /// is derived from this at request-build time; see exp/runner.cpp).
  bool spread_placement = false;

  /// Throws ContractViolation on nonsensical values (negative rates,
  /// non-positive windows, jitter outside [0, 1], ...).
  void validate() const;
};

/// Backoff before retry `prior_retries + 1` (0-based count of retries the
/// job has already absorbed). `jitter_u` is a uniform [0,1) draw supplied
/// by the caller so the schedule itself stays a pure function.
double backoff_delay_seconds(const RecoveryConfig& config, int prior_retries, double jitter_u);

/// Young/Daly optimal checkpoint period sqrt(2 · MTBF · cost), seconds.
/// Returns 0 when either input is non-positive (no estimate).
double young_daly_interval_seconds(double mtbf_seconds, double checkpoint_cost_seconds);

/// The Young/Daly period expressed in whole iterations of
/// `iteration_seconds` each, clamped to [1, max_interval].
int young_daly_checkpoint_iterations(double mtbf_seconds, double checkpoint_cost_seconds,
                                     double iteration_seconds, int max_interval);

enum class ServerHealth { Healthy, Quarantined, Probation };
constexpr ServerHealth enum_last(ServerHealth) { return ServerHealth::Probation; }

/// Per-server health bookkeeping driven by the engine's fault events.
/// Placement-side effects are expressed as placement-cap changes
/// (Cluster::set_placement_cap): -1 = unrestricted, 0 = quarantined,
/// k > 0 = probation cap.
class ServerHealthTracker {
 public:
  ServerHealthTracker(const RecoveryConfig& config, std::size_t server_count);

  /// A crash of `server` at `now` (closes its uptime interval, bumps the
  /// MTBF estimator, adds 1.0 to the decayed score).
  void record_crash(ServerId server, SimTime now);
  /// A transient task kill hosted on `server` (adds `kill_weight`).
  void record_task_kill(ServerId server, SimTime now);
  /// The server came back up at `now` (reopens its uptime interval).
  void record_recovery(ServerId server, SimTime now);

  /// Decides, at re-admission (or after a kill burst), whether `server`
  /// should be quarantined: score above threshold AND the safety valve
  /// allows losing one more active server. On success the server is
  /// Quarantined until now + its (backoff-grown) window and the call
  /// returns true; the caller applies the placement cap.
  bool try_quarantine(ServerId server, SimTime now);

  /// One placement-cap change the engine must apply.
  struct CapChange {
    ServerId server;
    int cap;  ///< -1 unrestricted, 0 none, k probation cap
  };
  /// Advances the quarantine → probation → healthy state machine to `now`
  /// and returns the cap changes to apply, in ascending server order.
  std::vector<CapChange> advance(SimTime now);

  /// Observed mean time between crashes, seconds, across the fleet. Falls
  /// back to hours(fallback_mtbf_hours) until at least 3 crashes have been
  /// observed; 0 when there is no fallback either.
  double observed_mtbf_seconds(double fallback_mtbf_hours) const;

  ServerHealth health(ServerId server) const { return state_[server].health; }
  /// The placement cap the server's current health state implies
  /// (Cluster::set_placement_cap semantics).
  int placement_cap_for(ServerId server) const;
  double score(ServerId server, SimTime now) const;
  std::size_t quarantines() const { return quarantines_; }
  /// Times the safety valve vetoed a quarantine.
  std::size_t valve_saves() const { return valve_saves_; }

  /// Snapshot support: serializes/restores every per-server EWMA score,
  /// quarantine window, uptime interval, and the fleet-wide counters —
  /// the scores decay lazily (score_time), so the pair must round-trip
  /// bit-exactly for post-restore decay arithmetic to match.
  void save_state(io::BinWriter& w) const;
  void restore_state(io::BinReader& r);

 private:
  struct ServerState {
    ServerHealth health = ServerHealth::Healthy;
    double score = 0.0;         ///< decayed event count as of score_time
    SimTime score_time = 0.0;   ///< when `score` was last brought current
    bool up = true;
    SimTime up_since = 0.0;
    SimTime window_until = 0.0;  ///< quarantine or probation end
    int quarantine_count = 0;    ///< drives the window backoff

    /// Snapshot order.
    static constexpr auto fields() {
      using S = ServerState;
      return std::tuple{&S::health,   &S::score,        &S::score_time,      &S::up,
                        &S::up_since, &S::window_until, &S::quarantine_count};
    }
  };

  void decay_score(ServerState& s, SimTime now) const;
  std::size_t active_servers() const;

  RecoveryConfig config_;
  std::vector<ServerState> state_;
  double uptime_sum_ = 0.0;  ///< closed up-intervals, seconds
  std::size_t crashes_ = 0;
  std::size_t quarantines_ = 0;
  std::size_t valve_saves_ = 0;
};

}  // namespace mlfs
