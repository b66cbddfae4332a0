#include "sim/health.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"

namespace mlfs {

void RecoveryConfig::validate() const {
  if (!enabled) return;
  if (kill_weight < 0.0) throw ContractViolation("RecoveryConfig: kill_weight must be >= 0");
  if (score_halflife_hours <= 0.0) {
    throw ContractViolation("RecoveryConfig: score_halflife_hours must be > 0");
  }
  if (quarantine_enabled) {
    if (quarantine_score_threshold <= 0.0) {
      throw ContractViolation("RecoveryConfig: quarantine_score_threshold must be > 0");
    }
    if (quarantine_base_minutes <= 0.0) {
      throw ContractViolation("RecoveryConfig: quarantine_base_minutes must be > 0");
    }
    if (quarantine_backoff_factor < 1.0) {
      throw ContractViolation("RecoveryConfig: quarantine_backoff_factor must be >= 1");
    }
    if (quarantine_max_minutes < quarantine_base_minutes) {
      throw ContractViolation(
          "RecoveryConfig: quarantine_max_minutes must be >= quarantine_base_minutes");
    }
    if (probation_minutes < 0.0) {
      throw ContractViolation("RecoveryConfig: probation_minutes must be >= 0");
    }
    if (probation_task_cap < 0) {
      throw ContractViolation("RecoveryConfig: probation_task_cap must be >= 0");
    }
    if (min_active_fraction < 0.0 || min_active_fraction > 1.0) {
      throw ContractViolation("RecoveryConfig: min_active_fraction must be in [0, 1]");
    }
  }
  if (retry_backoff_enabled) {
    if (retry_budget < 0) throw ContractViolation("RecoveryConfig: retry_budget must be >= 0");
    if (backoff_base_seconds <= 0.0) {
      throw ContractViolation("RecoveryConfig: backoff_base_seconds must be > 0");
    }
    if (backoff_factor < 1.0) {
      throw ContractViolation("RecoveryConfig: backoff_factor must be >= 1");
    }
    if (backoff_max_seconds < backoff_base_seconds) {
      throw ContractViolation(
          "RecoveryConfig: backoff_max_seconds must be >= backoff_base_seconds");
    }
    if (backoff_jitter < 0.0 || backoff_jitter > 1.0) {
      throw ContractViolation("RecoveryConfig: backoff_jitter must be in [0, 1]");
    }
  }
  if (adaptive_checkpoint) {
    if (checkpoint_cost_seconds <= 0.0) {
      throw ContractViolation(
          "RecoveryConfig: adaptive checkpointing needs checkpoint_cost_seconds > 0");
    }
    if (max_checkpoint_interval < 1) {
      throw ContractViolation("RecoveryConfig: max_checkpoint_interval must be >= 1");
    }
  }
}

double backoff_delay_seconds(const RecoveryConfig& config, int prior_retries, double jitter_u) {
  MLFS_EXPECT(prior_retries >= 0);
  MLFS_EXPECT(jitter_u >= 0.0 && jitter_u < 1.0);
  double delay = config.backoff_base_seconds;
  // Multiply instead of pow(): retries are small integers and this keeps
  // the schedule exact for factor tests.
  for (int i = 0; i < prior_retries && delay < config.backoff_max_seconds; ++i) {
    delay *= config.backoff_factor;
  }
  delay = std::min(delay, config.backoff_max_seconds);
  return delay * (1.0 + config.backoff_jitter * jitter_u);
}

double young_daly_interval_seconds(double mtbf_seconds, double checkpoint_cost_seconds) {
  if (mtbf_seconds <= 0.0 || checkpoint_cost_seconds <= 0.0) return 0.0;
  return std::sqrt(2.0 * mtbf_seconds * checkpoint_cost_seconds);
}

int young_daly_checkpoint_iterations(double mtbf_seconds, double checkpoint_cost_seconds,
                                     double iteration_seconds, int max_interval) {
  MLFS_EXPECT(max_interval >= 1);
  const double period = young_daly_interval_seconds(mtbf_seconds, checkpoint_cost_seconds);
  if (period <= 0.0 || iteration_seconds <= 0.0) return 1;
  const double iters = std::lround(period / iteration_seconds);
  return static_cast<int>(std::clamp(iters, 1.0, static_cast<double>(max_interval)));
}

ServerHealthTracker::ServerHealthTracker(const RecoveryConfig& config,
                                         std::size_t server_count)
    : config_(config), state_(server_count) {}

void ServerHealthTracker::decay_score(ServerState& s, SimTime now) const {
  if (now <= s.score_time) return;
  const double halflife = hours(config_.score_halflife_hours);
  s.score *= std::pow(0.5, (now - s.score_time) / halflife);
  s.score_time = now;
}

void ServerHealthTracker::record_crash(ServerId server, SimTime now) {
  ServerState& s = state_[server];
  decay_score(s, now);
  s.score += 1.0;
  if (s.up) {
    uptime_sum_ += now - s.up_since;
    s.up = false;
  }
  ++crashes_;
  // A crash during probation is the server failing its trial; the next
  // try_quarantine (at re-admission) will see the score and re-quarantine
  // with a longer window. Clear the probation window so a clean recovery
  // below the threshold does not inherit a stale timer.
  if (s.health == ServerHealth::Probation) s.health = ServerHealth::Healthy;
}

void ServerHealthTracker::record_task_kill(ServerId server, SimTime now) {
  ServerState& s = state_[server];
  decay_score(s, now);
  s.score += config_.kill_weight;
}

void ServerHealthTracker::record_recovery(ServerId server, SimTime now) {
  ServerState& s = state_[server];
  if (!s.up) {
    s.up = true;
    s.up_since = now;
  }
}

std::size_t ServerHealthTracker::active_servers() const {
  std::size_t active = 0;
  for (const ServerState& s : state_) {
    if (s.up && s.health != ServerHealth::Quarantined) ++active;
  }
  return active;
}

bool ServerHealthTracker::try_quarantine(ServerId server, SimTime now) {
  if (!config_.quarantine_enabled) return false;
  ServerState& s = state_[server];
  if (s.health == ServerHealth::Quarantined) return true;  // already held
  decay_score(s, now);
  if (s.score < config_.quarantine_score_threshold) return false;
  const auto total = static_cast<double>(state_.size());
  const auto min_active = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(config_.min_active_fraction * total)));
  // The candidate counts as active right now (it is up, or about to come
  // up); quarantining it removes one active server.
  if (active_servers() <= min_active) {
    ++valve_saves_;
    return false;
  }
  double window = minutes(config_.quarantine_base_minutes);
  for (int i = 0; i < s.quarantine_count && window < minutes(config_.quarantine_max_minutes);
       ++i) {
    window *= config_.quarantine_backoff_factor;
  }
  window = std::min(window, minutes(config_.quarantine_max_minutes));
  ++s.quarantine_count;
  s.health = ServerHealth::Quarantined;
  s.window_until = now + window;
  ++quarantines_;
  return true;
}

std::vector<ServerHealthTracker::CapChange> ServerHealthTracker::advance(SimTime now) {
  std::vector<CapChange> changes;
  for (ServerId id = 0; id < state_.size(); ++id) {
    ServerState& s = state_[id];
    if (s.health == ServerHealth::Quarantined && now >= s.window_until) {
      s.health = ServerHealth::Probation;
      s.window_until = now + minutes(config_.probation_minutes);
      changes.push_back({id, config_.probation_task_cap});
    } else if (s.health == ServerHealth::Probation && now >= s.window_until) {
      // Survived probation (a crash would have reset health to Healthy and
      // the placement funnel already excludes down servers).
      s.health = ServerHealth::Healthy;
      changes.push_back({id, -1});
    }
  }
  return changes;
}

double ServerHealthTracker::observed_mtbf_seconds(double fallback_mtbf_hours) const {
  if (crashes_ >= 3 && uptime_sum_ > 0.0) {
    return uptime_sum_ / static_cast<double>(crashes_);
  }
  return fallback_mtbf_hours > 0.0 ? hours(fallback_mtbf_hours) : 0.0;
}

int ServerHealthTracker::placement_cap_for(ServerId server) const {
  switch (state_[server].health) {
    case ServerHealth::Healthy: return -1;
    case ServerHealth::Quarantined: return 0;
    case ServerHealth::Probation: return config_.probation_task_cap;
  }
  return -1;
}

double ServerHealthTracker::score(ServerId server, SimTime now) const {
  ServerState s = state_[server];
  decay_score(s, now);
  return s.score;
}

void ServerHealthTracker::save_state(io::BinWriter& w) const {
  static_assert(io::lists_every_field<ServerState>);
  w.vec(state_, [&w](const ServerState& s) { io::write_fields(w, s); });
  w.f64(uptime_sum_);
  w.u64(crashes_);
  w.u64(quarantines_);
  w.u64(valve_saves_);
}

void ServerHealthTracker::restore_state(io::BinReader& r) {
  const std::uint64_t count = r.u64();
  MLFS_EXPECT(count == state_.size());  // fleet size is static
  for (ServerState& s : state_) io::read_fields(r, s);
  uptime_sum_ = r.f64();
  crashes_ = static_cast<std::size_t>(r.u64());
  quarantines_ = static_cast<std::size_t>(r.u64());
  valve_saves_ = static_cast<std::size_t>(r.u64());
}

}  // namespace mlfs
