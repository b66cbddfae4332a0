// The MLFS scheduler facade, staging MLF-H → MLF-RL exactly as §3.4
// describes: the heuristic drives first and every placement it makes is
// logged as an imitation sample; once enough samples accumulate the policy
// network is behaviour-cloned from them and MLF-RL takes over queue
// placement, continuing to improve online with REINFORCE on the Eq. 7
// reward. Overload relief (victim selection + destination) stays on the
// §3.3.3 machinery in both phases.
//
// The same class realizes the paper's three series:
//   MLF-H : config.heuristic_only = true (never switches)
//   MLF-RL: defaults (switches after warm-up)
//   MLFS  : MLF-RL + an MlfC load controller registered with the engine
#pragma once

#include "core/featurizer.hpp"
#include "core/mlf_h.hpp"
#include "core/reward.hpp"
#include "rl/imitation.hpp"
#include "rl/reinforce.hpp"

namespace mlfs::core {

class MlfsScheduler : public Scheduler {
 public:
  /// `display_name` overrides the reported name (e.g. "MLFS" when paired
  /// with MLF-C); empty picks "MLF-H" or "MLF-RL" from the config.
  explicit MlfsScheduler(const MlfsConfig& config, std::string display_name = "");

  std::string name() const override;
  void schedule(SchedulerContext& ctx) override;
  void on_job_complete(const Job& job, SimTime now) override;

  /// Snapshot support: the facade RNG, the RL phase flag, the open episode
  /// and round counters, the agent's full state (weights + optimizer +
  /// sampling RNG), the imitation log (empty once cloned) and the
  /// clone-time scalars, the reward window, and the wrapped heuristic's
  /// counters — everything that decides future placements.
  void save_state(std::ostream& os) const override;
  void restore_state(std::istream& is) override;
  /// v5–v9 payloads carry MLF-H's caches (skipped). Snapshot v5 also
  /// carried the imitation log for the whole run. Once RL is active the
  /// clone-time scalars are derived from it — the count, and the restored
  /// policy's greedy accuracy on it — and the log is dropped.
  void restore_legacy_state(std::istream& is, std::uint32_t version) override;
  SchedStats sched_stats() const override { return heuristic_.sched_stats(); }
  void audit_invariants(const Cluster& cluster, SimTime now) const override {
    heuristic_.audit_invariants(cluster, now);
  }

  bool rl_active() const { return rl_active_; }
  /// Imitation samples logged so far; once the policy is cloned, the
  /// number it was cloned from (the log itself is then cleared).
  std::size_t imitation_samples() const {
    return rl_active_ ? cloned_samples_ : imitation_.size();
  }
  /// The cloned policy's greedy accuracy on its training set, recorded at
  /// clone time (0 before cloning).
  double imitation_accuracy() const { return cloned_accuracy_; }
  MlfH& heuristic() { return heuristic_; }
  const MlfsConfig& config() const { return config_; }

 private:
  void record_imitation(SchedulerContext& ctx, TaskId task, ServerId chosen);
  void maybe_switch_to_rl();
  void schedule_with_policy(SchedulerContext& ctx);
  /// Records the clone-time scalars from the current log and agent, then
  /// clears the log.
  void retire_imitation_log();
  void restore(std::istream& is, std::uint32_t version);

  MlfsConfig config_;
  std::string display_name_;
  MlfH heuristic_;
  MlfRlFeaturizer featurizer_;
  rl::ReinforceAgent agent_;
  rl::ImitationDataset imitation_;
  std::size_t cloned_samples_ = 0;
  double cloned_accuracy_ = 0.0;
  RewardTracker reward_;
  Rng rng_;

  rl::Episode episode_;
  std::size_t decisions_this_round_ = 0;
  std::size_t rounds_since_update_ = 0;
  bool rl_active_ = false;
};

}  // namespace mlfs::core
