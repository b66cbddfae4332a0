// All tunable parameters of MLFS with the paper's §4.1 defaults:
// α=0.3, γ=0.8, γd=0.3, γr=0.3, γw=0.35, β=(0.5,0.55,0.25,0.15,0.15),
// η=0.95, hr=hs=90%, ps=10%. Ablation switches correspond to the §4.2.2
// component experiments (Figs. 6-9).
#pragma once

#include <cstdint>
#include <vector>

namespace mlfs::core {

struct PriorityParams {
  double alpha = 0.3;    ///< Eq. 6 blend: weight of ML features vs computation features
  double gamma = 0.8;    ///< Eq. 3/5 dependency discount over children
  // The paper's §4.1 values (γd=0.3, γr=0.3, γw=0.35) were tuned for the
  // authors' AWS testbed; the paper notes these "are determined by the
  // administrator ... according to the particular cluster environment".
  // The defaults below are re-tuned for this simulator (see
  // EXPERIMENTS.md, calibration).
  double gamma_d = 0.3;  ///< Eq. 4 deadline-closeness weight
  double gamma_r = 0.6;  ///< Eq. 4 remaining-time weight
  double gamma_w = 0.1;  ///< Eq. 4 waiting-time weight

  // Ablations (Fig. 6): drop the urgency coefficient L_J from Eq. 2 /
  // the deadline term from Eq. 4.
  bool use_urgency = true;
  bool use_deadline_term = true;
};

struct PlacementParams {
  /// Fig. 7 ablation: include the communication-volume dimension u_BW,V in
  /// the ideal-virtual-server match (§3.3.2).
  bool use_bandwidth = true;

  /// Extension beyond the paper (its §5 limitation: "only considers the
  /// bandwidth cost without considering the cluster network topology"):
  /// when on, the communication-affinity dimension also credits peers in
  /// the *same rack* at `rack_affinity` weight, steering gangs away from
  /// the oversubscribed inter-rack core. No effect on flat clusters.
  bool use_topology = false;
  double rack_affinity = 0.5;

  /// Capacity of the per-(task, server) communication-volume memo (keyed on
  /// the owning job's communication version, see DESIGN.md "Scheduler hot
  /// path"), in tasks: one slot holds one task's per-server volume vector
  /// (server_count doubles). Eviction is deterministic round-robin, so the
  /// memory bound is `comm_memo_slots × server_count × 8` bytes even with
  /// 100k+ queued tasks at Philly scale. Smaller capacities only trade hits
  /// for misses — decisions are unchanged.
  std::size_t comm_memo_slots = 4096;

  /// Fault-domain awareness (recovery policies, DESIGN.md "Recovery
  /// policies"): add a rack-spread dimension to the ideal-virtual-server
  /// distance — the fraction of the task's already-placed job peers in the
  /// candidate's rack, weighted by `spread_penalty` (ideal = 0, no peers
  /// co-racked). Pulls gangs across fault domains so one rack outage
  /// cannot erase a whole job. On a flat cluster every candidate shares
  /// rack 0, so the term is a constant shift and no decision changes.
  bool spread_racks = false;
  double spread_penalty = 0.5;
};

struct MigrationParams {
  bool enabled = true;  ///< Fig. 8 ablation: task migration on/off
  double ps = 0.10;     ///< §3.3.3: select victims among the lowest-priority p_s fraction
  /// Cap on victims per server per round (keeps one round bounded; the
  /// §3.3.3 loop "repeat until not overloaded" continues next tick).
  int max_victims_per_server = 8;
};

/// MLF-RL's policy: REINFORCE with a value baseline, the policy-gradient
/// method §3.4 cites ([51]).
struct RlParams {
  /// Heuristic warm-up: MLF-H drives and logs decisions until this many
  /// imitation samples are collected, then the policy is cloned and MLF-RL
  /// takes over (§3.4: "initially runs MLF-H ... then switches").
  std::size_t warmup_samples = 2000;
  std::size_t imitation_epochs = 4;
  std::size_t imitation_batch = 64;
  std::size_t candidate_count = 4;  ///< K candidate servers per decision
  std::size_t update_every_rounds = 16;
  double eta = 0.95;  ///< future-reward discount η (§4.1)
  /// Reward weights β1..β5 for the five objectives of Eq. 1 (§4.1).
  double beta1 = 0.5;   ///< 1 / average JCT
  double beta2 = 0.55;  ///< deadline guarantee
  double beta3 = 0.25;  ///< 1 / bandwidth
  double beta4 = 0.15;  ///< accuracy guarantee
  double beta5 = 0.15;  ///< average accuracy
  std::vector<std::size_t> hidden = {48, 48};
  std::uint64_t seed = 13;
};

struct LoadControlParams {
  bool enabled = true;  ///< Fig. 9 ablation: MLF-C on/off
  double hs = 0.9;      ///< cluster overload threshold on O_c (§3.5)
};

struct MlfsConfig {
  PriorityParams priority;
  PlacementParams placement;
  MigrationParams migration;
  RlParams rl;
  LoadControlParams load_control;
  /// Run MLF-H only (never switch to the RL policy) — the "MLF-H" series
  /// of Figs. 4/5.
  bool heuristic_only = false;
};

}  // namespace mlfs::core
