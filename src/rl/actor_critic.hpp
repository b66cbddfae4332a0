// Advantage actor-critic (A2C) — an alternative trainer to REINFORCE for
// the MLF-RL policy. Instead of waiting for complete episodes and using
// full discounted returns, A2C bootstraps from the value network:
//
//   advantage(s_t) = r_t + eta * V(s_{t+1}) - V(s_t)
//
// which cuts gradient variance on long scheduling horizons at the price of
// bootstrap bias. The paper trains its agent with the policy-gradient
// method of [51]; A2C is the standard low-variance refinement and is
// offered as a config switch (see core::RlParams::algorithm).
#pragma once

#include <iosfwd>
#include <span>

#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rl/agent.hpp"
#include "rl/returns.hpp"

namespace mlfs::rl {

struct ActorCriticConfig {
  std::size_t state_dim = 0;
  std::size_t action_dim = 0;
  std::vector<std::size_t> hidden = {64, 64};
  double policy_lr = 1e-3;
  double value_lr = 1e-3;
  double eta = 0.95;            ///< bootstrap discount
  double entropy_bonus = 0.01;
  double max_grad_norm = 5.0;
  std::uint64_t seed = 1;
};

class ActorCriticAgent : public PolicyAgent {
 public:
  explicit ActorCriticAgent(const ActorCriticConfig& config);

  /// Samples an action (same masking semantics as ReinforceAgent::act).
  int act(std::span<const double> state, std::span<const bool> mask = {}) override;
  int act_greedy(std::span<const double> state, std::span<const bool> mask = {}) override;
  std::vector<double> action_probabilities(std::span<const double> state) override;

  /// One A2C update from (possibly truncated) trajectories. The last
  /// transition of each episode is treated as terminal (V(s_T+1) = 0);
  /// pass trajectories truncated at scheduling-round boundaries freely —
  /// bootstrapping makes them usable without waiting for job completion.
  UpdateStats update(std::span<const Episode> episodes) override;

  /// Supervised warm-start (shared imitation path with REINFORCE).
  double imitation_step(const nn::Matrix& states, std::span<const int> actions) override;

  /// Current value estimate V(s) (diagnostics / tests).
  double value_of(std::span<const double> state);

  const ActorCriticConfig& config() const { return config_; }

  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

  void save_state(io::BinWriter& w) const override;
  void restore_state(io::BinReader& r) override;

 private:
  int sample_or_argmax(std::span<const double> state, std::span<const bool> mask, bool greedy);

  ActorCriticConfig config_;
  Rng rng_;
  nn::Mlp policy_;
  nn::Mlp value_;
  nn::Adam policy_opt_;
  nn::Adam value_opt_;
};

}  // namespace mlfs::rl
