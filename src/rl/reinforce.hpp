// REINFORCE with a learned value baseline — the policy-gradient method the
// paper cites ([51], Sutton et al.) as the training algorithm of the DNN
// agent in MLF-RL. The agent owns a softmax policy network and a value
// network over the same state features. It is the only trainable policy
// agent: MLF-RL (core/mlfs.hpp) and the RL baseline (sched/rl_baseline.hpp)
// both hold one.
#pragma once

#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rl/returns.hpp"

namespace mlfs::rl {

/// Statistics from one update() call, for training diagnostics.
struct UpdateStats {
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double mean_return = 0.0;
  double mean_entropy = 0.0;
};

struct ReinforceConfig {
  std::size_t state_dim = 0;
  std::size_t action_dim = 0;
  std::vector<std::size_t> hidden = {64, 64};
  double policy_lr = 1e-3;
  double value_lr = 1e-3;
  double eta = 0.95;           ///< future-reward discount (paper default η=0.95)
  double entropy_bonus = 0.01; ///< exploration regularizer
  double max_grad_norm = 5.0;
  std::uint64_t seed = 1;
};

/// Softmax-policy REINFORCE agent with a value-function baseline.
class ReinforceAgent {
 public:
  explicit ReinforceAgent(const ReinforceConfig& config);

  /// Samples an action from pi(.|state). `mask`, when given, marks valid
  /// actions: invalid logits are floored to -inf before sampling. At least
  /// one action must be valid.
  int act(std::span<const double> state, std::span<const bool> mask = {});

  /// Greedy argmax action (post-training inference).
  int act_greedy(std::span<const double> state, std::span<const bool> mask = {});

  /// Action probabilities for a state (diagnostics / tests).
  std::vector<double> action_probabilities(std::span<const double> state);

  /// One policy-gradient update from complete episodes.
  UpdateStats update(std::span<const Episode> episodes);

  /// Supervised pre-training on (state, expert action) pairs; returns the
  /// mean cross-entropy over the pass. Used for behaviour cloning from
  /// MLF-H decisions before the RL phase (paper §3.4: "uses the data
  /// [from MLF-H] to train MLF-RL").
  double imitation_step(const nn::Matrix& states, std::span<const int> actions);

  const ReinforceConfig& config() const { return config_; }

  /// Network parameters only (a trained-policy checkpoint).
  void save(std::ostream& os) const;
  void load(std::istream& is);

  /// Full dynamic state for bit-identical engine resume (snapshot support):
  /// network parameters, optimizer moments, AND the action-sampling RNG —
  /// unlike save()/load(), which checkpoint parameters only.
  void save_state(io::BinWriter& w) const;
  void restore_state(io::BinReader& r);

 private:
  nn::Matrix states_to_matrix(std::span<const Episode> episodes) const;
  int sample_or_argmax(std::span<const double> state, std::span<const bool> mask, bool greedy);

  ReinforceConfig config_;
  Rng rng_;
  nn::Mlp policy_;
  nn::Mlp value_;
  nn::Adam policy_opt_;
  nn::Adam value_opt_;
  std::vector<double> logits_;  ///< sample_or_argmax scratch
};

}  // namespace mlfs::rl
