// Common interface of the trainable policy agents (REINFORCE, A2C) so the
// MLF-RL facade can swap training algorithms via configuration.
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "nn/matrix.hpp"
#include "rl/returns.hpp"

namespace mlfs::rl {

/// Statistics from one update() call, for training diagnostics.
struct UpdateStats {
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double mean_return = 0.0;
  double mean_entropy = 0.0;
};

class PolicyAgent {
 public:
  virtual ~PolicyAgent() = default;

  /// Samples an action from pi(.|state). `mask`, when given, marks valid
  /// actions; at least one must be valid.
  virtual int act(std::span<const double> state, std::span<const bool> mask = {}) = 0;

  /// Greedy argmax action (post-training inference).
  virtual int act_greedy(std::span<const double> state, std::span<const bool> mask = {}) = 0;

  virtual std::vector<double> action_probabilities(std::span<const double> state) = 0;

  /// One training update from trajectories.
  virtual UpdateStats update(std::span<const Episode> episodes) = 0;

  /// Supervised behaviour-cloning step; returns the batch cross-entropy.
  virtual double imitation_step(const nn::Matrix& states, std::span<const int> actions) = 0;

  virtual void save(std::ostream& os) const = 0;
  virtual void load(std::istream& is) = 0;

  /// Full dynamic state for bit-identical engine resume (snapshot support):
  /// network parameters, optimizer moments, AND the action-sampling RNG —
  /// unlike save()/load(), which checkpoint parameters only.
  virtual void save_state(io::BinWriter& w) const = 0;
  virtual void restore_state(io::BinReader& r) = 0;
};

}  // namespace mlfs::rl
