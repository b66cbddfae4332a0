// Behaviour-cloning dataset + trainer. MLFS runs MLF-H first and records
// (state, chosen action) pairs; this module fits the policy network on that
// log before the REINFORCE phase takes over (paper §3.4).
#pragma once

#include <span>
#include <vector>

#include "rl/reinforce.hpp"

namespace mlfs::rl {

/// Grows incrementally while the heuristic is driving, then trains an agent.
class ImitationDataset {
 public:
  explicit ImitationDataset(std::size_t state_dim) : state_dim_(state_dim) {}

  void add(std::span<const double> state, int action);

  std::size_t size() const { return actions_.size(); }
  bool empty() const { return actions_.empty(); }
  std::size_t state_dim() const { return state_dim_; }

  /// Drops every sample and releases the storage.
  void clear();

  /// Keeps only the most recent `max_size` samples (bounded memory while
  /// the heuristic phase runs for a long warm-up).
  void truncate_to_recent(std::size_t max_size);

  /// Mini-batched cross-entropy training for `epochs` passes; returns the
  /// final-epoch mean loss. Shuffles with `rng`.
  double train(ReinforceAgent& agent, std::size_t epochs, std::size_t batch_size, Rng& rng) const;

  /// Fraction of samples where the agent's greedy action matches the expert.
  double evaluate_accuracy(ReinforceAgent& agent) const;

  /// Bit-exact dataset round-trip for engine snapshots.
  void save_state(io::BinWriter& w) const;
  void restore_state(io::BinReader& r);

 private:
  std::size_t state_dim_;
  std::vector<double> states_;  // flattened rows of state_dim_
  std::vector<int> actions_;
};

}  // namespace mlfs::rl
