#include "rl/imitation.hpp"

#include <algorithm>
#include <numeric>

#include "common/binio.hpp"

namespace mlfs::rl {

void ImitationDataset::add(std::span<const double> state, int action) {
  MLFS_EXPECT(state.size() == state_dim_);
  states_.insert(states_.end(), state.begin(), state.end());
  actions_.push_back(action);
}

void ImitationDataset::clear() {
  states_ = {};
  actions_ = {};
}

void ImitationDataset::truncate_to_recent(std::size_t max_size) {
  if (actions_.size() <= max_size) return;
  const std::size_t drop = actions_.size() - max_size;
  actions_.erase(actions_.begin(), actions_.begin() + static_cast<std::ptrdiff_t>(drop));
  states_.erase(states_.begin(), states_.begin() + static_cast<std::ptrdiff_t>(drop * state_dim_));
}

double ImitationDataset::train(ReinforceAgent& agent, std::size_t epochs, std::size_t batch_size,
                               Rng& rng) const {
  MLFS_EXPECT(!empty());
  MLFS_EXPECT(batch_size > 0);
  std::vector<std::size_t> order(actions_.size());
  std::iota(order.begin(), order.end(), 0);

  double last_epoch_loss = 0.0;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size(); start += batch_size) {
      const std::size_t n = std::min(batch_size, order.size() - start);
      nn::Matrix batch_states(n, state_dim_);
      std::vector<int> batch_actions(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t idx = order[start + i];
        for (std::size_t j = 0; j < state_dim_; ++j) {
          batch_states.at(i, j) = states_[idx * state_dim_ + j];
        }
        batch_actions[i] = actions_[idx];
      }
      epoch_loss += agent.imitation_step(batch_states, batch_actions);
      ++batches;
    }
    last_epoch_loss = batches > 0 ? epoch_loss / static_cast<double>(batches) : 0.0;
  }
  return last_epoch_loss;
}

double ImitationDataset::evaluate_accuracy(ReinforceAgent& agent) const {
  if (empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    const std::span<const double> state(states_.data() + i * state_dim_, state_dim_);
    if (agent.act_greedy(state) == actions_[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(actions_.size());
}

void ImitationDataset::save_state(io::BinWriter& w) const {
  w.vec_f64(states_);
  w.vec(actions_, [&w](int a) { w.i64(a); });
}

void ImitationDataset::restore_state(io::BinReader& r) {
  states_ = r.vec_f64();
  actions_ = r.vec<int>([&r] { return static_cast<int>(r.i64()); });
  MLFS_EXPECT(states_.size() == actions_.size() * state_dim_);
}

}  // namespace mlfs::rl
