#include "rl/actor_critic.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/binio.hpp"
#include "nn/loss.hpp"

namespace mlfs::rl {

namespace {

std::vector<std::size_t> layer_sizes(std::size_t in, const std::vector<std::size_t>& hidden,
                                     std::size_t out) {
  std::vector<std::size_t> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

void apply_mask(std::vector<double>& logits, std::span<const bool> mask) {
  if (mask.empty()) return;
  MLFS_EXPECT(mask.size() == logits.size());
  bool any_valid = false;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    if (mask[i]) {
      any_valid = true;
    } else {
      logits[i] = -std::numeric_limits<double>::infinity();
    }
  }
  MLFS_EXPECT(any_valid);
}

}  // namespace

ActorCriticAgent::ActorCriticAgent(const ActorCriticConfig& config)
    : config_(config),
      rng_(config.seed),
      policy_([&] {
        Rng init = rng_.split();
        return nn::Mlp(layer_sizes(config.state_dim, config.hidden, config.action_dim),
                       nn::Activation::Tanh, init);
      }()),
      value_([&] {
        Rng init = rng_.split();
        return nn::Mlp(layer_sizes(config.state_dim, config.hidden, 1), nn::Activation::Tanh,
                       init);
      }()),
      policy_opt_(policy_.params(), policy_.grads(), config.policy_lr),
      value_opt_(value_.params(), value_.grads(), config.value_lr) {
  MLFS_EXPECT(config.state_dim > 0);
  MLFS_EXPECT(config.action_dim > 0);
  MLFS_EXPECT(config.eta > 0.0 && config.eta <= 1.0);
  policy_opt_.set_max_grad_norm(config.max_grad_norm);
  value_opt_.set_max_grad_norm(config.max_grad_norm);
}

int ActorCriticAgent::sample_or_argmax(std::span<const double> state,
                                       std::span<const bool> mask, bool greedy) {
  MLFS_EXPECT(state.size() == config_.state_dim);
  const nn::Matrix input = nn::Matrix::row({state.begin(), state.end()});
  std::vector<double> logits = policy_.forward(input).raw();
  apply_mask(logits, mask);
  if (greedy) {
    return static_cast<int>(std::max_element(logits.begin(), logits.end()) - logits.begin());
  }
  const double maxv = *std::max_element(logits.begin(), logits.end());
  std::vector<double> probs(logits.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] = std::isinf(logits[i]) ? 0.0 : std::exp(logits[i] - maxv);
    sum += probs[i];
  }
  MLFS_EXPECT(sum > 0.0);
  double r = rng_.uniform() * sum;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    r -= probs[i];
    if (r < 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(probs.size() - 1);
}

int ActorCriticAgent::act(std::span<const double> state, std::span<const bool> mask) {
  return sample_or_argmax(state, mask, false);
}

int ActorCriticAgent::act_greedy(std::span<const double> state, std::span<const bool> mask) {
  return sample_or_argmax(state, mask, true);
}

std::vector<double> ActorCriticAgent::action_probabilities(std::span<const double> state) {
  const nn::Matrix input = nn::Matrix::row({state.begin(), state.end()});
  return nn::softmax(policy_.forward(input)).raw();
}

double ActorCriticAgent::value_of(std::span<const double> state) {
  const nn::Matrix input = nn::Matrix::row({state.begin(), state.end()});
  return value_.forward(input).at(0, 0);
}

UpdateStats ActorCriticAgent::update(std::span<const Episode> episodes) {
  UpdateStats stats;
  std::size_t total = 0;
  for (const auto& ep : episodes) total += ep.size();
  if (total == 0) return stats;

  nn::Matrix states(total, config_.state_dim);
  std::vector<int> actions(total);
  std::vector<double> rewards(total);
  std::vector<std::size_t> episode_last;  // flat index of each episode's last step
  std::size_t row = 0;
  for (const auto& ep : episodes) {
    for (const auto& tr : ep) {
      MLFS_EXPECT(tr.state.size() == config_.state_dim);
      for (std::size_t j = 0; j < config_.state_dim; ++j) states.at(row, j) = tr.state[j];
      actions[row] = tr.action;
      rewards[row] = tr.reward;
      ++row;
    }
    if (!ep.empty()) episode_last.push_back(row - 1);
  }

  // TD targets: r_t + eta * V(s_{t+1}) with V = 0 past episode ends.
  const nn::Matrix values = value_.forward(states);
  std::vector<double> targets(total);
  std::size_t boundary = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const bool terminal = i == episode_last[boundary];
    const double next_v = terminal ? 0.0 : values.at(i + 1, 0);
    targets[i] = rewards[i] + config_.eta * next_v;
    if (terminal && boundary + 1 < episode_last.size()) ++boundary;
  }
  std::vector<double> advantages(total);
  for (std::size_t i = 0; i < total; ++i) advantages[i] = targets[i] - values.at(i, 0);
  stats.mean_return = 0.0;
  for (const double t : targets) stats.mean_return += t;
  stats.mean_return /= static_cast<double>(total);

  // Critic step toward the TD targets.
  value_.zero_grads();
  const nn::Matrix value_pred = value_.forward(states);
  const auto value_loss = nn::mse(value_pred, targets);
  value_.backward(value_loss.grad_logits);
  value_opt_.step();
  stats.value_loss = value_loss.loss;

  // Actor step on the TD advantages.
  standardize(advantages);
  policy_.zero_grads();
  const nn::Matrix logits = policy_.forward(states);
  auto pg = nn::policy_gradient(logits, actions, advantages);
  stats.mean_entropy = nn::mean_entropy(logits);
  if (config_.entropy_bonus > 0.0) {
    const nn::Matrix probs = nn::softmax(logits);
    for (std::size_t i = 0; i < logits.rows(); ++i) {
      double h = 0.0;
      for (std::size_t j = 0; j < logits.cols(); ++j) {
        const double p = probs.at(i, j);
        if (p > 1e-12) h -= p * std::log(p);
      }
      for (std::size_t j = 0; j < logits.cols(); ++j) {
        const double p = probs.at(i, j);
        const double logp = p > 1e-12 ? std::log(p) : -27.6;
        pg.grad_logits.at(i, j) +=
            config_.entropy_bonus * p * (logp + h) / static_cast<double>(logits.rows());
      }
    }
  }
  policy_.backward(pg.grad_logits);
  policy_opt_.step();
  stats.policy_loss = pg.loss;
  return stats;
}

double ActorCriticAgent::imitation_step(const nn::Matrix& states, std::span<const int> actions) {
  MLFS_EXPECT(states.rows() == actions.size());
  policy_.zero_grads();
  const nn::Matrix logits = policy_.forward(states);
  const auto ce = nn::cross_entropy(logits, actions);
  policy_.backward(ce.grad_logits);
  policy_opt_.step();
  return ce.loss;
}

void ActorCriticAgent::save(std::ostream& os) const {
  policy_.save(os);
  value_.save(os);
}

void ActorCriticAgent::load(std::istream& is) {
  policy_.load(is);
  value_.load(is);
}

void ActorCriticAgent::save_state(io::BinWriter& w) const {
  for (const std::uint64_t word : rng_.state()) w.u64(word);
  policy_.save_state(w);
  value_.save_state(w);
  policy_opt_.save_state(w);
  value_opt_.save_state(w);
}

void ActorCriticAgent::restore_state(io::BinReader& r) {
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) word = r.u64();
  rng_.set_state(state);
  policy_.restore_state(r);
  value_.restore_state(r);
  policy_opt_.restore_state(r);
  value_opt_.restore_state(r);
}

}  // namespace mlfs::rl
