#include "rl/reinforce.hpp"

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

ReinforceAgent::ReinforceAgent(const ReinforceConfig& config)
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
  policy_opt_.set_max_grad_norm(config.max_grad_norm);
  value_opt_.set_max_grad_norm(config.max_grad_norm);
}

int ReinforceAgent::sample_or_argmax(std::span<const double> state, std::span<const bool> mask,
                                     bool greedy) {
  MLFS_EXPECT(state.size() == config_.state_dim);
  const std::span<const double> raw = policy_.infer(state);
  std::vector<double>& logits = logits_;
  logits.assign(raw.begin(), raw.end());
  apply_mask(logits, mask);

  if (greedy) {
    return static_cast<int>(std::max_element(logits.begin(), logits.end()) - logits.begin());
  }
  // Softmax sample over the (masked) logits; each logit becomes its
  // unnormalised weight in place.
  const double maxv = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (double& v : logits) {
    v = std::isinf(v) ? 0.0 : std::exp(v - maxv);
    sum += v;
  }
  MLFS_EXPECT(sum > 0.0);
  double r = rng_.uniform() * sum;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    r -= logits[i];
    if (r < 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(logits.size() - 1);
}

int ReinforceAgent::act(std::span<const double> state, std::span<const bool> mask) {
  return sample_or_argmax(state, mask, /*greedy=*/false);
}

int ReinforceAgent::act_greedy(std::span<const double> state, std::span<const bool> mask) {
  return sample_or_argmax(state, mask, /*greedy=*/true);
}

std::vector<double> ReinforceAgent::action_probabilities(std::span<const double> state) {
  MLFS_EXPECT(state.size() == config_.state_dim);
  const std::span<const double> logits = policy_.infer(state);
  return nn::softmax(nn::Matrix::row({logits.begin(), logits.end()})).raw();
}

nn::Matrix ReinforceAgent::states_to_matrix(std::span<const Episode> episodes) const {
  std::size_t total = 0;
  for (const auto& ep : episodes) total += ep.size();
  nn::Matrix states(total, config_.state_dim);
  std::size_t row = 0;
  for (const auto& ep : episodes) {
    for (const auto& tr : ep) {
      MLFS_EXPECT(tr.state.size() == config_.state_dim);
      for (std::size_t j = 0; j < config_.state_dim; ++j) states.at(row, j) = tr.state[j];
      ++row;
    }
  }
  return states;
}

UpdateStats ReinforceAgent::update(std::span<const Episode> episodes) {
  UpdateStats stats;
  std::size_t total = 0;
  for (const auto& ep : episodes) total += ep.size();
  if (total == 0) return stats;

  const nn::Matrix states = states_to_matrix(episodes);
  std::vector<int> actions;
  std::vector<double> returns;
  actions.reserve(total);
  returns.reserve(total);
  for (const auto& ep : episodes) {
    std::vector<double> rewards;
    rewards.reserve(ep.size());
    for (const auto& tr : ep) {
      actions.push_back(tr.action);
      rewards.push_back(tr.reward);
    }
    const auto g = discounted_returns(rewards, config_.eta);
    returns.insert(returns.end(), g.begin(), g.end());
  }
  stats.mean_return = 0.0;
  for (const double g : returns) stats.mean_return += g;
  stats.mean_return /= static_cast<double>(returns.size());

  // Value baseline: fit V(s) to the returns, use advantages A = G - V(s).
  value_.zero_grads();
  const nn::Matrix values = value_.forward(states);
  const auto value_loss = nn::mse(values, returns);
  value_.backward(value_loss.grad_logits);
  value_opt_.step();
  stats.value_loss = value_loss.loss;

  std::vector<double> advantages(total);
  for (std::size_t i = 0; i < total; ++i) advantages[i] = returns[i] - values.at(i, 0);
  standardize(advantages);

  // Policy step: policy-gradient surrogate minus an entropy bonus.
  policy_.zero_grads();
  const nn::Matrix logits = policy_.forward(states);
  auto pg = nn::policy_gradient(logits, actions, advantages);
  stats.mean_entropy = nn::mean_entropy(logits);
  if (config_.entropy_bonus > 0.0) {
    // d(-H)/dlogits for softmax: p * (log p + H). Added scaled by bonus.
    const nn::Matrix probs = nn::softmax(logits);
    for (std::size_t i = 0; i < logits.rows(); ++i) {
      double h = 0.0;
      for (std::size_t j = 0; j < logits.cols(); ++j) {
        const double p = probs.at(i, j);
        if (p > 1e-12) h -= p * std::log(p);
      }
      for (std::size_t j = 0; j < logits.cols(); ++j) {
        const double p = probs.at(i, j);
        const double logp = p > 1e-12 ? std::log(p) : -27.6;  // log(1e-12)
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

double ReinforceAgent::imitation_step(const nn::Matrix& states, std::span<const int> actions) {
  MLFS_EXPECT(states.rows() == actions.size());
  MLFS_EXPECT(states.cols() == config_.state_dim);
  policy_.zero_grads();
  const nn::Matrix logits = policy_.forward(states);
  const auto ce = nn::cross_entropy(logits, actions);
  policy_.backward(ce.grad_logits);
  policy_opt_.step();
  return ce.loss;
}

void ReinforceAgent::save(std::ostream& os) const {
  policy_.save(os);
  value_.save(os);
}

void ReinforceAgent::load(std::istream& is) {
  policy_.load(is);
  value_.load(is);
}

void ReinforceAgent::save_state(io::BinWriter& w) const {
  for (const std::uint64_t word : rng_.state()) w.u64(word);
  policy_.save_state(w);
  value_.save_state(w);
  policy_opt_.save_state(w);
  value_opt_.save_state(w);
}

void ReinforceAgent::restore_state(io::BinReader& r) {
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) word = r.u64();
  rng_.set_state(state);
  policy_.restore_state(r);
  value_.restore_state(r);
  policy_opt_.restore_state(r);
  value_opt_.restore_state(r);
}

}  // namespace mlfs::rl
