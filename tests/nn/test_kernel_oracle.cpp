// Bitwise oracles for the NN kernels. The reference functions below are
// the scalar kernels the register-blocked ones replaced (i-k-j matmul with
// its zero skip, materialised transposes, a bias broadcast after the sum,
// tanh through a callable); they live only here. Every production result
// must equal them bit for bit, on ragged shapes and on inputs holding 0.0,
// -0.0, subnormals, ±inf and NaN. NaN equals NaN whatever its payload:
// IEEE 754 leaves payload propagation open, so only NaN-ness is compared.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rl/reinforce.hpp"
#include "rl/returns.hpp"

namespace mlfs::nn {
namespace {

// ------------------------------------------------------------ references

Matrix ref_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double x = a.raw()[i * a.cols() + k];
      if (x == 0.0) continue;
      const double* brow = b.data() + k * b.cols();
      double* orow = out.data() + i * b.cols();
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += x * brow[j];
    }
  }
  return out;
}

Matrix ref_transposed(const Matrix& m) {
  Matrix out(m.cols(), m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) out.at(j, i) = m.at(i, j);
  return out;
}

Matrix ref_column_sums(const Matrix& m) {
  Matrix out(1, m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) out.raw()[j] += m.at(i, j);
  return out;
}

Matrix ref_dense_forward(const Matrix& x, const Matrix& w, const Matrix& b) {
  Matrix out = ref_matmul(x, w);
  for (std::size_t i = 0; i < out.rows(); ++i)
    for (std::size_t j = 0; j < out.cols(); ++j) out.at(i, j) += b.raw()[j];
  return out;
}

/// grad_w += xᵀ·g and grad_b += colsum(g) as separate adds; returns g·wᵀ.
Matrix ref_dense_backward(const Matrix& x, const Matrix& w, const Matrix& g, Matrix& grad_w,
                          Matrix& grad_b) {
  grad_w += ref_matmul(ref_transposed(x), g);
  grad_b += ref_column_sums(g);
  return ref_matmul(g, ref_transposed(w));
}

Matrix ref_map(Matrix m, const std::function<double(double)>& f) {
  for (double& v : m.raw()) v = f(v);
  return m;
}

Matrix ref_tanh(const Matrix& m) {
  return ref_map(m, [](double v) { return std::tanh(v); });
}

Matrix ref_tanh_backward(const Matrix& y, const Matrix& g) {
  Matrix out = g;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double t = y.raw()[i];
    out.raw()[i] *= 1.0 - t * t;
  }
  return out;
}

// ------------------------------------------------------------ comparison

bool same_bits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_bitwise(std::span<const double> got, std::span<const double> want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_bits(got[i], want[i])) {
      ADD_FAILURE() << what << ": element " << i << " is " << got[i] << ", reference "
                    << want[i];
      return;
    }
  }
}

void expect_bitwise(const Matrix& got, const Matrix& want, const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  expect_bitwise(got.raw(), want.raw(), what);
}

// ------------------------------------------------------------ inputs

/// Mostly uniform values; with `special` set, about one in six entries is
/// drawn from {0.0, -0.0, subnormals, ±inf, NaN}.
Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng, bool special) {
  Matrix m(rows, cols);
  for (double& v : m.raw()) {
    v = rng.uniform(-2.0, 2.0);
    if (!special || rng.uniform() > 1.0 / 6.0) continue;
    switch (rng.uniform_int(0, 6)) {
      case 0: v = 0.0; break;
      case 1: v = -0.0; break;
      case 2: v = std::numeric_limits<double>::denorm_min() * rng.uniform_int(1, 1 << 20); break;
      case 3: v = -std::numeric_limits<double>::denorm_min() * 3; break;
      case 4: v = std::numeric_limits<double>::infinity(); break;
      case 5: v = -std::numeric_limits<double>::infinity(); break;
      default: v = std::numeric_limits<double>::quiet_NaN(); break;
    }
  }
  return m;
}

std::string shape(std::size_t r, std::size_t k, std::size_t c, bool special) {
  return std::to_string(r) + "x" + std::to_string(k) + "@" + std::to_string(k) + "x" +
         std::to_string(c) + (special ? " (special values)" : "");
}

// ------------------------------------------------------------ kernels

TEST(KernelOracle, MatmulMatchesTheScalarKernelOnEveryWidth) {
  Rng rng(101);
  for (const bool special : {false, true}) {
    for (std::size_t cols = 1; cols <= 70; ++cols) {
      const std::size_t rows = static_cast<std::size_t>(rng.uniform_int(1, 4));
      const std::size_t depth = static_cast<std::size_t>(rng.uniform_int(1, 70));
      const Matrix a = random_matrix(rows, depth, rng, special);
      const Matrix b = random_matrix(depth, cols, rng, special);
      expect_bitwise(a.matmul(b), ref_matmul(a, b), shape(rows, depth, cols, special));
    }
  }
}

TEST(KernelOracle, MatmulMatchesTheScalarKernelOnRandomShapes) {
  Rng rng(202);
  for (int trial = 0; trial < 300; ++trial) {
    const bool special = trial % 2 == 1;
    const auto rows = static_cast<std::size_t>(rng.uniform_int(1, 70));
    const auto depth = static_cast<std::size_t>(rng.uniform_int(1, 70));
    const auto cols = static_cast<std::size_t>(rng.uniform_int(1, 70));
    const Matrix a = random_matrix(rows, depth, rng, special);
    const Matrix b = random_matrix(depth, cols, rng, special);
    expect_bitwise(a.matmul(b), ref_matmul(a, b), shape(rows, depth, cols, special));
  }
}

TEST(KernelOracle, ZeroInputsAreSkippedSoInfWeightsDoNotPoison) {
  // x = [0, -0, 1] against a row of infinities: the zero terms are skipped,
  // so the sum is exactly the third row, not NaN.
  Matrix x(1, 3);
  x.raw() = {0.0, -0.0, 1.0};
  Matrix w(3, 17, std::numeric_limits<double>::infinity());
  for (std::size_t j = 0; j < 17; ++j) w.at(2, j) = static_cast<double>(j);
  const Matrix out = x.matmul(w);
  for (std::size_t j = 0; j < 17; ++j) EXPECT_EQ(out.at(0, j), static_cast<double>(j));
  // All inputs zero: every output is +0.0 (the sum starts at +0.0).
  x.raw() = {0.0, -0.0, 0.0};
  const Matrix zeros = x.matmul(w);
  for (const double v : zeros.raw()) EXPECT_EQ(std::bit_cast<std::uint64_t>(v), 0u);
}

TEST(KernelOracle, DenseForwardAndBackwardMatchTheReference) {
  Rng rng(303);
  for (int trial = 0; trial < 120; ++trial) {
    const bool special = trial % 3 == 2;
    const auto rows = static_cast<std::size_t>(rng.uniform_int(1, 70));
    const auto in = static_cast<std::size_t>(rng.uniform_int(1, 70));
    const auto out = static_cast<std::size_t>(rng.uniform_int(1, 70));
    const std::string what = shape(rows, in, out, special);
    Dense dense(in, out, rng);
    dense.weights() = random_matrix(in, out, rng, special);
    dense.bias() = random_matrix(1, out, rng, special);
    Matrix ref_grad_w(in, out);
    Matrix ref_grad_b(1, out);
    // Two passes, so the second backward accumulates onto non-zero grads.
    for (int pass = 0; pass < 2; ++pass) {
      const Matrix x = random_matrix(rows, in, rng, special);
      const Matrix g = random_matrix(rows, out, rng, special);
      expect_bitwise(dense.forward(x), ref_dense_forward(x, dense.weights(), dense.bias()),
                     what + " forward");
      const Matrix dx = dense.backward(g);
      expect_bitwise(dx, ref_dense_backward(x, dense.weights(), g, ref_grad_w, ref_grad_b),
                     what + " dX");
      expect_bitwise(*dense.grads()[0], ref_grad_w, what + " grad_W");
      expect_bitwise(*dense.grads()[1], ref_grad_b, what + " grad_b");
    }
    std::vector<double> row(out);
    const Matrix x = random_matrix(1, in, rng, special);
    dense.infer(x.raw(), row.data());
    expect_bitwise(row, ref_dense_forward(x, dense.weights(), dense.bias()).raw(),
                   what + " infer");
  }
}

TEST(KernelOracle, TanhMatchesTheReference) {
  Rng rng(404);
  const Matrix x = random_matrix(9, 37, rng, /*special=*/true);
  const Matrix g = random_matrix(9, 37, rng, /*special=*/true);
  Tanh layer;
  const Matrix y = layer.forward(x);
  expect_bitwise(y, ref_tanh(x), "tanh forward");
  expect_bitwise(layer.backward(g), ref_tanh_backward(y, g), "tanh backward");
}

TEST(KernelOracle, MlpInferMatchesForwardBitwise) {
  Rng rng(505);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::size_t> sizes;
    const int layers = static_cast<int>(rng.uniform_int(2, 4));
    for (int l = 0; l < layers; ++l) {
      sizes.push_back(static_cast<std::size_t>(rng.uniform_int(1, 70)));
    }
    const Activation act = trial % 2 == 0 ? Activation::Tanh : Activation::Relu;
    Mlp net(sizes, act, rng);
    const bool special = trial % 4 == 3;
    const Matrix batch = random_matrix(5, sizes.front(), rng, special);
    const Matrix logits = net.forward(batch);
    for (std::size_t r = 0; r < batch.rows(); ++r) {
      const std::span<const double> row(batch.data() + r * batch.cols(), batch.cols());
      expect_bitwise(net.infer(row),
                     std::span<const double>(logits.data() + r * logits.cols(), logits.cols()),
                     "trial " + std::to_string(trial) + " row " + std::to_string(r));
    }
  }
}

// ------------------------------------------------------------ agent

/// The MLP an agent trains, on the reference kernels: Dense -> tanh -> ...
/// -> Dense, with the same parameter and gradient layout as nn::Mlp.
struct RefMlp {
  std::vector<Matrix> w, b, gw, gb;
  std::vector<Matrix> inputs, outputs;  // per layer: Dense input, tanh output

  Matrix forward(const Matrix& x) {
    inputs.clear();
    outputs.clear();
    Matrix h = x;
    for (std::size_t l = 0; l < w.size(); ++l) {
      inputs.push_back(h);
      h = ref_dense_forward(h, w[l], b[l]);
      if (l + 1 < w.size()) {
        h = ref_tanh(h);
        outputs.push_back(h);
      }
    }
    return h;
  }

  void backward(const Matrix& grad_logits) {
    Matrix g = grad_logits;
    for (std::size_t l = w.size(); l-- > 0;) {
      g = ref_dense_backward(inputs[l], w[l], g, gw[l], gb[l]);
      if (l > 0) g = ref_tanh_backward(outputs[l - 1], g);
    }
  }

  void zero_grads() {
    for (Matrix& m : gw) m.zero();
    for (Matrix& m : gb) m.zero();
  }

  std::vector<Matrix*> params() {
    std::vector<Matrix*> out;
    for (std::size_t l = 0; l < w.size(); ++l) {
      out.push_back(&w[l]);
      out.push_back(&b[l]);
    }
    return out;
  }

  std::vector<Matrix*> grads() {
    std::vector<Matrix*> out;
    for (std::size_t l = 0; l < w.size(); ++l) {
      out.push_back(&gw[l]);
      out.push_back(&gb[l]);
    }
    return out;
  }
};

/// Reads one network's parameters as ReinforceAgent::save_state wrote them.
RefMlp read_mlp(io::BinReader& r, const std::vector<std::size_t>& sizes) {
  RefMlp net;
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    Matrix w(sizes[l], sizes[l + 1]);
    w.raw() = r.vec_f64();
    Matrix b(1, sizes[l + 1]);
    b.raw() = r.vec_f64();
    net.gw.emplace_back(w.rows(), w.cols());
    net.gb.emplace_back(b.rows(), b.cols());
    net.w.push_back(std::move(w));
    net.b.push_back(std::move(b));
  }
  return net;
}

/// ReinforceAgent's update() and imitation_step() over RefMlp networks.
struct RefAgent {
  rl::ReinforceConfig config;
  std::array<std::uint64_t, 4> rng_state{};
  RefMlp policy, value;
  std::unique_ptr<Adam> policy_opt, value_opt;

  RefAgent(const rl::ReinforceConfig& c, const std::string& agent_state) : config(c) {
    std::vector<std::size_t> sizes{c.state_dim};
    sizes.insert(sizes.end(), c.hidden.begin(), c.hidden.end());
    io::BinReader r(agent_state);
    for (std::uint64_t& word : rng_state) word = r.u64();
    sizes.push_back(c.action_dim);
    policy = read_mlp(r, sizes);
    sizes.back() = 1;
    value = read_mlp(r, sizes);
    policy_opt = std::make_unique<Adam>(policy.params(), policy.grads(), c.policy_lr);
    value_opt = std::make_unique<Adam>(value.params(), value.grads(), c.value_lr);
    policy_opt->set_max_grad_norm(c.max_grad_norm);
    value_opt->set_max_grad_norm(c.max_grad_norm);
    policy_opt->restore_state(r);
    value_opt->restore_state(r);
    EXPECT_TRUE(r.at_end());
  }

  std::string save_state() {
    std::string bytes;
    io::BinWriter w(bytes);
    for (const std::uint64_t word : rng_state) w.u64(word);
    for (Matrix* p : policy.params()) w.vec_f64(p->raw());
    for (Matrix* p : value.params()) w.vec_f64(p->raw());
    policy_opt->save_state(w);
    value_opt->save_state(w);
    return bytes;
  }

  void update(std::span<const rl::Episode> episodes) {
    std::size_t total = 0;
    for (const auto& ep : episodes) total += ep.size();
    Matrix states(total, config.state_dim);
    std::vector<int> actions;
    std::vector<double> returns;
    std::size_t row = 0;
    for (const auto& ep : episodes) {
      std::vector<double> rewards;
      for (const auto& tr : ep) {
        for (std::size_t j = 0; j < config.state_dim; ++j) states.at(row, j) = tr.state[j];
        ++row;
        actions.push_back(tr.action);
        rewards.push_back(tr.reward);
      }
      const auto g = rl::discounted_returns(rewards, config.eta);
      returns.insert(returns.end(), g.begin(), g.end());
    }
    value.zero_grads();
    const Matrix values = value.forward(states);
    value.backward(mse(values, returns).grad_logits);
    value_opt->step();
    std::vector<double> advantages(total);
    for (std::size_t i = 0; i < total; ++i) advantages[i] = returns[i] - values.at(i, 0);
    rl::standardize(advantages);

    policy.zero_grads();
    const Matrix logits = policy.forward(states);
    auto pg = policy_gradient(logits, actions, advantages);
    const Matrix probs = softmax(logits);
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
            config.entropy_bonus * p * (logp + h) / static_cast<double>(logits.rows());
      }
    }
    policy.backward(pg.grad_logits);
    policy_opt->step();
  }

  void imitation_step(const Matrix& states, std::span<const int> actions) {
    policy.zero_grads();
    const Matrix logits = policy.forward(states);
    policy.backward(cross_entropy(logits, actions).grad_logits);
    policy_opt->step();
  }
};

std::string agent_state(const rl::ReinforceAgent& agent) {
  std::string bytes;
  io::BinWriter w(bytes);
  agent.save_state(w);
  return bytes;
}

/// A state vector with about a quarter of its features exactly ±0.
std::vector<double> sparse_state(std::size_t dim, Rng& rng) {
  std::vector<double> s(dim);
  for (double& v : s) {
    const double u = rng.uniform();
    v = u < 0.125 ? 0.0 : u < 0.25 ? -0.0 : rng.uniform(-1.5, 1.5);
  }
  return s;
}

TEST(KernelOracle, FiftyAgentUpdatesMatchTheReferencePathBitwise) {
  rl::ReinforceConfig config;
  config.state_dim = 40;
  config.action_dim = 4;
  config.hidden = {48, 48};
  config.policy_lr = 3e-3;
  config.value_lr = 3e-3;
  config.seed = 17;
  rl::ReinforceAgent agent(config);
  RefAgent ref(config, agent_state(agent));
  ASSERT_EQ(ref.save_state(), agent_state(agent));

  Rng rng(606);
  for (int round = 0; round < 50; ++round) {
    std::vector<rl::Episode> episodes(2);
    for (rl::Episode& ep : episodes) {
      const int steps = static_cast<int>(rng.uniform_int(1, 12));
      for (int t = 0; t < steps; ++t) {
        rl::Transition tr;
        tr.state = sparse_state(config.state_dim, rng);
        tr.action = static_cast<int>(rng.uniform_int(0, 3));
        tr.reward = rng.uniform(-1.0, 1.0);
        ep.push_back(std::move(tr));
      }
    }
    agent.update(episodes);
    ref.update(episodes);

    const auto rows = static_cast<std::size_t>(rng.uniform_int(1, 9));
    Matrix states(rows, config.state_dim);
    std::vector<int> actions(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      const auto s = sparse_state(config.state_dim, rng);
      std::copy(s.begin(), s.end(), states.data() + i * config.state_dim);
      actions[i] = static_cast<int>(rng.uniform_int(0, 3));
    }
    agent.imitation_step(states, actions);
    ref.imitation_step(states, actions);

    // Inference on the trained policy: probabilities and greedy action.
    const auto probe = sparse_state(config.state_dim, rng);
    Matrix probe_row(1, config.state_dim);
    probe_row.raw() = probe;
    const Matrix ref_logits = ref.policy.forward(probe_row);
    const std::vector<double> probs = agent.action_probabilities(probe);
    expect_bitwise(probs, softmax(ref_logits).raw(),
                   "round " + std::to_string(round) + " probabilities");
    const auto best = std::max_element(ref_logits.raw().begin(), ref_logits.raw().end());
    EXPECT_EQ(agent.act_greedy(probe), static_cast<int>(best - ref_logits.raw().begin()));

    ASSERT_TRUE(agent_state(agent) == ref.save_state())
        << "parameters or Adam moments diverged in round " << round;
  }
}

}  // namespace
}  // namespace mlfs::nn
