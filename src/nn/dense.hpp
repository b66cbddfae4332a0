// Fully connected layer: y = x W + b.
#pragma once

#include <span>

#include "nn/layer.hpp"

namespace mlfs::nn {

class Dense : public Layer {
 public:
  /// Glorot-initialized weights, zero bias.
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;

  /// One sample's outputs into `out` (out_features() values), bitwise equal
  /// to forward()'s row; caches nothing for backward.
  void infer(std::span<const double> input, double* out) const;

  /// The parameter half of backward(): accumulates grad_W += Xᵀ·G and
  /// grad_b += column sums of G, without forming dLoss/dInput.
  void accumulate_param_grads(const Matrix& grad_output);

  std::vector<Matrix*> params() override { return {&weights_, &bias_}; }
  std::vector<Matrix*> grads() override { return {&grad_weights_, &grad_bias_}; }

  std::size_t in_features() const { return weights_.rows(); }
  std::size_t out_features() const { return weights_.cols(); }

  const Matrix& weights() const { return weights_; }
  Matrix& weights() { return weights_; }
  const Matrix& bias() const { return bias_; }
  Matrix& bias() { return bias_; }

 private:
  Matrix weights_;       // in x out
  Matrix bias_;          // 1 x out
  Matrix grad_weights_;  // same shape as weights_
  Matrix grad_bias_;     // same shape as bias_
  Matrix last_input_;    // cached for backward
  Matrix weights_t_;     // backward scratch: weights_ transposed
};

}  // namespace mlfs::nn
