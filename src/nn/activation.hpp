// Parameterless activation layers.
#pragma once

#include <span>

#include "nn/layer.hpp"

namespace mlfs::nn {

/// The activations' elementwise maps, shared by the layers' forward() and
/// Mlp::infer.
void relu_in_place(std::span<double> values);
void tanh_in_place(std::span<double> values);

class Relu : public Layer {
 public:
  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;

 private:
  Matrix last_input_;
};

class Tanh : public Layer {
 public:
  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;

 private:
  Matrix last_output_;  // tanh' = 1 - tanh^2, so cache the output
};

}  // namespace mlfs::nn
