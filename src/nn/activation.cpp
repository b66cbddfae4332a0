#include "nn/activation.hpp"

#include <cmath>

namespace mlfs::nn {

void relu_in_place(std::span<double> values) {
  for (double& v : values) v = v > 0.0 ? v : 0.0;
}

void tanh_in_place(std::span<double> values) {
  for (double& v : values) v = std::tanh(v);
}

Matrix Relu::forward(const Matrix& input) {
  last_input_ = input;
  Matrix out = input;
  relu_in_place(out.raw());
  return out;
}

Matrix Relu::backward(const Matrix& grad_output) {
  MLFS_EXPECT(grad_output.same_shape(last_input_));
  Matrix grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (last_input_.raw()[i] <= 0.0) grad.raw()[i] = 0.0;
  }
  return grad;
}

Matrix Tanh::forward(const Matrix& input) {
  Matrix out = input;
  tanh_in_place(out.raw());
  last_output_ = out;
  return out;
}

Matrix Tanh::backward(const Matrix& grad_output) {
  MLFS_EXPECT(grad_output.same_shape(last_output_));
  Matrix grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const double y = last_output_.raw()[i];
    grad.raw()[i] *= 1.0 - y * y;
  }
  return grad;
}

}  // namespace mlfs::nn
