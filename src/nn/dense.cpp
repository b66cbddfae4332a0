#include "nn/dense.hpp"

namespace mlfs::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : weights_(Matrix::glorot(in_features, out_features, rng)),
      bias_(1, out_features),
      grad_weights_(in_features, out_features),
      grad_bias_(1, out_features) {}

Matrix Dense::forward(const Matrix& input) {
  MLFS_EXPECT(input.cols() == weights_.rows());
  last_input_ = input;
  Matrix out(input.rows(), out_features());
  for (std::size_t r = 0; r < input.rows(); ++r) {
    matmul_row(input.data() + r * input.cols(), 1, input.cols(), weights_.data(), out.cols(),
               bias_.data(), out.data() + r * out.cols());
  }
  return out;
}

void Dense::infer(std::span<const double> input, double* out) const {
  MLFS_EXPECT(input.size() == weights_.rows());
  matmul_row(input.data(), 1, input.size(), weights_.data(), weights_.cols(), bias_.data(), out);
}

void Dense::accumulate_param_grads(const Matrix& grad_output) {
  MLFS_EXPECT(grad_output.rows() == last_input_.rows());
  MLFS_EXPECT(grad_output.cols() == weights_.cols());
  // Row i of Xᵀ·G is column i of X against G's rows; passing grad_W's row
  // as the bias adds the finished sum to it in one step.
  const std::size_t in = in_features();
  const std::size_t out = out_features();
  for (std::size_t i = 0; i < in; ++i) {
    double* grad_row = grad_weights_.data() + i * out;
    matmul_row(last_input_.data() + i, in, grad_output.rows(), grad_output.data(), out, grad_row,
               grad_row);
  }
  grad_bias_ += grad_output.column_sums();
}

Matrix Dense::backward(const Matrix& grad_output) {
  accumulate_param_grads(grad_output);
  weights_.transpose_into(weights_t_);
  Matrix grad_input(grad_output.rows(), in_features());
  for (std::size_t r = 0; r < grad_output.rows(); ++r) {
    matmul_row(grad_output.data() + r * grad_output.cols(), 1, grad_output.cols(),
               weights_t_.data(), grad_input.cols(), nullptr,
               grad_input.data() + r * grad_input.cols());
  }
  return grad_input;
}

}  // namespace mlfs::nn
