// Multi-layer perceptron: the function approximator behind both the MLF-RL
// policy/value networks and the baseline RL scheduler. Dense layers with a
// configurable hidden activation; the output is raw logits (loss heads live
// in loss.hpp).
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/layer.hpp"

namespace mlfs::io {
class BinWriter;
class BinReader;
}  // namespace mlfs::io

namespace mlfs::nn {

enum class Activation { Relu, Tanh };

/// Feed-forward network: Dense -> act -> ... -> Dense (logits out).
class Mlp {
 public:
  /// `sizes` = {in, hidden..., out}; at least {in, out}.
  Mlp(const std::vector<std::size_t>& sizes, Activation hidden_activation, Rng& rng);

  /// Forward pass for a batch (rows = samples), returns logits.
  Matrix forward(const Matrix& input);

  /// Logits for one sample, bitwise equal to forward()'s row. Works in
  /// member scratch (no allocation, nothing cached for backward); the view
  /// is valid until the next infer().
  std::span<const double> infer(std::span<const double> input);

  /// Backprop from dLoss/dLogits; accumulates parameter gradients. The
  /// network input's gradient is never formed.
  void backward(const Matrix& grad_logits);

  void zero_grads();

  /// Flattened parameter/gradient views across all layers.
  std::vector<Matrix*> params();
  std::vector<Matrix*> grads();

  std::size_t in_features() const { return sizes_.front(); }
  std::size_t out_features() const { return sizes_.back(); }
  std::size_t parameter_count() const;

  /// Text checkpointing of all parameters (architecture must match on load).
  void save(std::ostream& os) const;
  void load(std::istream& is);

  /// Bit-exact binary parameter round-trip for engine snapshots; the text
  /// save()/load() pair stays the human-inspectable checkpoint format.
  void save_state(io::BinWriter& w) const;
  void restore_state(io::BinReader& r);

  /// Copies parameters from another MLP with identical architecture.
  void copy_params_from(const Mlp& other);

 private:
  std::vector<std::size_t> sizes_;
  Activation hidden_activation_;
  std::vector<LayerPtr> layers_;  ///< Dense, act, Dense, act, ..., Dense
  std::vector<Dense*> dense_;     ///< the Dense entries of layers_, in order
  std::vector<double> infer_in_;  ///< infer() ping-pong scratch
  std::vector<double> infer_out_;
};

}  // namespace mlfs::nn
