#include "nn/mlp.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

#include "common/binio.hpp"

namespace mlfs::nn {

Mlp::Mlp(const std::vector<std::size_t>& sizes, Activation hidden_activation, Rng& rng)
    : sizes_(sizes), hidden_activation_(hidden_activation) {
  MLFS_EXPECT(sizes.size() >= 2);
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    auto dense = std::make_unique<Dense>(sizes[i], sizes[i + 1], rng);
    dense_.push_back(dense.get());
    layers_.push_back(std::move(dense));
    const bool is_last = i + 2 == sizes.size();
    if (!is_last) {
      if (hidden_activation == Activation::Relu) {
        layers_.push_back(std::make_unique<Relu>());
      } else {
        layers_.push_back(std::make_unique<Tanh>());
      }
    }
  }
  const std::size_t widest = *std::max_element(sizes.begin() + 1, sizes.end());
  infer_in_.resize(widest);
  infer_out_.resize(widest);
}

Matrix Mlp::forward(const Matrix& input) {
  MLFS_EXPECT(input.cols() == sizes_.front());
  Matrix x = input;
  for (auto& layer : layers_) x = layer->forward(x);
  return x;
}

std::span<const double> Mlp::infer(std::span<const double> input) {
  MLFS_EXPECT(input.size() == sizes_.front());
  std::span<const double> x = input;
  for (std::size_t i = 0; i < dense_.size(); ++i) {
    const std::span<double> y(infer_out_.data(), sizes_[i + 1]);
    dense_[i]->infer(x, y.data());
    if (i + 1 < dense_.size()) {
      if (hidden_activation_ == Activation::Relu) {
        relu_in_place(y);
      } else {
        tanh_in_place(y);
      }
    }
    std::swap(infer_in_, infer_out_);
    x = {infer_in_.data(), y.size()};
  }
  return x;
}

void Mlp::backward(const Matrix& grad_logits) {
  // layers_[0] is the first Dense: only its parameter gradients are read.
  Matrix grad = grad_logits;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) grad = layers_[i]->backward(grad);
  dense_.front()->accumulate_param_grads(grad);
}

void Mlp::zero_grads() {
  for (auto& layer : layers_) layer->zero_grads();
}

std::vector<Matrix*> Mlp::params() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_)
    for (Matrix* p : layer->params()) out.push_back(p);
  return out;
}

std::vector<Matrix*> Mlp::grads() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_)
    for (Matrix* g : layer->grads()) out.push_back(g);
  return out;
}

std::size_t Mlp::parameter_count() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) {
    // params() is non-const by design (optimizer mutates); cast is local.
    for (Matrix* p : const_cast<Layer&>(*layer).params()) n += p->size();
  }
  return n;
}

void Mlp::save(std::ostream& os) const {
  os << sizes_.size() << '\n';
  for (const auto s : sizes_) os << s << ' ';
  os << '\n';
  for (const auto& layer : layers_) {
    for (Matrix* p : const_cast<Layer&>(*layer).params()) write_matrix(os, *p);
  }
}

void Mlp::load(std::istream& is) {
  std::size_t n = 0;
  is >> n;
  MLFS_EXPECT(n == sizes_.size());
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t s = 0;
    is >> s;
    MLFS_EXPECT(s == sizes_[i]);
  }
  for (auto& layer : layers_) {
    for (Matrix* p : layer->params()) {
      Matrix loaded = read_matrix(is);
      MLFS_EXPECT(loaded.same_shape(*p));
      *p = std::move(loaded);
    }
  }
}

void Mlp::save_state(io::BinWriter& w) const {
  for (const auto& layer : layers_) {
    for (Matrix* p : const_cast<Layer&>(*layer).params()) w.vec_f64(p->raw());
  }
}

void Mlp::restore_state(io::BinReader& r) {
  for (auto& layer : layers_) {
    for (Matrix* p : layer->params()) {
      std::vector<double> data = r.vec_f64();
      MLFS_EXPECT(data.size() == p->size());
      p->raw() = std::move(data);
    }
  }
}

void Mlp::copy_params_from(const Mlp& other) {
  MLFS_EXPECT(sizes_ == other.sizes_);
  auto& self = *this;
  auto& src = const_cast<Mlp&>(other);
  auto dst_params = self.params();
  auto src_params = src.params();
  MLFS_EXPECT(dst_params.size() == src_params.size());
  for (std::size_t i = 0; i < dst_params.size(); ++i) *dst_params[i] = *src_params[i];
}

}  // namespace mlfs::nn
