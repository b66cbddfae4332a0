#include "nn/matrix.hpp"

#include <cmath>
#include <cstring>
#include <iomanip>
#include <istream>
#include <ostream>

namespace mlfs::nn {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::row(const std::vector<double>& values) {
  Matrix m(1, values.size());
  m.data_ = values;
  return m;
}

Matrix Matrix::glorot(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (auto& v : m.data_) v = rng.uniform(-limit, limit);
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  MLFS_EXPECT(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  MLFS_EXPECT(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

namespace {

/// Two doubles in one SSE2 register (GCC/Clang vector extension; plain -O2
/// on x86-64 lowers each operation to one packed instruction).
using Vec2 = double __attribute__((vector_size(16)));

Vec2 load2(const double* p) {
  Vec2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void store2(double* p, Vec2 v) { std::memcpy(p, &v, sizeof(v)); }

/// matmul_row for the 2N outputs at w[.][0..2N), N registers wide. The
/// pragmas unroll the register loops so the accumulators stay in registers
/// at -O2.
template <std::size_t N>
void row_block(const double* x, std::size_t x_stride, std::size_t depth, const double* w,
               std::size_t cols, const double* bias, double* out) {
  Vec2 acc[N];
#pragma GCC unroll 8
  for (std::size_t m = 0; m < N; ++m) acc[m] = Vec2{0.0, 0.0};
  for (std::size_t k = 0; k < depth; ++k, w += cols) {
    const double xk = x[k * x_stride];
    if (xk == 0.0) continue;
    const Vec2 s = {xk, xk};
#pragma GCC unroll 8
    for (std::size_t m = 0; m < N; ++m) acc[m] += s * load2(w + 2 * m);
  }
#pragma GCC unroll 8
  for (std::size_t m = 0; m < N; ++m) {
    if (bias != nullptr) acc[m] += load2(bias + 2 * m);
    store2(out + 2 * m, acc[m]);
  }
}

}  // namespace

void matmul_row(const double* x, std::size_t x_stride, std::size_t depth, const double* w,
                std::size_t cols, const double* bias, double* out) {
  // Each k step adds into every accumulator of a block, and an add's
  // latency bounds a chain: the wider the block, the more outputs share
  // that wait. Eight registers (16 outputs) fit SSE2's sixteen.
  const auto bias_at = [&](std::size_t j) { return bias != nullptr ? bias + j : nullptr; };
  std::size_t j = 0;
  for (; j + 16 <= cols; j += 16) {
    row_block<8>(x, x_stride, depth, w + j, cols, bias_at(j), out + j);
  }
  // The rest (< 16) in at most one pass each of 8, 4 and 2 outputs, then 1.
  if (j + 8 <= cols) {
    row_block<4>(x, x_stride, depth, w + j, cols, bias_at(j), out + j);
    j += 8;
  }
  if (j + 4 <= cols) {
    row_block<2>(x, x_stride, depth, w + j, cols, bias_at(j), out + j);
    j += 4;
  }
  if (j + 2 <= cols) {
    row_block<1>(x, x_stride, depth, w + j, cols, bias_at(j), out + j);
    j += 2;
  }
  if (j < cols) {
    double a = 0.0;
    for (std::size_t k = 0; k < depth; ++k) {
      const double xk = x[k * x_stride];
      if (xk == 0.0) continue;
      a += xk * w[k * cols + j];
    }
    if (bias != nullptr) a += bias[j];
    out[j] = a;
  }
}

Matrix Matrix::matmul(const Matrix& other) const {
  MLFS_EXPECT(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    matmul_row(data_.data() + i * cols_, 1, cols_, other.data_.data(), other.cols_, nullptr,
               out.data_.data() + i * other.cols_);
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out;
  transpose_into(out);
  return out;
}

void Matrix::transpose_into(Matrix& out) const {
  out.rows_ = cols_;
  out.cols_ = rows_;
  out.data_.resize(data_.size());
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out.data_[j * rows_ + i] = data_[i * cols_ + j];
}

Matrix& Matrix::operator+=(const Matrix& other) {
  MLFS_EXPECT(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  MLFS_EXPECT(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (auto& v : data_) v *= scalar;
  return *this;
}

Matrix& Matrix::add_row_broadcast(const Matrix& row_vec) {
  MLFS_EXPECT(row_vec.rows_ == 1 && row_vec.cols_ == cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) data_[i * cols_ + j] += row_vec.data_[j];
  return *this;
}

Matrix Matrix::hadamard(const Matrix& other) const {
  MLFS_EXPECT(same_shape(other));
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] *= other.data_[i];
  return out;
}

Matrix Matrix::column_sums() const {
  Matrix out(1, cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out.data_[j] += data_[i * cols_ + j];
  return out;
}

void Matrix::zero() {
  for (auto& v : data_) v = 0.0;
}

double Matrix::norm() const {
  double s = 0.0;
  for (const double v : data_) s += v * v;
  return std::sqrt(s);
}

Matrix operator+(Matrix lhs, const Matrix& rhs) {
  lhs += rhs;
  return lhs;
}

Matrix operator-(Matrix lhs, const Matrix& rhs) {
  lhs -= rhs;
  return lhs;
}

Matrix operator*(Matrix lhs, double scalar) {
  lhs *= scalar;
  return lhs;
}

void write_matrix(std::ostream& os, const Matrix& m) {
  os << m.rows() << ' ' << m.cols() << '\n' << std::setprecision(17);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (j) os << ' ';
      os << m.at(i, j);
    }
    os << '\n';
  }
}

Matrix read_matrix(std::istream& is) {
  std::size_t rows = 0;
  std::size_t cols = 0;
  is >> rows >> cols;
  MLFS_EXPECT(static_cast<bool>(is));
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) is >> m.at(i, j);
  MLFS_EXPECT(static_cast<bool>(is));
  return m;
}

}  // namespace mlfs::nn
