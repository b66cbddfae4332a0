// Dense row-major matrix for the from-scratch neural-net substrate.
// Deliberately small: exactly the operations the MLP and policy-gradient
// code need, each one tested against hand values and finite differences.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace mlfs::nn {

/// Row-major dense matrix of doubles. A 1xN matrix doubles as a row vector.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Builds a 1xN row vector from values.
  static Matrix row(const std::vector<double>& values);

  /// He/Glorot-style scaled uniform init for a dense layer's weights.
  static Matrix glorot(std::size_t rows, std::size_t cols, Rng& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  std::vector<double>& raw() { return data_; }
  const std::vector<double>& raw() const { return data_; }

  /// this @ other. Requires cols() == other.rows(). Each row goes through
  /// matmul_row, so every output keeps its k-ascending sum.
  Matrix matmul(const Matrix& other) const;

  /// this^T as a new matrix.
  Matrix transposed() const;

  /// this^T into `out`, reusing its storage.
  void transpose_into(Matrix& out) const;

  /// Elementwise in-place ops; shapes must match exactly.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  /// Adds a 1xC row vector to every row (bias broadcast).
  Matrix& add_row_broadcast(const Matrix& row_vec);

  /// Elementwise product (Hadamard) as a new matrix.
  Matrix hadamard(const Matrix& other) const;

  /// Column-wise sum as a 1xC matrix (bias gradient).
  Matrix column_sums() const;

  /// Sets every element to zero.
  void zero();

  /// Frobenius norm.
  double norm() const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// The one multiply kernel under every layer (DESIGN.md §5f): for each
/// j < cols,
///   out[j] = (((+0.0 + x[k0]·w[k0][j]) + x[k1]·w[k1][j]) + ...) + bias[j]
/// over k = 0..depth-1 in ascending order, where x[k] is
/// x[k * x_stride], w is row-major depth x cols, and every term whose
/// x[k] == 0.0 is skipped (so a zero input never turns an inf weight into
/// NaN). The bias, when non-null, is added once after the full sum; it may
/// alias `out`, which makes the call `out += x·w` with the fresh sum formed
/// first. Up to sixteen outputs are accumulated per pass in vector
/// registers, so the row costs about a third of a scalar loop while every
/// output stays bitwise equal to the scalar sum (no contraction into FMA:
/// the build is ISO C++, where GCC keeps -ffp-contract=off).
void matmul_row(const double* x, std::size_t x_stride, std::size_t depth, const double* w,
                std::size_t cols, const double* bias, double* out);

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix lhs, double scalar);

/// Text serialization: "rows cols v00 v01 ...". Round-trips exactly enough
/// for checkpointing policies (uses max_digits10).
void write_matrix(std::ostream& os, const Matrix& m);
Matrix read_matrix(std::istream& is);

}  // namespace mlfs::nn
