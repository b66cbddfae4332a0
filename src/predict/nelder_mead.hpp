// Compact Nelder-Mead simplex minimizer for the low-dimensional curve fits
// in the learning-curve predictor (2-4 parameters, smooth objectives).
// Derivative-free, so basis curves don't need hand-written gradients.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/expect.hpp"

namespace mlfs {

struct NelderMeadOptions {
  std::size_t max_iterations = 600;
  double tolerance = 1e-9;      ///< stop when simplex f-spread falls below this
  double initial_step = 0.25;   ///< relative perturbation building the simplex
};

struct NelderMeadResult {
  std::vector<double> x;
  double value = 0.0;
  std::size_t iterations = 0;
};

namespace detail {
template <typename F>
double safe_eval(const F& f, const std::vector<double>& x) {
  const double v = f(x);
  return std::isfinite(v) ? v : std::numeric_limits<double>::infinity();
}
}  // namespace detail

/// Minimizes f starting from x0. f must be finite at x0; non-finite values
/// elsewhere are treated as +inf (lets objectives reject invalid params).
/// The objective is a template parameter so each fit's lambda is called
/// (and inlined) directly.
template <typename F>
NelderMeadResult nelder_mead(const F& f, std::vector<double> x0,
                             const NelderMeadOptions& options = {}) {
  using detail::safe_eval;
  const std::size_t n = x0.size();
  MLFS_EXPECT(n >= 1);

  // Build initial simplex: x0 plus one perturbed vertex per dimension.
  std::vector<std::vector<double>> simplex;
  simplex.reserve(n + 1);
  simplex.push_back(x0);
  for (std::size_t i = 0; i < n; ++i) {
    auto v = x0;
    const double step = v[i] != 0.0 ? options.initial_step * std::abs(v[i]) : options.initial_step;
    v[i] += step;
    simplex.push_back(std::move(v));
  }
  std::vector<double> values(n + 1);
  for (std::size_t i = 0; i <= n; ++i) values[i] = safe_eval(f, simplex[i]);

  constexpr double kAlpha = 1.0;  // reflection
  constexpr double kGamma = 2.0;  // expansion
  constexpr double kRho = 0.5;    // contraction
  constexpr double kSigma = 0.5;  // shrink

  // Per-iteration scratch, sized once: no iteration allocates.
  std::vector<std::size_t> order(n + 1);
  std::vector<double> centroid(n);
  std::vector<double> reflected(n);
  std::vector<double> expanded(n);
  std::vector<double> contracted(n);

  std::size_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    // Order vertices by objective value (re-seeded with the identity each
    // round: std::sort is not stable, so ties depend on the input order).
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&values](std::size_t a, std::size_t b) { return values[a] < values[b]; });
    const std::size_t best = order.front();
    const std::size_t worst = order.back();
    const std::size_t second_worst = order[n - 1];

    if (std::isfinite(values[worst]) &&
        values[worst] - values[best] < options.tolerance) {
      // f-spread alone is not enough: a simplex straddling a minimum
      // symmetrically has equal values while still being wide. Require
      // the simplex itself to have collapsed too.
      double diameter_sq = 0.0;
      for (std::size_t i = 0; i <= n; ++i) {
        for (std::size_t d = 0; d < n; ++d) {
          const double delta = simplex[i][d] - simplex[best][d];
          diameter_sq = std::max(diameter_sq, delta * delta);
        }
      }
      if (diameter_sq < std::max(options.tolerance, 1e-14)) break;
    }

    // Centroid of all but the worst vertex.
    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == worst) continue;
      for (std::size_t d = 0; d < n; ++d) centroid[d] += simplex[i][d];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    auto combine = [&centroid, &simplex, worst, n](double coeff, std::vector<double>& out) {
      for (std::size_t d = 0; d < n; ++d) {
        out[d] = centroid[d] + coeff * (centroid[d] - simplex[worst][d]);
      }
    };

    combine(kAlpha, reflected);
    const double f_reflected = safe_eval(f, reflected);
    if (f_reflected < values[best]) {
      combine(kAlpha * kGamma, expanded);
      const double f_expanded = safe_eval(f, expanded);
      if (f_expanded < f_reflected) {
        simplex[worst] = expanded;
        values[worst] = f_expanded;
      } else {
        simplex[worst] = reflected;
        values[worst] = f_reflected;
      }
      continue;
    }
    if (f_reflected < values[second_worst]) {
      simplex[worst] = reflected;
      values[worst] = f_reflected;
      continue;
    }
    combine(-kRho, contracted);
    const double f_contracted = safe_eval(f, contracted);
    if (f_contracted < values[worst]) {
      simplex[worst] = contracted;
      values[worst] = f_contracted;
      continue;
    }
    // Shrink toward the best vertex.
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == best) continue;
      for (std::size_t d = 0; d < n; ++d) {
        simplex[i][d] = simplex[best][d] + kSigma * (simplex[i][d] - simplex[best][d]);
      }
      values[i] = safe_eval(f, simplex[i]);
    }
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (values[i] < values[best]) best = i;
  }
  return {simplex[best], values[best], iter};
}

}  // namespace mlfs
