// Bitwise equivalence of the curve-fit kernel against its reference forms.
//
// curve_detail::fit_residual runs one specialised loop per basis (hoisted
// exp() transforms); it must equal the generic basis.eval loop bit for
// bit, overflowing params included. nelder_mead
// keeps its per-iteration buffers outside the loop; it must return the
// same x, value and iteration count as the allocating implementation,
// which is kept below as a test-only reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "predict/learning_curve.hpp"
#include "predict/nelder_mead.hpp"

namespace mlfs {
namespace {

using curve_detail::Basis;

double generic_residual(const Basis& basis, const std::vector<double>& params,
                        std::span<const double> observed) {
  double sq = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double x = static_cast<double>(i + 1);
    const double err = basis.eval(params, x) - observed[i];
    sq += err * err;
  }
  return sq / static_cast<double>(observed.size());
}

/// Reference Nelder-Mead: the implementation that allocated its order,
/// centroid and trial points afresh on every iteration.
NelderMeadResult reference_nelder_mead(
    const std::function<double(const std::vector<double>&)>& f, std::vector<double> x0,
    const NelderMeadOptions& options = {}) {
  const auto safe_eval = [&f](const std::vector<double>& x) {
    const double v = f(x);
    return std::isfinite(v) ? v : std::numeric_limits<double>::infinity();
  };
  const std::size_t n = x0.size();
  std::vector<std::vector<double>> simplex;
  simplex.push_back(x0);
  for (std::size_t i = 0; i < n; ++i) {
    auto v = x0;
    const double step = v[i] != 0.0 ? options.initial_step * std::abs(v[i]) : options.initial_step;
    v[i] += step;
    simplex.push_back(std::move(v));
  }
  std::vector<double> values(n + 1);
  for (std::size_t i = 0; i <= n; ++i) values[i] = safe_eval(simplex[i]);

  std::size_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    std::vector<std::size_t> order(n + 1);
    for (std::size_t i = 0; i <= n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&values](std::size_t a, std::size_t b) { return values[a] < values[b]; });
    const std::size_t best = order.front();
    const std::size_t worst = order.back();
    const std::size_t second_worst = order[n - 1];
    if (std::isfinite(values[worst]) && values[worst] - values[best] < options.tolerance) {
      double diameter_sq = 0.0;
      for (std::size_t i = 0; i <= n; ++i) {
        for (std::size_t d = 0; d < n; ++d) {
          const double delta = simplex[i][d] - simplex[best][d];
          diameter_sq = std::max(diameter_sq, delta * delta);
        }
      }
      if (diameter_sq < std::max(options.tolerance, 1e-14)) break;
    }
    std::vector<double> centroid(n, 0.0);
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == worst) continue;
      for (std::size_t d = 0; d < n; ++d) centroid[d] += simplex[i][d];
    }
    for (double& c : centroid) c /= static_cast<double>(n);
    auto combine = [&centroid, &simplex, worst, n](double coeff) {
      std::vector<double> out(n);
      for (std::size_t d = 0; d < n; ++d) {
        out[d] = centroid[d] + coeff * (centroid[d] - simplex[worst][d]);
      }
      return out;
    };
    const auto reflected = combine(1.0);
    const double f_reflected = safe_eval(reflected);
    if (f_reflected < values[best]) {
      const auto expanded = combine(2.0);
      const double f_expanded = safe_eval(expanded);
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
    const auto contracted = combine(-0.5);
    const double f_contracted = safe_eval(contracted);
    if (f_contracted < values[worst]) {
      simplex[worst] = contracted;
      values[worst] = f_contracted;
      continue;
    }
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == best) continue;
      for (std::size_t d = 0; d < n; ++d) {
        simplex[i][d] = simplex[best][d] + 0.5 * (simplex[i][d] - simplex[best][d]);
      }
      values[i] = safe_eval(simplex[i]);
    }
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (values[i] < values[best]) best = i;
  }
  return {simplex[best], values[best], iter};
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A noisy saturating curve: what the predictor sees in the simulator.
std::vector<double> noisy_curve(Rng& rng, std::size_t n) {
  const double a = rng.uniform(0.5, 0.99);
  const double k = rng.uniform(2.0, 60.0);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i + 1);
    y[i] = a * x / (x + k) + rng.normal(0.0, 0.01);
  }
  return y;
}

/// Params for one basis: mostly moderate, sometimes extreme enough that
/// the exp() transform overflows to inf or underflows to 0.
std::vector<double> random_params(Rng& rng, std::size_t dims) {
  std::vector<double> p(dims);
  for (double& v : p) {
    const double pick = rng.uniform();
    if (pick < 0.1) {
      v = rng.uniform(710.0, 1000.0);  // exp overflows
    } else if (pick < 0.2) {
      v = -rng.uniform(710.0, 1000.0);  // exp underflows
    } else {
      v = rng.normal(0.0, 3.0);
    }
  }
  return p;
}

TEST(FitKernel, ResidualMatchesGenericLoopBitForBit) {
  Rng rng(20260417);
  for (const Basis& basis : curve_detail::bases()) {
    for (std::size_t n = 1; n <= 512; ++n) {
      const std::vector<double> observed = noisy_curve(rng, n);
      for (int trial = 0; trial < 3; ++trial) {
        const std::vector<double> params = random_params(rng, basis.init.size());
        const double fast = curve_detail::fit_residual(basis, params, observed);
        const double slow = generic_residual(basis, params, observed);
        ASSERT_EQ(bits(fast), bits(slow))
            << basis.name << " n=" << n << " fast=" << fast << " slow=" << slow;
      }
    }
  }
}

TEST(FitKernel, ResidualMatchesPastTheLogTable) {
  // Curves far longer than the ones above.
  Rng rng(7);
  const std::vector<double> observed = noisy_curve(rng, 5000);
  for (const Basis& basis : curve_detail::bases()) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::vector<double> params = random_params(rng, basis.init.size());
      EXPECT_EQ(bits(curve_detail::fit_residual(basis, params, observed)),
                bits(generic_residual(basis, params, observed)))
          << basis.name;
    }
  }
}

void expect_same_result(const NelderMeadResult& got, const NelderMeadResult& want,
                        const char* what) {
  ASSERT_EQ(got.x.size(), want.x.size()) << what;
  for (std::size_t d = 0; d < got.x.size(); ++d) {
    EXPECT_EQ(bits(got.x[d]), bits(want.x[d])) << what << " x[" << d << "]";
  }
  EXPECT_EQ(bits(got.value), bits(want.value)) << what;
  EXPECT_EQ(got.iterations, want.iterations) << what;
}

TEST(FitKernel, NelderMeadMatchesReferenceOnEveryBasis) {
  Rng rng(99);
  for (const Basis& basis : curve_detail::bases()) {
    for (const std::size_t n : {3u, 5u, 17u, 60u, 240u}) {
      const std::vector<double> observed = noisy_curve(rng, n);
      const auto objective = [&basis, &observed](const std::vector<double>& p) {
        return curve_detail::fit_residual(basis, p, observed);
      };
      // Cold start from the basis seed, then warm starts with the narrow
      // steps the prediction service uses.
      expect_same_result(nelder_mead(objective, basis.init),
                         reference_nelder_mead(objective, basis.init), basis.name);
      for (const double step : {0.25, 0.01, 1e-4}) {
        NelderMeadOptions opts;
        opts.initial_step = step;
        std::vector<double> start = basis.init;
        for (double& v : start) v += rng.normal(0.0, 0.5);
        expect_same_result(nelder_mead(objective, start, opts),
                           reference_nelder_mead(objective, start, opts), basis.name);
      }
    }
  }
}

TEST(FitKernel, NelderMeadMatchesReferenceOnRosenbrock4D) {
  const auto rosenbrock = [](const std::vector<double>& x) {
    double sum = 0.0;
    for (std::size_t i = 0; i + 1 < x.size(); ++i) {
      const double a = 1.0 - x[i];
      const double b = x[i + 1] - x[i] * x[i];
      sum += a * a + 100.0 * b * b;
    }
    return sum;
  };
  NelderMeadOptions opts;
  opts.max_iterations = 5000;
  const std::vector<double> start = {-1.2, 1.0, -0.5, 0.8};
  const NelderMeadResult got = nelder_mead(rosenbrock, start, opts);
  expect_same_result(got, reference_nelder_mead(rosenbrock, start, opts), "rosenbrock-4d");
  EXPECT_GT(got.iterations, 100u);  // a long run, not an early exit
}

}  // namespace
}  // namespace mlfs
