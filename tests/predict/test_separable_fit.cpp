// Separable curve fits (curve_detail::fit_basis).
//
// pow3 and ilog have coefficients that enter linearly: pow3 solves (c, a)
// in closed form and searches log alpha alone, ilog is one closed-form
// solve. These tests pin that the separable fits are never worse than the
// full-dimensional Nelder-Mead they replace, recover exact curves of their
// own family, stay finite on degenerate inputs, and give the same bits for
// implicit and explicit x. mmf keeps its full Nelder-Mead fit, bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "predict/learning_curve.hpp"
#include "predict/nelder_mead.hpp"

namespace mlfs {
namespace {

using curve_detail::Basis;
using curve_detail::FitPoints;
using curve_detail::FitResult;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

const Basis& basis_named(const std::string& name) {
  for (const Basis& b : curve_detail::bases()) {
    if (name == b.name) return b;
  }
  throw std::invalid_argument(name);
}

/// Upper bound on residual evaluations of one fit: Nelder-Mead's iteration
/// cap at two evaluations per iteration, plus a fixed allowance for its
/// initial simplex and pow3's seed scan and final solve.
std::size_t evaluation_bound() { return 2 * NelderMeadOptions{}.max_iterations + 64; }

/// What the simulator feeds the predictor: a noisy mmf curve.
std::vector<double> mmf_shaped(Rng& rng, std::size_t n) {
  const double a = rng.uniform(0.5, 0.99);
  const double k = rng.uniform(2.0, 60.0);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i + 1);
    y[i] = a * x / (x + k) + rng.normal(0.0, 0.01);
  }
  return y;
}

std::vector<double> uniform_noise(Rng& rng, std::size_t n) {
  std::vector<double> y(n);
  for (double& v : y) v = rng.uniform();
  return y;
}

double full_nelder_mead_value(const Basis& basis, std::span<const double> y) {
  const auto objective = [&](const std::vector<double>& p) {
    return curve_detail::fit_residual(basis, p, y);
  };
  return nelder_mead(objective, basis.init).value;
}

void expect_finite(const FitResult& r, const std::string& what) {
  for (const double p : r.params) EXPECT_TRUE(std::isfinite(p)) << what;
  EXPECT_TRUE(std::isfinite(r.value)) << what;
  EXPECT_GE(r.evaluations, 1u) << what;
  EXPECT_LE(r.evaluations, evaluation_bound()) << what;
}

TEST(SeparableFit, NeverWorseThanFullNelderMead) {
  Rng rng(20261017);
  const std::vector<std::size_t> lengths = {3, 4, 5, 6, 8, 10, 13, 17, 24, 32,
                                            48, 64, 100, 128, 200, 256, 384, 512};
  for (const char* name : {"pow3", "ilog"}) {
    const Basis& basis = basis_named(name);
    for (const std::size_t n : lengths) {
      for (int trial = 0; trial < 6; ++trial) {
        const std::vector<double> y = trial % 2 == 0 ? mmf_shaped(rng, n) : uniform_noise(rng, n);
        const FitResult sep = curve_detail::fit_basis(basis, {y}, basis.init);
        const double full = full_nelder_mead_value(basis, y);
        EXPECT_LE(sep.value, full + 1e-15)
            << name << " n=" << n << " trial=" << trial << " separable=" << sep.value
            << " full=" << full;
      }
    }
  }
}

TEST(SeparableFit, ValueIsTheResidualOfTheReturnedParams) {
  Rng rng(5);
  for (const Basis& basis : curve_detail::bases()) {
    for (const std::size_t n : {3u, 9u, 40u, 300u}) {
      const std::vector<double> y = mmf_shaped(rng, n);
      const FitResult r = curve_detail::fit_basis(basis, {y}, basis.init);
      ASSERT_EQ(r.params.size(), basis.init.size()) << basis.name;
      EXPECT_EQ(bits(r.value), bits(curve_detail::fit_residual(basis, r.params, y)))
          << basis.name << " n=" << n;
    }
  }
}

TEST(SeparableFit, MmfKeepsItsFullNelderMeadFitBitForBit) {
  const Basis& mmf = basis_named("mmf");
  Rng rng(11);
  for (const std::size_t n : {3u, 12u, 90u}) {
    const std::vector<double> y = mmf_shaped(rng, n);
    for (const double step : {0.25, 0.02}) {
      NelderMeadOptions opts;
      opts.initial_step = step;
      std::size_t evals = 0;
      const NelderMeadResult want = nelder_mead(
          [&](const std::vector<double>& p) {
            ++evals;
            return curve_detail::fit_residual(mmf, p, y);
          },
          mmf.init, opts);
      const FitResult got = curve_detail::fit_basis(mmf, {y}, mmf.init, step);
      ASSERT_EQ(got.params.size(), want.x.size());
      for (std::size_t d = 0; d < want.x.size(); ++d) {
        EXPECT_EQ(bits(got.params[d]), bits(want.x[d])) << "n=" << n;
      }
      EXPECT_EQ(bits(got.value), bits(want.value)) << "n=" << n;
      EXPECT_EQ(got.evaluations, evals) << "n=" << n;
    }
  }
}

TEST(SeparableFit, Pow3RecoversAnExactPow3Curve) {
  const Basis& pow3 = basis_named("pow3");
  struct Case {
    double c, a, alpha;
  };
  for (const Case& t : {Case{0.85, 0.6, 0.5}, Case{0.95, 0.9, 1.3}, Case{0.7, 0.3, 0.2}}) {
    std::vector<double> y(60);
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] = t.c - t.a * std::pow(static_cast<double>(i + 1), -t.alpha);
    }
    const FitResult r = curve_detail::fit_basis(pow3, {y}, pow3.init);
    EXPECT_NEAR(r.params[0], t.c, 1e-3 * t.c);
    EXPECT_NEAR(r.params[1], t.a, 1e-3 * t.a);
    EXPECT_NEAR(std::exp(r.params[2]), t.alpha, 1e-3 * t.alpha);
    EXPECT_LT(r.value, 1e-12);
  }
}

TEST(SeparableFit, IlogRecoversAnExactIlogCurve) {
  const Basis& ilog = basis_named("ilog");
  for (const std::vector<double>& truth :
       {std::vector<double>{0.9, 0.8}, std::vector<double>{0.6, -0.2}}) {
    std::vector<double> y(25);
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] = ilog.eval(truth, static_cast<double>(i + 1));
    }
    const FitResult r = curve_detail::fit_basis(ilog, {y}, ilog.init);
    EXPECT_NEAR(r.params[0], truth[0], 1e-9);
    EXPECT_NEAR(r.params[1], truth[1], 1e-9);
    EXPECT_LT(r.value, 1e-24);
    EXPECT_EQ(r.evaluations, 1u);
  }
}

TEST(SeparableFit, DegenerateInputsStayFiniteAndBounded) {
  const std::size_t min_n = kMinCurveObservations;
  std::vector<std::pair<std::string, std::vector<double>>> inputs;
  inputs.emplace_back("constant", std::vector<double>(20, 0.42));
  std::vector<double> log_curve(40);  // pow3's optimum sits at alpha -> 0
  for (std::size_t i = 0; i < log_curve.size(); ++i) {
    log_curve[i] = 0.1 + 0.05 * std::log(static_cast<double>(i + 1));
  }
  inputs.emplace_back("pure-log", log_curve);
  inputs.emplace_back("min-observations", std::vector<double>{0.2, 0.35, 0.41});
  ASSERT_EQ(inputs.back().second.size(), min_n);
  inputs.emplace_back("min-observations-flat", std::vector<double>(min_n, 0.3));

  for (const auto& [what, y] : inputs) {
    for (const Basis& basis : curve_detail::bases()) {
      const FitResult r = curve_detail::fit_basis(basis, {y}, basis.init);
      expect_finite(r, what + "/" + basis.name);
    }
  }
  // A constant is fitted by pow3 and ilog with a ~ 0, to rounding.
  for (const char* name : {"pow3", "ilog"}) {
    const FitResult r = curve_detail::fit_basis(basis_named(name), {inputs[0].second},
                                                basis_named(name).init);
    EXPECT_LT(r.value, 1e-30) << name;
    EXPECT_LT(std::abs(r.params[1]), 1e-12) << name;
    EXPECT_NEAR(r.params[0], 0.42, 1e-12) << name;
  }
}

TEST(SeparableFit, ImplicitAndExplicitXAreBitEqual) {
  Rng rng(31);
  // 5000 points run ilog past its log table.
  for (const std::size_t n : {3u, 17u, 130u, 5000u}) {
    const std::vector<double> y = mmf_shaped(rng, n);
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i + 1);
    for (const Basis& basis : curve_detail::bases()) {
      const FitResult implicit_x = curve_detail::fit_basis(basis, {y}, basis.init, 0.1);
      const FitResult explicit_x = curve_detail::fit_basis(basis, {y, x}, basis.init, 0.1);
      ASSERT_EQ(implicit_x.params.size(), explicit_x.params.size());
      for (std::size_t d = 0; d < implicit_x.params.size(); ++d) {
        EXPECT_EQ(bits(implicit_x.params[d]), bits(explicit_x.params[d]))
            << basis.name << " n=" << n << " d=" << d;
      }
      EXPECT_EQ(bits(implicit_x.value), bits(explicit_x.value)) << basis.name << " n=" << n;
      EXPECT_EQ(implicit_x.evaluations, explicit_x.evaluations) << basis.name << " n=" << n;
      EXPECT_EQ(bits(curve_detail::fit_residual(basis, implicit_x.params, FitPoints{y})),
                bits(curve_detail::fit_residual(basis, implicit_x.params, FitPoints{y, x})))
          << basis.name << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace mlfs
