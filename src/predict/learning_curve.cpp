#include "predict/learning_curve.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <tuple>
#include <utility>

#include "common/expect.hpp"

namespace mlfs {

namespace curve_detail {

namespace {

/// MMF/hyperbolic saturation: a * x / (x + k). Matches the simulator's
/// ground-truth family (recoverable exactly), k > 0 via exp transform.
double basis_mmf(const std::vector<double>& p, double x) {
  const double a = p[0];
  const double k = std::exp(p[1]);
  return a * x / (x + k);
}

/// pow3: c - a * x^(-alpha), alpha > 0.
double basis_pow3(const std::vector<double>& p, double x) {
  const double c = p[0];
  const double a = p[1];
  const double alpha = std::exp(p[2]);
  return c - a * std::pow(x, -alpha);
}

/// ilog: c - a / ln(x + e).
double basis_ilog(const std::vector<double>& p, double x) {
  const double c = p[0];
  const double a = p[1];
  return c - a / std::log(x + std::numbers::e);
}

/// pow3's log-alpha search: scan points kPow3ScanSpacing * k for |k| <=
/// kPow3ScanSteps (alpha from ~0.0025 to ~400), then a one-dimensional
/// Nelder-Mead run to a tighter tolerance than the default, which is cheap
/// in one dimension.
constexpr int kPow3ScanSteps = 12;
constexpr double kPow3ScanSpacing = 0.5;
constexpr double kPow3Tolerance = 1e-15;

double x_at(FitPoints points, std::size_t i) {
  return points.x.empty() ? static_cast<double>(i + 1) : points.x[i];
}

/// Least-squares (c, a) of y ~ c - a * u from centred sums. A u without
/// spread, or a slope that overflows, leaves a = 0 and c = mean(y).
std::pair<double, double> linear_coefficients(std::span<const double> u,
                                              std::span<const double> y) {
  const double n = static_cast<double>(y.size());
  double u_mean = 0.0;
  double y_mean = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    u_mean += u[i];
    y_mean += y[i];
  }
  u_mean /= n;
  y_mean /= n;
  double suu = 0.0;
  double suy = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double du = u[i] - u_mean;
    suu += du * du;
    suy += du * (y[i] - y_mean);
  }
  double a = suu > 0.0 ? -suy / suu : 0.0;
  if (!std::isfinite(a)) a = 0.0;
  return {y_mean + a * u_mean, a};
}

}  // namespace

const std::vector<Basis>& bases() {
  static const std::vector<Basis> kBases = {
      {"mmf", BasisKind::Mmf, basis_mmf, {0.9, std::log(8.0)}},
      {"pow3", BasisKind::Pow3, basis_pow3, {0.9, 0.9, std::log(0.7)}},
      {"ilog", BasisKind::Ilog, basis_ilog, {1.0, 1.0}},
  };
  return kBases;
}

double fit_residual(const Basis& basis, const std::vector<double>& params, FitPoints points) {
  // Each loop repeats its basis_* expression term for term, so every
  // point's arithmetic (and the summation order) is unchanged.
  const std::span<const double> observed = points.y;
  const std::size_t n = observed.size();
  double sq = 0.0;
  switch (basis.kind) {
    case BasisKind::Mmf: {
      const double a = params[0];
      const double k = std::exp(params[1]);
      for (std::size_t i = 0; i < n; ++i) {
        const double x = x_at(points, i);
        const double err = a * x / (x + k) - observed[i];
        sq += err * err;
      }
      break;
    }
    case BasisKind::Pow3: {
      const double c = params[0];
      const double a = params[1];
      const double alpha = std::exp(params[2]);
      for (std::size_t i = 0; i < n; ++i) {
        const double x = x_at(points, i);
        const double err = c - a * std::pow(x, -alpha) - observed[i];
        sq += err * err;
      }
      break;
    }
    case BasisKind::Ilog: {
      const double c = params[0];
      const double a = params[1];
      for (std::size_t i = 0; i < n; ++i) {
        const double err = c - a / std::log(x_at(points, i) + std::numbers::e) - observed[i];
        sq += err * err;
      }
      break;
    }
  }
  return sq / static_cast<double>(n);
}

FitResult fit_basis(const Basis& basis, FitPoints points, const std::vector<double>& start,
                    double initial_step) {
  const std::span<const double> y = points.y;
  const std::size_t n = y.size();
  MLFS_EXPECT(n >= 2);
  MLFS_EXPECT(points.x.empty() || points.x.size() == n);
  NelderMeadOptions options;
  options.initial_step = initial_step;
  std::size_t evaluations = 0;
  switch (basis.kind) {
    case BasisKind::Mmf: {
      NelderMeadResult r = nelder_mead(
          [&](const std::vector<double>& p) {
            ++evaluations;
            return fit_residual(basis, p, points);
          },
          start, options);
      return {std::move(r.x), r.value, evaluations};
    }
    case BasisKind::Pow3: {
      // Variable projection: for a fixed alpha, c - a * x^-alpha is linear
      // in (c, a), so the search runs over log alpha alone. The residual
      // repeats fit_residual's pow3 expression term for term.
      std::vector<double> u(n);
      double c = 0.0;
      double a = 0.0;
      const auto project = [&](double log_alpha) {
        const double alpha = std::exp(log_alpha);
        for (std::size_t i = 0; i < n; ++i) u[i] = std::pow(x_at(points, i), -alpha);
        std::tie(c, a) = linear_coefficients(u, y);
        double sq = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double err = c - a * u[i] - y[i];
          sq += err * err;
        }
        ++evaluations;
        return sq / static_cast<double>(n);
      };
      // The projected residual can have two basins (alpha -> 0 tends to a
      // log-linear fit, a large alpha fits the first point alone), so the
      // search starts from the best of `start` and a coarse scan.
      double seed = start[2];
      double seed_value = project(seed);
      for (int k = -kPow3ScanSteps; k <= kPow3ScanSteps; ++k) {
        const double log_alpha = kPow3ScanSpacing * k;
        const double value = project(log_alpha);
        if (value < seed_value) {
          seed = log_alpha;
          seed_value = value;
        }
      }
      options.tolerance = kPow3Tolerance;
      const NelderMeadResult r = nelder_mead(
          [&](const std::vector<double>& t) { return project(t[0]); }, {seed}, options);
      const double value = project(r.x[0]);  // leaves (c, a) at the best log alpha
      return {{c, a, r.x[0]}, value, evaluations};
    }
    case BasisKind::Ilog:
      break;
  }
  // ilog, c - a / ln(x + e), is linear in (c, a): one closed-form solve.
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 1.0 / std::log(x_at(points, i) + std::numbers::e);
  const auto [c, a] = linear_coefficients(v, y);
  std::vector<double> params = {c, a};
  const double value = fit_residual(basis, params, points);
  return {std::move(params), value, 1};
}

CurvePrediction combine_fits(const std::vector<BasisFit>& fits) {
  // Weight each basis by its goodness of fit (Gaussian kernel on RMSE).
  // The bandwidth adapts to the best fit: a basis that explains the data
  // an order of magnitude worse than the best contributes ~nothing, so a
  // family member that fits exactly dominates the extrapolation.
  double best_rmse_for_scale = fits.front().rmse;
  for (const auto& f : fits) best_rmse_for_scale = std::min(best_rmse_for_scale, f.rmse);
  const double scale = std::max(2.0 * best_rmse_for_scale, 1e-3);
  double weight_sum = 0.0;
  std::vector<double> weights(fits.size());
  for (std::size_t i = 0; i < fits.size(); ++i) {
    const double z = fits[i].rmse / scale;
    weights[i] = std::exp(-0.5 * z * z) + 1e-12;
    weight_sum += weights[i];
  }
  double prediction = 0.0;
  for (std::size_t i = 0; i < fits.size(); ++i) {
    prediction += weights[i] / weight_sum * fits[i].prediction;
  }

  // Confidence: agreement between bases + best-fit quality. Weighted std
  // of per-basis predictions measures extrapolation disagreement.
  double var = 0.0;
  for (std::size_t i = 0; i < fits.size(); ++i) {
    const double d = fits[i].prediction - prediction;
    var += weights[i] / weight_sum * d * d;
  }
  const double spread = std::sqrt(var);
  double best_rmse = fits.front().rmse;
  for (const auto& f : fits) best_rmse = std::min(best_rmse, f.rmse);
  const double confidence =
      std::exp(-spread / kCurveResidualScale) * std::exp(-best_rmse / kCurveResidualScale);
  return {std::clamp(prediction, 0.0, 1.0), std::clamp(confidence, 0.0, 1.0)};
}

}  // namespace curve_detail

std::vector<std::string> LearningCurvePredictor::basis_names() {
  std::vector<std::string> names;
  for (const auto& b : curve_detail::bases()) names.emplace_back(b.name);
  return names;
}

CurvePrediction LearningCurvePredictor::predict_at(std::span<const double> observed,
                                                   int target_iteration) const {
  MLFS_EXPECT(target_iteration >= 1);
  if (observed.size() < kMinCurveObservations) {
    return {observed.empty() ? 0.0 : observed.back(), 0.0};
  }

  std::vector<curve_detail::BasisFit> fits;
  fits.reserve(curve_detail::bases().size());
  for (const curve_detail::Basis& basis : curve_detail::bases()) {
    const auto result = curve_detail::fit_basis(basis, {observed}, basis.init);
    curve_detail::BasisFit fit;
    fit.rmse = std::sqrt(std::max(result.value, 0.0));
    fit.prediction =
        std::clamp(basis.eval(result.params, static_cast<double>(target_iteration)), 0.0, 1.0);
    fits.push_back(fit);
  }
  return curve_detail::combine_fits(fits);
}

}  // namespace mlfs
