#include "predict/learning_curve.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/expect.hpp"
#include "predict/nelder_mead.hpp"

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

/// ln(x + e) at x = i + 1 for the first kLogTableSize points, built once
/// (thread-safe static init); longer curves compute the tail directly.
constexpr std::size_t kLogTableSize = 4096;

const std::vector<double>& ilog_denominators() {
  static const std::vector<double> kTable = [] {
    std::vector<double> t(kLogTableSize);
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = std::log(static_cast<double>(i + 1) + std::numbers::e);
    }
    return t;
  }();
  return kTable;
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

double fit_residual(const Basis& basis, const std::vector<double>& params,
                    std::span<const double> observed) {
  // Each loop repeats its basis_* expression term for term, so every
  // point's arithmetic (and the summation order) is unchanged.
  const std::size_t n = observed.size();
  double sq = 0.0;
  switch (basis.kind) {
    case BasisKind::Mmf: {
      const double a = params[0];
      const double k = std::exp(params[1]);
      for (std::size_t i = 0; i < n; ++i) {
        const double x = static_cast<double>(i + 1);
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
        const double x = static_cast<double>(i + 1);
        const double err = c - a * std::pow(x, -alpha) - observed[i];
        sq += err * err;
      }
      break;
    }
    case BasisKind::Ilog: {
      const double c = params[0];
      const double a = params[1];
      const std::vector<double>& log_table = ilog_denominators();
      const std::size_t tabled = std::min(n, log_table.size());
      for (std::size_t i = 0; i < tabled; ++i) {
        const double err = c - a / log_table[i] - observed[i];
        sq += err * err;
      }
      for (std::size_t i = tabled; i < n; ++i) {
        const double err = basis_ilog(params, static_cast<double>(i + 1)) - observed[i];
        sq += err * err;
      }
      break;
    }
  }
  return sq / static_cast<double>(n);
}

CurvePrediction combine_fits(const std::vector<BasisFit>& fits, double residual_scale) {
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
      std::exp(-spread / residual_scale) * std::exp(-best_rmse / residual_scale);
  return {std::clamp(prediction, 0.0, 1.0), std::clamp(confidence, 0.0, 1.0)};
}

}  // namespace curve_detail

LearningCurvePredictor::LearningCurvePredictor(const LearningCurveConfig& config)
    : config_(config) {
  MLFS_EXPECT(config_.min_observations >= 2);
  MLFS_EXPECT(config_.residual_scale > 0.0);
}

std::vector<std::string> LearningCurvePredictor::basis_names() {
  std::vector<std::string> names;
  for (const auto& b : curve_detail::bases()) names.emplace_back(b.name);
  return names;
}

CurvePrediction LearningCurvePredictor::predict_at(std::span<const double> observed,
                                                   int target_iteration) const {
  MLFS_EXPECT(target_iteration >= 1);
  if (observed.size() < config_.min_observations) {
    return {observed.empty() ? 0.0 : observed.back(), 0.0};
  }

  std::vector<curve_detail::BasisFit> fits;
  fits.reserve(curve_detail::bases().size());
  for (const curve_detail::Basis& basis : curve_detail::bases()) {
    auto objective = [&basis, observed](const std::vector<double>& p) {
      return curve_detail::fit_residual(basis, p, observed);
    };
    const auto result = nelder_mead(objective, basis.init);
    curve_detail::BasisFit fit;
    fit.rmse = std::sqrt(std::max(result.value, 0.0));
    fit.prediction =
        std::clamp(basis.eval(result.x, static_cast<double>(target_iteration)), 0.0, 1.0);
    fits.push_back(fit);
  }
  return curve_detail::combine_fits(fits, config_.residual_scale);
}

}  // namespace mlfs
