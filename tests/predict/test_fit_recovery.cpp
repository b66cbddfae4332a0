// Parameter-recovery tests for the prediction substrate: the learning-
// curve fit must recover the generating curve's parameters (asymptote and
// half-saturation point), and Nelder-Mead must converge on harder,
// higher-dimensional valleys than the 2-D cases in test_nelder_mead.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "predict/learning_curve.hpp"
#include "predict/nelder_mead.hpp"
#include "predict/service.hpp"
#include "workload/model_zoo.hpp"

namespace mlfs {
namespace {

std::vector<double> hyperbolic_samples(double a_max, double kappa, int n) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 1; i <= n; ++i) out.push_back(a_max * i / (i + kappa));
  return out;
}

TEST(FitRecovery, AsymptoteRecoveredFromPrefix) {
  // Predicting far past the horizon exposes the fitted asymptote: for
  // a(t) = a_max * t / (t + kappa), a(10^6) ≈ a_max to 4 decimal places.
  const LearningCurvePredictor predictor;
  for (const auto& [a_max, kappa] : {std::pair{0.92, 8.0}, {0.75, 20.0}, {0.6, 3.5}}) {
    const auto observed = hyperbolic_samples(a_max, kappa, 40);
    const auto prediction = predictor.predict_at(observed, 1'000'000);
    EXPECT_NEAR(prediction.accuracy, a_max, 0.02) << "a_max=" << a_max << " kappa=" << kappa;
  }
}

TEST(FitRecovery, HalfSaturationPointRecovered) {
  // a(kappa) = a_max / 2 — a pure property of the generating parameters,
  // so hitting it from a 40-point prefix means the fit recovered both.
  const LearningCurvePredictor predictor;
  const double a_max = 0.88;
  const double kappa = 64.0;
  const auto observed = hyperbolic_samples(a_max, kappa, 40);
  const auto prediction = predictor.predict_at(observed, static_cast<int>(kappa));
  EXPECT_NEAR(prediction.accuracy, a_max / 2.0, 0.02);
}

TEST(FitRecovery, ExtrapolationBeatsLastObservationBaseline) {
  // The whole point of fitting: on a still-rising curve, the prediction
  // at 8x the horizon must be much closer to the truth than the naive
  // "accuracy stays where it is" baseline.
  const LearningCurvePredictor predictor;
  const auto observed = hyperbolic_samples(0.9, 30.0, 25);
  const double truth = 0.9 * 200.0 / 230.0;
  const auto prediction = predictor.predict_at(observed, 200);
  const double fit_error = std::abs(prediction.accuracy - truth);
  const double naive_error = std::abs(observed.back() - truth);
  EXPECT_LT(fit_error, naive_error / 4.0);
}

TEST(FitRecovery, WarmStartedChainRecoversLikeColdFits) {
  // The service's warm-started chain is an optimization, not a different
  // estimator: at the chain tip it must recover the generating curve as
  // well as an independent cold fit on the same prefix does.
  const double a_max = 0.88;
  const double kappa = 12.0;
  JobSpec spec;
  spec.id = 0;
  spec.gpu_request = 2;
  spec.max_iterations = 1000;
  spec.stop_policy = StopPolicy::OptStop;
  spec.min_allowed_policy = StopPolicy::OptStop;
  spec.curve.max_accuracy = a_max;
  spec.curve.kappa = kappa;
  spec.seed = 7;
  Job job = std::move(ModelZoo::instantiate(spec, 0).job);

  PredictionService service(/*check_interval=*/4);
  CurvePrediction chain_tip{0.0, 0.0};
  for (int i = 0; i < 40; ++i) {
    job.complete_iteration();
    service.on_iteration_complete(job);
    if (job.completed_iterations() % 4 == 0) chain_tip = service.predict_at_max(job);
  }
  // 10 warm links deep by now — the chain must have warm-started fits.
  EXPECT_GT(service.stats().fits_warm, 0u);

  const auto observed = hyperbolic_samples(a_max, kappa, 40);
  const LearningCurvePredictor predictor;
  const CurvePrediction cold = predictor.predict_at(observed, 1000);
  const double truth = a_max * 1000.0 / (1000.0 + kappa);
  EXPECT_NEAR(chain_tip.accuracy, truth, 0.02);
  EXPECT_NEAR(chain_tip.accuracy, cold.accuracy, 0.02);
}

double rosenbrock(const std::vector<double>& x) {
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    const double a = x[i + 1] - x[i] * x[i];
    const double b = 1.0 - x[i];
    total += 100.0 * a * a + b * b;
  }
  return total;
}

TEST(FitRecovery, NelderMeadRosenbrock4D) {
  NelderMeadOptions options;
  options.max_iterations = 20000;
  options.tolerance = 1e-14;
  const auto result = nelder_mead(rosenbrock, {-1.2, 1.0, -1.2, 1.0}, options);
  for (std::size_t i = 0; i < result.x.size(); ++i) {
    EXPECT_NEAR(result.x[i], 1.0, 5e-2) << "coordinate " << i;
  }
  EXPECT_LT(result.value, 1e-3);
}

TEST(FitRecovery, NelderMeadCurveFitRecoversParameters) {
  // Directly fit (a_max, kappa) by least squares — the inner problem the
  // learning-curve predictor solves per basis.
  const double true_a = 0.85;
  const double true_k = 12.0;
  const auto observed = hyperbolic_samples(true_a, true_k, 30);
  const auto loss = [&](const std::vector<double>& p) {
    double sum = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
      const double t = static_cast<double>(i + 1);
      const double fit = p[0] * t / (t + p[1]);
      sum += (fit - observed[i]) * (fit - observed[i]);
    }
    return sum;
  };
  NelderMeadOptions options;
  options.max_iterations = 5000;
  const auto result = nelder_mead(loss, {0.5, 1.0}, options);
  EXPECT_NEAR(result.x[0], true_a, 1e-3);
  EXPECT_NEAR(result.x[1], true_k, 1e-2);
}

}  // namespace
}  // namespace mlfs
