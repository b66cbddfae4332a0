// Weighted probabilistic learning-curve extrapolation in the style of
// Domhan et al. [17] — the accuracy-prediction substrate MLFS assumes
// (§3.1: "the accuracy of a job can be predicted ... around 90% accuracy";
// §3.5: OptStop uses the prediction + its confidence).
//
// Mechanism: fit several parametric basis curves to the observed
// (iteration, accuracy) points by least squares (Nelder-Mead), weight each
// basis by how well it explains the observations, and report the weighted
// prediction plus a confidence derived from inter-basis agreement and fit
// residuals.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace mlfs {

struct CurvePrediction {
  double accuracy = 0.0;    ///< predicted accuracy at the target iteration
  double confidence = 0.0;  ///< in [0, 1]; higher = tighter basis agreement
};

/// The predictor's parametric substrate, exposed so the incremental
/// PredictionService (predict/service.hpp) can fit the identical basis
/// family link-by-link instead of from scratch. predict_at below remains
/// the one-shot reference implementation over the same pieces.
namespace curve_detail {

enum class BasisKind { Mmf, Pow3, Ilog };

/// Maps (params, x) -> accuracy. Params are unconstrained reals; the
/// functions clamp/transform internally so Nelder-Mead can roam.
struct Basis {
  const char* name;
  BasisKind kind;  ///< selects fit_residual's specialised loop
  double (*eval)(const std::vector<double>&, double);
  std::vector<double> init;  ///< cold-start simplex seed
};

/// The fixed basis family (mmf / pow3 / ilog).
const std::vector<Basis>& bases();

/// Mean squared error of `params` against `observed` where observed[i] is
/// the value at x = i + 1. Bitwise equal to summing (basis.eval(params,
/// i + 1) - observed[i])^2 in index order, but each basis has its own loop:
/// per-evaluation exp() transforms are hoisted out of the point loop, and
/// ilog's log(x + e) comes from a table. Allocation-free.
double fit_residual(const Basis& basis, const std::vector<double>& params,
                    std::span<const double> observed);

/// One fitted basis, reduced to what the weighting step consumes.
struct BasisFit {
  double rmse = 0.0;        ///< sqrt(max(objective value, 0))
  double prediction = 0.0;  ///< basis value at the target, clamped to [0, 1]
};

/// The residual-weighted combination + confidence step shared by
/// LearningCurvePredictor::predict_at and the PredictionService. Bitwise
/// identical to the historical inline computation.
CurvePrediction combine_fits(const std::vector<BasisFit>& fits, double residual_scale);

}  // namespace curve_detail

struct LearningCurveConfig {
  std::size_t min_observations = 3;  ///< below this, predict_at falls back
  double residual_scale = 0.02;      ///< basis-weighting bandwidth (accuracy units)
};

class LearningCurvePredictor {
 public:
  explicit LearningCurvePredictor(const LearningCurveConfig& config = {});

  /// `observed[i]` = accuracy after iteration i+1. Predicts the accuracy
  /// at `target_iteration` (1-based, may be <= observed.size() for
  /// interpolation checks). With fewer than min_observations points, the
  /// prediction is the last observation with zero confidence.
  CurvePrediction predict_at(std::span<const double> observed, int target_iteration) const;

  /// Names of the basis curves (diagnostics/tests).
  static std::vector<std::string> basis_names();

 private:
  LearningCurveConfig config_;
};

}  // namespace mlfs
