// Weighted probabilistic learning-curve extrapolation in the style of
// Domhan et al. [17] — the accuracy-prediction substrate MLFS assumes
// (§3.1: "the accuracy of a job can be predicted ... around 90% accuracy";
// §3.5: OptStop uses the prediction + its confidence).
//
// Mechanism: fit several parametric basis curves to the observed
// (iteration, accuracy) points by least squares, weight each basis by how
// well it explains the observations, and report the weighted prediction
// plus a confidence derived from inter-basis agreement and fit residuals.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "predict/nelder_mead.hpp"

namespace mlfs {

struct CurvePrediction {
  double accuracy = 0.0;    ///< predicted accuracy at the target iteration
  double confidence = 0.0;  ///< in [0, 1]; higher = tighter basis agreement

  static constexpr auto fields() {
    return std::tuple{&CurvePrediction::accuracy, &CurvePrediction::confidence};
  }
};
static_assert(io::lists_every_field<CurvePrediction>);

/// The predictor's parametric substrate, exposed so the incremental
/// PredictionService (predict/service.hpp) can fit the identical basis
/// family link-by-link instead of from scratch. predict_at below remains
/// the one-shot reference implementation over the same pieces.
namespace curve_detail {

enum class BasisKind { Mmf, Pow3, Ilog };

/// Maps (params, x) -> accuracy. Params are unconstrained reals; the
/// functions transform internally (exp) so a search can roam freely.
struct Basis {
  const char* name;
  BasisKind kind;  ///< selects fit_residual's and fit_basis' specialised code
  double (*eval)(const std::vector<double>&, double);
  std::vector<double> init;  ///< cold-start point (pow3's fit reads only log alpha, ilog's none)
};

/// The fixed basis family: mmf (a, log k), pow3 (c, a, log alpha) and
/// ilog (c, a).
const std::vector<Basis>& bases();

/// The points a fit runs over: y[i] at x[i], or at x = i + 1 when x is
/// empty (a full observation prefix). Explicit x is the coarsened
/// subsample; on the same points both forms give bit-equal results.
struct FitPoints {
  std::span<const double> y;
  std::span<const double> x = {};
};

/// Mean squared error of `params` against the points. Bitwise equal to
/// summing (basis.eval(params, x_i) - y_i)^2 in index order, but each basis
/// has its own loop, with per-evaluation exp() transforms hoisted out of
/// the point loop. Allocation-free.
double fit_residual(const Basis& basis, const std::vector<double>& params, FitPoints points);
inline double fit_residual(const Basis& basis, const std::vector<double>& params,
                           std::span<const double> observed) {
  return fit_residual(basis, params, FitPoints{observed});
}

struct FitResult {
  std::vector<double> params;
  double value = 0.0;            ///< fit_residual(basis, params, points), bitwise when finite
  std::size_t evaluations = 0;   ///< residual evaluations spent
};

/// Least-squares fit of one basis to at least two points, searching from
/// `start` with a first Nelder-Mead step of `initial_step` (relative, as in
/// NelderMeadOptions).
///  - mmf: Nelder-Mead over (a, log k).
///  - pow3: variable projection. (c, a) enter linearly, so for each
///    log alpha they are solved in closed form and Nelder-Mead searches
///    log alpha alone, from the best of start[2] and a coarse scan.
///  - ilog: linear in (c, a): one closed-form solve; start and
///    initial_step are not used.
FitResult fit_basis(const Basis& basis, FitPoints points, const std::vector<double>& start,
                    double initial_step = NelderMeadOptions{}.initial_step);

/// One fitted basis, reduced to what the weighting step consumes.
struct BasisFit {
  double rmse = 0.0;        ///< sqrt(max(objective value, 0))
  double prediction = 0.0;  ///< basis value at the target, clamped to [0, 1]
};

/// The residual-weighted combination + confidence step shared by
/// LearningCurvePredictor::predict_at and the PredictionService. Bitwise
/// identical to the historical inline computation.
CurvePrediction combine_fits(const std::vector<BasisFit>& fits);

}  // namespace curve_detail

/// Fewest observations a curve is fitted to; below this, predict_at falls
/// back to the last observation.
inline constexpr std::size_t kMinCurveObservations = 3;
/// Confidence bandwidth of combine_fits, in accuracy units.
inline constexpr double kCurveResidualScale = 0.02;

class LearningCurvePredictor {
 public:
  /// `observed[i]` = accuracy after iteration i+1. Predicts the accuracy
  /// at `target_iteration` (1-based, may be <= observed.size() for
  /// interpolation checks). With fewer than kMinCurveObservations points,
  /// the prediction is the last observation with zero confidence.
  CurvePrediction predict_at(std::span<const double> observed, int target_iteration) const;

  /// Names of the basis curves (diagnostics/tests).
  static std::vector<std::string> basis_names();
};

}  // namespace mlfs
