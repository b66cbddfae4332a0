// Analytic training curves with diminishing returns — the substitution for
// real DNN training (see DESIGN.md §2). The curves reproduce the two
// temporal properties MLFS exploits (§3.3.1): earlier iterations yield
// larger loss reductions, and accuracy saturates toward a per-job maximum.
//
// accuracy(I) = a_max * I / (I + kappa)          (hyperbolic saturation)
// loss(I)     = l_inf + (l0 - l_inf) * kappa / (I + kappa)
//
// so delta_loss(I) = loss(I-1) - loss(I) is positive and strictly
// decreasing in I — exactly the "diminishing loss reduction returns" the
// paper cites from SLAQ [58]. Optional multiplicative noise perturbs the
// per-iteration observations without changing the cumulative curve.
#pragma once

#include <cstdint>
#include <vector>

#include "common/binio.hpp"
#include "common/rng.hpp"

namespace mlfs {

class LossCurve {
 public:
  struct Params {
    double max_accuracy = 0.9;  ///< asymptotic accuracy a_max in (0, 1]
    double kappa = 8.0;         ///< saturation speed: accuracy(kappa) = a_max/2
    double initial_loss = 2.0;  ///< l0 at iteration 0
    double final_loss = 0.1;    ///< l_inf asymptote
    double noise_sigma = 0.0;   ///< lognormal sigma on observed delta-loss
    std::uint64_t noise_seed = 0;

    /// Wire order inside a JobSpec.
    static constexpr auto fields() {
      return std::tuple{&Params::max_accuracy, &Params::kappa,       &Params::initial_loss,
                        &Params::final_loss,   &Params::noise_sigma, &Params::noise_seed};
    }
  };

  LossCurve() : LossCurve(Params{}) {}
  explicit LossCurve(const Params& params);

  /// Noise-free accuracy after I completed iterations (I >= 0).
  double accuracy_at(int iteration) const;

  /// Noise-free loss after I completed iterations.
  double loss_at(int iteration) const;

  /// Observed loss reduction of iteration I (I >= 1), i.e. what the
  /// scheduler sees as delta-l_{I} — noisy when noise_sigma > 0 but
  /// deterministic per (seed, I) so replays agree.
  double observed_delta_loss(int iteration) const;

  /// Smallest iteration whose noise-free accuracy reaches `target`;
  /// returns `limit` when the target is unreachable within it.
  int iterations_to_accuracy(double target, int limit) const;

  const Params& params() const { return params_; }

 private:
  Params params_;
};
static_assert(io::lists_every_field<LossCurve::Params>);

}  // namespace mlfs
