// Unified prediction subsystem: one engine-owned service fronting both the
// Optimus-style runtime predictor and the learning-curve extrapolator, with
// the curve fits made *incremental* (the substrate MLFS §3.5 OptStop
// assumes — SLAQ refits curves as new points arrive instead of from
// scratch).
//
// ## Chain-canonical fit semantics
//
// The fit for (job, done = k) is defined as a warm-started *chain* over the
// job's canonical check points L = { k : k % check_interval == 0 && k >= 3 }
// (exactly the points SimEngine::should_stop evaluates OptStop at):
//
//  * link 1: a cold fit (curve_detail::fit_basis) from each basis' init
//    point;
//  * link j > 1, per basis: first a settled-fit probe — the previous
//    link's params are re-evaluated on the new prefix (one objective
//    evaluation); if the residual has not degraded past kSettleFactor ×
//    previous value (+ kSettleEpsilon) the params carry forward without
//    refitting. Otherwise a warm fit seeded from the previous
//    link's fitted params with initial_step derived from the previous
//    parameter drift; if the warm residual regresses past
//    kRegressionFactor × previous value the cold fit is also computed and
//    wins if better (a "restart", bounded by kRestartBudget — once the
//    budget is spent the basis is refit cold directly, with no settle
//    probe);
//  * basis freezing: a non-best basis whose combination weight stays below
//    kFreezeWeightThreshold for kFreezeStreak consecutive links (after
//    kFreezeMinLinks) stops being refit; its last (params, rmse) keep
//    participating in the weighted prediction.
//
// The chain is a pure function of the observation prefix and the coarsen
// setting. The service keeps per-job incremental state — one new link per
// check, memoized predictions for repeated (job, done, target) queries,
// stored links reused verbatim on rollback re-entry — so a freshly
// constructed service, which has to fit the whole chain from scratch, is
// the stateless reference it must match bit for bit (the tests compare
// against one). Observation coarsening (opt-in) is the one *approximating*
// mode: it subsamples the tail of long observation prefixes logarithmically
// and changes results, so it participates in the engine config
// fingerprint.
//
// Observation buffers never shrink: entry i is the ground-truth
// LossCurve::accuracy_at(i + 1), a pure function of the index, so a fault
// rollback simply re-reads the prefix. Per-job state is evicted when the
// job reaches a terminal state.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/binio.hpp"
#include "predict/learning_curve.hpp"
#include "predict/runtime_predictor.hpp"
#include "workload/job.hpp"

namespace mlfs {

/// Run-long counters surfaced through RunMetrics. All except fit_wall_ms
/// are deterministic per config (and participate in deterministic_equal);
/// fit_wall_ms is a real clock.
struct PredictStats {
  std::size_t fits_cold = 0;          ///< fits from the basis' init point
  std::size_t fits_warm = 0;          ///< fits seeded from a previous link
  std::size_t cache_hits = 0;         ///< memo / stored-link reuse (no fitting at all)
  std::size_t nm_objective_evals = 0; ///< residual evaluations across all fits and probes
  double fit_wall_ms = 0.0;           ///< wall-clock spent fitting + combining

  /// Snapshot order (io::write_fields / read_fields).
  static constexpr auto fields() {
    return std::tuple{&PredictStats::fits_cold, &PredictStats::fits_warm,
                      &PredictStats::cache_hits, &PredictStats::nm_objective_evals,
                      &PredictStats::fit_wall_ms};
  }
};
static_assert(io::lists_every_field<PredictStats>);

class PredictionService {
 public:
  // Fixed tuning of the fit chain (see the file comment and DESIGN.md §5d).
  /// Warm-start step for link j: clamp(kWarmStepScale × drift_{j-1},
  /// kWarmStepFloor, 0.25); the first warm link (no drift yet) uses the
  /// cold default step 0.25.
  static constexpr double kWarmStepScale = 4.0;
  static constexpr double kWarmStepFloor = 0.02;
  /// Cold restarts per (job, basis): a warm fit whose objective regresses
  /// past kRegressionFactor × previous value (+ epsilon) also runs the
  /// cold fit and takes the better result, consuming one restart; with the
  /// budget spent the basis is simply refit cold each link.
  static constexpr int kRestartBudget = 4;
  static constexpr double kRegressionFactor = 1.5;
  static constexpr double kRegressionEpsilon = 1e-10;
  /// Settled-fit carry-forward: a probe residual within kSettleFactor ×
  /// previous value (+ kSettleEpsilon) keeps the previous params for one
  /// objective evaluation. The epsilon floor lets numerically exact fits
  /// (residual ~ 0) settle despite large relative wobble.
  static constexpr double kSettleFactor = 1.5;
  static constexpr double kSettleEpsilon = 1e-12;
  static constexpr double kFreezeWeightThreshold = 0.005;
  static constexpr int kFreezeStreak = 2;
  static constexpr int kFreezeMinLinks = 3;
  /// Coarsening keeps the first kCoarsenHead observations exactly; the
  /// tail keeps ~kCoarsenPerOctave log-spaced points per octave plus
  /// always the last observation.
  static constexpr int kCoarsenHead = 32;
  static constexpr int kCoarsenPerOctave = 8;

  /// `coarsen` turns on observation coarsening for long jobs (changes
  /// results; EngineConfig::coarsen_curve).
  explicit PredictionService(int check_interval, bool coarsen = false);

  /// OptStop substrate: prediction at job.spec().max_iterations given the
  /// job's completed iterations, under the chain-canonical semantics
  /// above. Below the first canonical link this falls back to the last
  /// observation with zero confidence (mirroring predict_at).
  CurvePrediction predict_at_max(const Job& job);

  /// Appends newly available observations for an OptStop job (no-op when
  /// the job's active policy is not OptStop — a later policy downgrade
  /// backfills lazily at query time).
  void on_iteration_complete(const Job& job);

  /// Terminal-state hooks: completion feeds the runtime predictor's
  /// signature history and evicts the curve-fit state; failure evicts
  /// only (a truncated run would poison the duration estimates).
  void on_job_complete(const Job& job);
  void on_job_failed(const Job& job);

  // Runtime-prediction passthroughs (Optimus' ranking quantity).
  double predict_remaining_seconds(const Job& job) const {
    return runtime_.predict_remaining_seconds(job);
  }
  double predict_execution_seconds(const Job& job) const {
    return runtime_.predict_execution_seconds(job);
  }

  // Ground-truth curve reads for quality-driven schedulers (SLAQ /
  // HyperSched) — routed through the service so every consumer shares one
  // substrate; these are exact (the simulator's curve is the oracle the
  // paper's §3.1 prediction accuracy stands in for).
  double loss_at(const Job& job, int iteration) const {
    return job.curve().loss_at(iteration);
  }
  double accuracy_at(const Job& job, int iteration) const {
    return job.curve().accuracy_at(iteration);
  }

  RuntimePredictor& runtime() { return runtime_; }
  const RuntimePredictor& runtime() const { return runtime_; }

  const PredictStats& stats() const { return stats_; }
  int check_interval() const { return check_interval_; }
  /// Smallest canonical chain link (first OptStop check point).
  int first_link() const;
  /// Largest canonical link <= done, or 0 when none exists yet.
  int quantize(int done) const;

  // ---- introspection (audit / snapshot / tests) ----

  /// One basis' state at one chain link.
  struct BasisFitRec {
    std::vector<double> params;
    double rmse = 0.0;
    double value = 0.0;   ///< raw objective (MSE) — the regression baseline
    double drift = -1.0;  ///< max |param delta| vs previous link; < 0 = undefined
    bool frozen = false;
    int low_streak = 0;   ///< consecutive links below the freeze weight
    int restarts = 0;     ///< cold restarts consumed so far

    static constexpr auto fields() {
      using B = BasisFitRec;
      return std::tuple{&B::params, &B::rmse,       &B::value,   &B::drift,
                        &B::frozen, &B::low_streak, &B::restarts};
    }
  };
  struct LinkRecord {
    int done = 0;  ///< canonical check point this link was fitted at
    std::vector<BasisFitRec> basis;

    static constexpr auto fields() {
      return std::tuple{&LinkRecord::done, &LinkRecord::basis};
    }
  };
  struct JobState {
    /// observed[i] = ground-truth accuracy after iteration i + 1. Grows
    /// monotonically; never truncated on rollback.
    std::vector<double> observed;
    /// All computed chain links, ascending by done (rollback re-entry is
    /// a lookup, and the chain resumes from the last element).
    std::vector<LinkRecord> links;
    // Last combined prediction, keyed by (link, target).
    bool memo_valid = false;
    int memo_done = 0;
    int memo_target = 0;
    CurvePrediction memo;

    /// Snapshot order.
    static constexpr auto fields() {
      using S = JobState;
      return std::tuple{&S::observed,  &S::links,       &S::memo_valid,
                        &S::memo_done, &S::memo_target, &S::memo};
    }
  };
  /// Live per-job curve-fit state.
  const std::map<JobId, JobState>& cached_states() const { return states_; }

  /// Snapshot hooks: curve-fit caches + counters. The runtime predictor
  /// serializes separately (SimEngine's stable "predictor" section).
  /// Restoring is two steps so a caller can decode before it changes any
  /// other state: read_state checks the payload without touching the
  /// service, restore_state installs it.
  struct SavedState {
    PredictStats stats;
    std::map<JobId, JobState> states;
  };
  void save_state(io::BinWriter& w) const;
  /// Throws ContractViolation on a payload the fit code would misread: job
  /// ids not strictly ascending, a link chain that is not the contiguous
  /// canonical sequence from first_link() within the job's observations, a
  /// basis count other than bases().size(), or a params vector whose length
  /// is not its basis' arity.
  SavedState read_state(io::BinReader& r) const;
  void restore_state(SavedState saved);

 private:
  /// Ensures `st` holds ground-truth observations through iteration
  /// `done` (incremental append; pure function of the index).
  void backfill(JobState& st, const Job& job, int done) const;
  /// Ensures the chain is computed through canonical link `link_done` and
  /// returns its record. Counts a cache hit when the link already exists.
  const LinkRecord* advance_links(JobState& st, int link_done);
  /// Computes one new chain link at `done` from the chain tail.
  void fit_link(JobState& st, int done);
  CurvePrediction prediction_from(const LinkRecord& rec, int target) const;

  int check_interval_;
  bool coarsen_;
  RuntimePredictor runtime_;
  std::map<JobId, JobState> states_;
  PredictStats stats_;
};

}  // namespace mlfs
