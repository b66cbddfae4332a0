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
//    evaluation); if the residual has not degraded past settle_factor ×
//    previous value (+ settle_epsilon) the params carry forward without
//    refitting. Otherwise a warm fit seeded from the previous
//    link's fitted params with initial_step derived from the previous
//    parameter drift; if the warm residual regresses past
//    regression_factor × previous value the cold fit is also computed and
//    wins if better (a "restart", bounded by restart_budget — once the
//    budget is spent the basis is refit cold directly, with no settle
//    probe);
//  * basis freezing: a non-best basis whose combination weight stays below
//    freeze_weight_threshold for freeze_streak consecutive links (after
//    freeze_min_links) stops being refit; its last (params, rmse) keep
//    participating in the weighted prediction.
//
// The chain is a pure function of the observation prefix and the config, so
// it is computed identically by two modes:
//
//  * enabled (the service): per-job incremental state — one new link per
//    check, memoized predictions for repeated (job, done, target) queries,
//    stored links reused verbatim on rollback re-entry;
//  * disabled ("legacy cold-fit path"): stateless — the observation vector
//    is rebuilt (O(done)) and every chain link recomputed from scratch at
//    every check.
//
// Both therefore produce byte-identical predictions, decisions, and event
// streams; the service differs only in cost (bench_largescale gates the
// Nelder-Mead evaluation reduction and wall-clock share). Observation
// coarsening (opt-in) is the one *approximating* mode: it subsamples the
// tail of long observation prefixes logarithmically and changes results,
// so it participates in the engine config fingerprint and is fuzzed under
// equivalence-of-invariants, not hash equality.
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

struct PredictConfig {
  /// Incremental service on (default). Off = the legacy stateless
  /// cold-fit path: identical results, no caching, full chain recompute
  /// per check.
  bool enabled = true;

  // Warm-start policy: initial simplex step for link j seeded from the
  // previous link's params is clamp(warm_step_scale × drift_{j-1},
  // warm_step_floor, 0.25); the first warm link (no drift yet) uses the
  // cold default step 0.25.
  double warm_step_scale = 4.0;
  double warm_step_floor = 0.02;

  /// Cold-restart budget per (job, basis): a warm fit whose objective
  /// regresses past regression_factor × previous value (+ epsilon) also
  /// runs the cold fit and takes the better result, consuming one restart;
  /// with the budget spent the basis is simply refit cold each link.
  int restart_budget = 4;
  double regression_factor = 1.5;
  double regression_epsilon = 1e-10;

  /// Settled-fit carry-forward: before warm-fitting link j the previous
  /// link's params are re-evaluated on the new prefix; a residual within
  /// settle_factor × previous value (+ settle_epsilon) means the fit still
  /// explains the data and carries forward for one objective evaluation
  /// instead of a full Nelder-Mead run. The epsilon floor lets
  /// numerically-exact fits (residual ~ 0) settle despite large relative
  /// wobble.
  double settle_factor = 1.5;
  double settle_epsilon = 1e-12;

  // Basis freezing (see file comment).
  double freeze_weight_threshold = 0.005;
  int freeze_streak = 2;
  int freeze_min_links = 3;

  /// Opt-in observation coarsening for very long jobs: the first
  /// coarsen_head observations are kept exactly; the tail keeps
  /// ~coarsen_per_octave log-spaced points per octave plus always the
  /// last observation. Changes results (approximation mode).
  bool coarsen = false;
  int coarsen_head = 32;
  int coarsen_per_octave = 8;

  /// Throws ContractViolation on invalid values.
  void validate() const;
};

/// Run-long counters surfaced through RunMetrics. All except fit_wall_ms
/// are deterministic per config (and participate in deterministic_equal);
/// fit_wall_ms is a real clock.
struct PredictStats {
  std::size_t fits_cold = 0;          ///< fits from the basis' init point
  std::size_t fits_warm = 0;          ///< fits seeded from a previous link
  std::size_t cache_hits = 0;         ///< memo / stored-link reuse (no fitting at all)
  std::size_t nm_objective_evals = 0; ///< residual evaluations across all fits and probes
  double fit_wall_ms = 0.0;           ///< wall-clock spent fitting + combining
};

class PredictionService {
 public:
  PredictionService(const PredictConfig& config, int check_interval,
                    const LearningCurveConfig& curve_config = {});

  /// OptStop substrate: prediction at job.spec().max_iterations given the
  /// job's completed iterations, under the chain-canonical semantics
  /// above. Below the first canonical link this falls back to the last
  /// observation with zero confidence (mirroring predict_at).
  CurvePrediction predict_at_max(const Job& job);

  /// Appends newly available observations for an OptStop job (no-op when
  /// the service is disabled or the job's active policy is not OptStop —
  /// a later policy downgrade backfills lazily at query time).
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

  const PredictConfig& config() const { return config_; }
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
  };
  struct LinkRecord {
    int done = 0;  ///< canonical check point this link was fitted at
    std::vector<BasisFitRec> basis;
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
  };
  /// Live per-job curve-fit state (empty while disabled — the audit's
  /// zero-when-disabled contract).
  const std::map<JobId, JobState>& cached_states() const { return states_; }

  /// Snapshot hooks: curve-fit caches + counters. The runtime predictor
  /// serializes separately (SimEngine's stable "predictor" section).
  void save_state(io::BinWriter& w) const;
  void restore_state(io::BinReader& r);

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

  PredictConfig config_;
  int check_interval_;
  LearningCurveConfig curve_config_;
  RuntimePredictor runtime_;
  std::map<JobId, JobState> states_;
  PredictStats stats_;
};

}  // namespace mlfs
