// PredictionService (predict/service.hpp): the incremental memoized
// service must be byte-identical to the legacy stateless cold-fit path
// (chain-canonical semantics), reuse stored links on rollback re-entry,
// memoize repeated queries, evict terminal jobs, survive a snapshot
// round-trip bit-exactly, and reject invalid configurations.
#include "predict/service.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/expect.hpp"
#include "workload/model_zoo.hpp"

namespace mlfs {
namespace {

Job make_job(int max_iterations = 60, double a_max = 0.85, double kappa = 9.0,
             JobId id = 0) {
  JobSpec spec;
  spec.id = id;
  spec.algorithm = MlAlgorithm::Mlp;
  spec.comm = CommStructure::AllReduce;
  spec.gpu_request = 2;
  spec.max_iterations = max_iterations;
  spec.stop_policy = StopPolicy::OptStop;
  spec.min_allowed_policy = StopPolicy::OptStop;
  spec.curve.max_accuracy = a_max;
  spec.curve.kappa = kappa;
  spec.seed = 7;
  return std::move(ModelZoo::instantiate(spec, 0).job);
}

void advance(Job& job, PredictionService& svc, int iterations) {
  for (int i = 0; i < iterations; ++i) {
    job.complete_iteration();
    svc.on_iteration_complete(job);
  }
}

TEST(PredictConfigValidate, RejectsInvalidFields) {
  const auto expect_reject = [](auto&& mutate) {
    PredictConfig config;
    mutate(config);
    EXPECT_THROW(config.validate(), ContractViolation);
  };
  expect_reject([](PredictConfig& c) { c.warm_step_scale = 0.0; });
  expect_reject([](PredictConfig& c) { c.warm_step_floor = 0.0; });
  expect_reject([](PredictConfig& c) { c.warm_step_floor = 0.3; });
  expect_reject([](PredictConfig& c) { c.restart_budget = -1; });
  expect_reject([](PredictConfig& c) { c.regression_factor = 0.9; });
  expect_reject([](PredictConfig& c) { c.regression_epsilon = -1e-9; });
  expect_reject([](PredictConfig& c) { c.settle_factor = 0.9; });
  expect_reject([](PredictConfig& c) { c.settle_epsilon = -1e-12; });
  expect_reject([](PredictConfig& c) { c.freeze_weight_threshold = 1.0; });
  expect_reject([](PredictConfig& c) { c.freeze_streak = 0; });
  expect_reject([](PredictConfig& c) { c.freeze_min_links = 0; });
  expect_reject([](PredictConfig& c) { c.coarsen_head = 2; });
  expect_reject([](PredictConfig& c) { c.coarsen_per_octave = 0; });
  EXPECT_NO_THROW(PredictConfig{}.validate());
}

TEST(PredictionService, CanonicalLinkArithmetic) {
  const PredictionService svc({}, /*check_interval=*/5);
  // min_observations = 3 → first check point at or after 3 on the 5-grid.
  EXPECT_EQ(svc.first_link(), 5);
  EXPECT_EQ(svc.quantize(4), 0);   // before the first link: fallback regime
  EXPECT_EQ(svc.quantize(5), 5);
  EXPECT_EQ(svc.quantize(14), 10);
  const PredictionService unit({}, /*check_interval=*/1);
  EXPECT_EQ(unit.first_link(), 3);
  EXPECT_EQ(unit.quantize(2), 0);
  EXPECT_EQ(unit.quantize(3), 3);
}

TEST(PredictionService, MatchesLegacyColdFitPathBitwise) {
  // The tentpole equivalence: at every OptStop check point the service's
  // incremental warm-started chain must reproduce the legacy stateless
  // recompute bit for bit.
  for (const int interval : {1, 4}) {
    Job a = make_job();
    Job b = make_job();
    PredictConfig on;
    PredictConfig off;
    off.enabled = false;
    PredictionService service(on, interval);
    PredictionService legacy(off, interval);
    for (int i = 0; i < a.spec().max_iterations; ++i) {
      advance(a, service, 1);
      advance(b, legacy, 1);
      if (a.completed_iterations() % interval != 0) continue;
      const CurvePrediction ps = service.predict_at_max(a);
      const CurvePrediction pl = legacy.predict_at_max(b);
      EXPECT_EQ(ps.accuracy, pl.accuracy) << "done=" << a.completed_iterations();
      EXPECT_EQ(ps.confidence, pl.confidence) << "done=" << a.completed_iterations();
    }
    EXPECT_GT(service.stats().nm_objective_evals, 0u);
    // The legacy path recomputes every chain prefix; the service fits each
    // link once, so it must do strictly less Nelder-Mead work.
    EXPECT_LT(service.stats().nm_objective_evals, legacy.stats().nm_objective_evals);
    EXPECT_TRUE(legacy.cached_states().empty());
  }
}

TEST(PredictionService, BelowFirstLinkFallsBackToLastObservation) {
  Job job = make_job();
  PredictionService svc({}, /*check_interval=*/5);
  const CurvePrediction empty = svc.predict_at_max(job);
  EXPECT_EQ(empty.accuracy, 0.0);
  EXPECT_EQ(empty.confidence, 0.0);
  advance(job, svc, 2);  // still below the first canonical link
  const CurvePrediction early = svc.predict_at_max(job);
  EXPECT_EQ(early.accuracy, job.curve().accuracy_at(2));
  EXPECT_EQ(early.confidence, 0.0);
  EXPECT_EQ(svc.stats().fits_cold + svc.stats().fits_warm, 0u);
}

TEST(PredictionService, MemoizesRepeatedQueries) {
  Job job = make_job();
  PredictionService svc({}, /*check_interval=*/3);
  advance(job, svc, 9);
  const CurvePrediction first = svc.predict_at_max(job);
  const std::size_t evals = svc.stats().nm_objective_evals;
  const std::size_t hits = svc.stats().cache_hits;
  const CurvePrediction again = svc.predict_at_max(job);  // MLF-C's repeat query
  EXPECT_EQ(again.accuracy, first.accuracy);
  EXPECT_EQ(again.confidence, first.confidence);
  EXPECT_EQ(svc.stats().nm_objective_evals, evals);  // no refit
  EXPECT_EQ(svc.stats().cache_hits, hits + 1);
}

TEST(PredictionService, RollbackReentryReusesStoredLinks) {
  // A fault rollback drops completed_iterations to an earlier check point;
  // the chain is a pure function of the observation prefix, so the stored
  // link answers without any fitting.
  Job job = make_job();
  PredictionService svc({}, /*check_interval=*/3);
  advance(job, svc, 6);
  const CurvePrediction at6 = svc.predict_at_max(job);
  advance(job, svc, 3);
  (void)svc.predict_at_max(job);  // chain now through done=9
  const std::size_t evals = svc.stats().nm_objective_evals;
  job.rollback_iterations(3);  // back to done=6
  const CurvePrediction replay = svc.predict_at_max(job);
  EXPECT_EQ(replay.accuracy, at6.accuracy);
  EXPECT_EQ(replay.confidence, at6.confidence);
  EXPECT_EQ(svc.stats().nm_objective_evals, evals);  // pure lookup
}

TEST(PredictionService, TerminalJobsAreEvicted) {
  Job job = make_job();
  Job other = make_job(60, 0.85, 9.0, /*id=*/1);
  PredictionService svc({}, /*check_interval=*/3);
  advance(job, svc, 6);
  advance(other, svc, 6);
  (void)svc.predict_at_max(job);
  (void)svc.predict_at_max(other);
  EXPECT_EQ(svc.cached_states().size(), 2u);
  svc.on_job_failed(job);
  EXPECT_EQ(svc.cached_states().count(job.id()), 0u);
  svc.on_job_complete(other);
  EXPECT_TRUE(svc.cached_states().empty());
}

TEST(PredictionService, SnapshotRoundTripIsBitExact) {
  Job job = make_job();
  PredictionService svc({}, /*check_interval=*/3);
  advance(job, svc, 9);
  (void)svc.predict_at_max(job);

  std::string bytes;
  {
    io::BinWriter w(bytes);
    svc.save_state(w);
  }
  PredictionService restored({}, /*check_interval=*/3);
  {
    io::BinReader r(bytes);
    restored.restore_state(r);
  }
  EXPECT_EQ(restored.stats().fits_cold, svc.stats().fits_cold);
  EXPECT_EQ(restored.stats().fits_warm, svc.stats().fits_warm);
  EXPECT_EQ(restored.stats().cache_hits, svc.stats().cache_hits);
  EXPECT_EQ(restored.stats().nm_objective_evals, svc.stats().nm_objective_evals);
  EXPECT_EQ(restored.cached_states().size(), 1u);

  // Bit-identical state must re-serialize to the exact same bytes...
  std::string again;
  {
    io::BinWriter w(again);
    restored.save_state(w);
  }
  EXPECT_EQ(again, bytes);

  // ...and continue the chain exactly like the original.
  advance(job, svc, 3);
  const CurvePrediction a = svc.predict_at_max(job);
  const CurvePrediction b = restored.predict_at_max(job);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.confidence, b.confidence);
}

TEST(PredictionService, CoarseningIsDeterministicAcrossModes) {
  // Coarsening changes the fit (approximation mode) but applies to the
  // service and the legacy path alike, so the two still agree bit for bit
  // — and the coarse fit must differ from the exact one on a long tail.
  PredictConfig coarse_on;
  coarse_on.coarsen = true;
  coarse_on.coarsen_head = 8;
  coarse_on.coarsen_per_octave = 4;
  PredictConfig coarse_legacy = coarse_on;
  coarse_legacy.enabled = false;

  Job a = make_job(120);
  Job b = make_job(120);
  Job c = make_job(120);
  PredictionService svc(coarse_on, /*check_interval=*/4);
  PredictionService legacy(coarse_legacy, /*check_interval=*/4);
  PredictionService exact({}, /*check_interval=*/4);
  bool coarse_diverged_from_exact = false;
  for (int i = 0; i < 120; ++i) {
    advance(a, svc, 1);
    advance(b, legacy, 1);
    advance(c, exact, 1);
    if (a.completed_iterations() % 4 != 0) continue;
    const CurvePrediction ps = svc.predict_at_max(a);
    const CurvePrediction pl = legacy.predict_at_max(b);
    const CurvePrediction pe = exact.predict_at_max(c);
    EXPECT_EQ(ps.accuracy, pl.accuracy) << "done=" << a.completed_iterations();
    EXPECT_EQ(ps.confidence, pl.confidence) << "done=" << a.completed_iterations();
    if (ps.accuracy != pe.accuracy) coarse_diverged_from_exact = true;
  }
  EXPECT_TRUE(coarse_diverged_from_exact);
  EXPECT_GT(svc.stats().fits_cold + svc.stats().fits_warm, 0u);
}

}  // namespace
}  // namespace mlfs
