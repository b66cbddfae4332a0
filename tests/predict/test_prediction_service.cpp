// PredictionService (predict/service.hpp): the incremental memoized
// service must be byte-identical to the stateless reference — a freshly
// constructed service, which fits the whole chain from scratch — at every
// check point (chain-canonical semantics), also inside a faulty engine run
// with a mid-run restore; it must reuse stored links on rollback re-entry,
// memoize repeated queries, evict terminal jobs, survive a snapshot
// round-trip bit-exactly, and reject a snapshot payload it would misread.
#include "predict/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include "common/expect.hpp"
#include "exp/runner.hpp"
#include "sim/engine.hpp"
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

TEST(PredictionService, CanonicalLinkArithmetic) {
  const PredictionService svc(/*check_interval=*/5);
  // kMinCurveObservations = 3 → first check point at or after 3 on the 5-grid.
  EXPECT_EQ(svc.first_link(), 5);
  EXPECT_EQ(svc.quantize(4), 0);   // before the first link: fallback regime
  EXPECT_EQ(svc.quantize(5), 5);
  EXPECT_EQ(svc.quantize(14), 10);
  const PredictionService unit(/*check_interval=*/1);
  EXPECT_EQ(unit.first_link(), 3);
  EXPECT_EQ(unit.quantize(2), 0);
  EXPECT_EQ(unit.quantize(3), 3);
}

TEST(PredictionService, MatchesLegacyColdFitPathBitwise) {
  // The tentpole equivalence: at every OptStop check point the service's
  // incremental warm-started chain must reproduce a fresh service's
  // from-scratch recompute bit for bit.
  for (const int interval : {1, 4}) {
    Job job = make_job();
    PredictionService service(interval);
    std::size_t fresh_evals = 0;
    for (int i = 0; i < job.spec().max_iterations; ++i) {
      advance(job, service, 1);
      if (job.completed_iterations() % interval != 0) continue;
      PredictionService fresh(interval);
      const CurvePrediction ps = service.predict_at_max(job);
      const CurvePrediction pf = fresh.predict_at_max(job);
      EXPECT_EQ(ps.accuracy, pf.accuracy) << "done=" << job.completed_iterations();
      EXPECT_EQ(ps.confidence, pf.confidence) << "done=" << job.completed_iterations();
      fresh_evals += fresh.stats().nm_objective_evals;
    }
    EXPECT_GT(service.stats().nm_objective_evals, 0u);
    // Fresh services recompute every chain prefix; the service fits each
    // link once, so it must do strictly less Nelder-Mead work.
    EXPECT_LT(service.stats().nm_objective_evals, fresh_evals);
  }
}

TEST(PredictionService, BelowFirstLinkFallsBackToLastObservation) {
  Job job = make_job();
  PredictionService svc(/*check_interval=*/5);
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
  PredictionService svc(/*check_interval=*/3);
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
  PredictionService svc(/*check_interval=*/3);
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
  PredictionService svc(/*check_interval=*/3);
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
  PredictionService svc(/*check_interval=*/3);
  advance(job, svc, 9);
  (void)svc.predict_at_max(job);

  std::string bytes;
  {
    io::BinWriter w(bytes);
    svc.save_state(w);
  }
  PredictionService restored(/*check_interval=*/3);
  {
    io::BinReader r(bytes);
    restored.restore_state(restored.read_state(r));
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
  // incremental chain and a fresh service alike, so the two still agree
  // bit for bit — and the coarse fit must differ from the exact one once
  // the job is past the exactly-kept head. A slow-learning curve (large
  // kappa) keeps the fits moving there; on a fast one every basis has
  // settled or frozen by then, and both modes carry the same params.
  constexpr int kIterations = 4 * PredictionService::kCoarsenHead;
  Job a = make_job(kIterations, 0.85, /*kappa=*/1000.0);
  Job c = make_job(kIterations, 0.85, /*kappa=*/1000.0);
  PredictionService svc(/*check_interval=*/4, /*coarsen=*/true);
  PredictionService exact(/*check_interval=*/4);
  bool coarse_diverged_from_exact = false;
  for (int i = 0; i < kIterations; ++i) {
    advance(a, svc, 1);
    advance(c, exact, 1);
    if (a.completed_iterations() % 4 != 0) continue;
    PredictionService fresh(/*check_interval=*/4, /*coarsen=*/true);
    const CurvePrediction ps = svc.predict_at_max(a);
    const CurvePrediction pf = fresh.predict_at_max(a);
    const CurvePrediction pe = exact.predict_at_max(c);
    EXPECT_EQ(ps.accuracy, pf.accuracy) << "done=" << a.completed_iterations();
    EXPECT_EQ(ps.confidence, pf.confidence) << "done=" << a.completed_iterations();
    if (ps.accuracy != pe.accuracy) coarse_diverged_from_exact = true;
  }
  EXPECT_TRUE(coarse_diverged_from_exact);
  EXPECT_GT(svc.stats().fits_cold + svc.stats().fits_warm, 0u);
}

/// Every field of one chain link, doubles by bit pattern.
std::string link_bytes(const PredictionService::LinkRecord& rec) {
  std::string out;
  io::BinWriter w(out);
  w.i64(rec.done);
  for (const PredictionService::BasisFitRec& b : rec.basis) {
    w.vec_f64(b.params);
    w.f64(b.rmse);
    w.f64(b.value);
    w.f64(b.drift);
    w.boolean(b.frozen);
    w.i64(b.low_streak);
    w.i64(b.restarts);
  }
  return out;
}

/// Checks one job's cached chain against a fresh service queried at the
/// memoized check point: the memoized prediction and every stored link up
/// to that point must be bitwise what the from-scratch chain computes.
void expect_matches_fresh_service(const SimEngine& engine, JobId id,
                                  const PredictionService::JobState& st) {
  const PredictionService& svc = engine.prediction_service();
  Job probe = engine.cluster().job(id);
  probe.rollback_iterations(std::max(0, probe.completed_iterations() - st.memo_done));
  while (probe.completed_iterations() < st.memo_done) probe.complete_iteration();
  ASSERT_EQ(st.memo_target, probe.spec().max_iterations);

  PredictionService fresh(svc.check_interval(), engine.config().coarsen_curve);
  const CurvePrediction expected = fresh.predict_at_max(probe);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(st.memo.accuracy),
            std::bit_cast<std::uint64_t>(expected.accuracy))
      << "job " << id << " done=" << st.memo_done;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(st.memo.confidence),
            std::bit_cast<std::uint64_t>(expected.confidence))
      << "job " << id << " done=" << st.memo_done;
  const std::vector<PredictionService::LinkRecord>& chain =
      fresh.cached_states().at(id).links;
  ASSERT_LE(chain.size(), st.links.size()) << "job " << id;
  for (std::size_t l = 0; l < chain.size(); ++l) {
    EXPECT_EQ(link_bytes(st.links[l]), link_bytes(chain[l]))
        << "job " << id << " link at done=" << chain[l].done;
  }
}

TEST(PredictionServiceEngine, StoredLinksMatchAFreshServiceAcrossRollbacksAndRestore) {
  // OptStop jobs only, on a fleet whose crashes and kills roll jobs back
  // to a checkpoint up to eleven iterations old — past more than one check
  // point — so OptStop checks re-enter links the chain already holds. The
  // engine is saved and restored into a fresh one mid-run. Every time a
  // job's memoized prediction moves, it and the links under it are
  // compared with a fresh service's.
  exp::RunRequest r;
  r.label = "chain-oracle";
  r.cluster.server_count = 4;
  r.cluster.gpus_per_server = 4;
  r.engine.seed = 11;
  r.engine.max_sim_time = hours(72.0);
  r.engine.fault.server_mtbf_hours = 2.0;
  r.engine.fault.task_kill_probability = 0.005;
  r.engine.fault.checkpoint_interval_iterations = 12;
  r.trace.num_jobs = 16;
  r.trace.duration_hours = 1.0;
  r.trace.seed = 3;
  r.trace.max_gpu_request = 4;
  r.trace.max_iterations = 160;
  r.trace.policy_fixed_fraction = 0.0;
  r.trace.policy_optstop_fraction = 1.0;
  r.scheduler = "MLF-H";

  exp::EngineBundle bundle = exp::build_engine(r);
  std::map<JobId, std::tuple<bool, int, int>> seen;  // job -> last memo key
  std::size_t checks = 0;
  std::size_t reentries = 0;
  const auto check_moved_memos = [&](const SimEngine& engine) {
    for (const auto& [id, st] : engine.prediction_service().cached_states()) {
      const std::tuple<bool, int, int> key{st.memo_valid, st.memo_done, st.memo_target};
      auto it = seen.find(id);
      if (it != seen.end() && it->second == key) continue;
      if (it != seen.end() && st.memo_done < std::get<1>(it->second)) ++reentries;
      seen[id] = key;
      if (!st.memo_valid) continue;
      expect_matches_fresh_service(engine, id, st);
      ++checks;
    }
  };

  constexpr int kRestoreAt = 1000;
  for (int i = 0; i < kRestoreAt && bundle.engine->step(); ++i) {
    check_moved_memos(*bundle.engine);
  }
  std::ostringstream saved(std::ios::binary);
  bundle.engine->save_snapshot(saved);
  exp::EngineBundle restored = exp::build_engine(r);
  {
    std::istringstream is(saved.str(), std::ios::binary);
    restored.engine->restore_snapshot(is);
  }
  // Everything the restored service holds, checked once in full.
  for (const auto& [id, st] : restored.engine->prediction_service().cached_states()) {
    if (st.memo_valid) expect_matches_fresh_service(*restored.engine, id, st);
  }
  while (restored.engine->step()) check_moved_memos(*restored.engine);

  const RunMetrics m = restored.engine->finalize();
  EXPECT_GT(m.iterations_rolled_back, 0u);
  EXPECT_GT(reentries, 0u);
  EXPECT_GT(checks, 20u);
}

}  // namespace
}  // namespace mlfs
