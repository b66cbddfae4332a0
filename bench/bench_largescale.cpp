// Large-scale placement + prediction benchmark — the exit artifact for the
// bucketed placement index and the memoized prediction service (DESIGN.md,
// "Scheduler hot path" and "Prediction service").
//
// Replays a Philly-scale point — 550 servers / 2474 GPUs (the trace's
// heterogeneous footprint) with a saturating arrival stream — end-to-end
// under MLF-H twice:
//
//   A  bucketed index (the default configuration)
//   B  linear funnel
//
// Both legs stream their JSONL event logs through an FNV-1a hash, so the
// benchmark *proves* the index changed no decision. Leg A's
// candidates_linear / candidates_scanned quotient is the measured
// candidate reduction, its nm_objective_evals is held under a pinned
// ceiling, and its fit_wall_ms / run_wall_ms is the wall-clock share the
// predictor still costs — all three are gated. A second stage runs every
// registered scheduler at a mid-size point with the same two legs, so the
// byte-identical claim covers the whole registry rather than MLF-H alone.
//
// All legs execute through the shared experiment runner on the pool
// (hashes and counters are simulation-deterministic, so parallelism
// cannot change them; only the real-clock measurements — sched_overhead_ms
// and the fit/run wall times — carry contention noise, and the wall-share
// gate is a ratio of two clocks inside the *same* run).
//
// Emits BENCH_largescale.json (with the predictor timing breakdown) and
// exits non-zero if any leg pair diverges or any gate fails. CI runs
// `--smoke` (same fleet, shorter stream, smaller matrix) and uploads the
// file.
//
// Usage: bench_largescale [--smoke] [--out FILE] [--threads N]
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "exp/parallel.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "sim/event_log.hpp"

namespace {

using namespace mlfs;

/// Sink that FNV-1a-hashes everything written to it — compares
/// multi-million-line event streams without holding either in memory.
class HashStreamBuf : public std::streambuf {
 public:
  std::uint64_t hash() const { return hash_; }
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int overflow(int ch) override {
    if (ch != traits_type::eof()) mix(static_cast<unsigned char>(ch));
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) mix(static_cast<unsigned char>(s[i]));
    return n;
  }

 private:
  void mix(unsigned char c) {
    hash_ = (hash_ ^ c) * 1099511628211ull;
    ++bytes_;
  }
  std::uint64_t hash_ = 1469598103934665603ull;
  std::uint64_t bytes_ = 0;
};

/// Per-run hashing observer bundle with stable addresses for the batch.
struct HashedRun {
  HashStreamBuf sink;
  std::unique_ptr<std::ostream> out;
  std::unique_ptr<JsonlEventLog> log;

  HashedRun() : out(std::make_unique<std::ostream>(&sink)),
                log(std::make_unique<JsonlEventLog>(*out)) {}
};

/// The Philly-scale leg: heterogeneous 550-server / 2474-GPU fleet, MLF-H,
/// arrival rate held at the saturating ~375 jobs/hour the full trace
/// averages, so the funnel is measured under sustained overload — the
/// regime the index exists for.
exp::RunRequest philly_request(std::size_t jobs, double hours, bool bucketed) {
  exp::RunRequest request;
  request.label = std::string(bucketed ? "bucketed" : "linear") + " philly-550";
  request.cluster.server_count = 550;
  request.cluster.total_gpus = 2474;
  request.cluster.gpus_per_server = 4;  // overridden by total_gpus
  request.cluster.placement_bucket_index = bucketed;
  request.trace.num_jobs = jobs;
  request.trace.duration_hours = hours;
  request.trace.seed = 2020;
  request.trace.max_gpu_request = 32;
  request.engine.seed = 2020 ^ 0xbeef;
  request.scheduler = "MLF-H";
  request.mlfs_config.heuristic_only = true;
  return request;
}

/// One mid-size matrix leg: every registered scheduler must stay
/// byte-identical with the index on.
exp::RunRequest matrix_request(const std::string& scheduler, std::size_t servers,
                               std::size_t jobs, double hours, bool bucketed) {
  exp::RunRequest request;
  request.label = std::string(bucketed ? "bucketed" : "linear") + " " + scheduler;
  request.cluster.server_count = servers;
  request.cluster.gpus_per_server = 4;
  request.cluster.placement_bucket_index = bucketed;
  request.trace.num_jobs = jobs;
  request.trace.duration_hours = hours;
  request.trace.seed = 1117;
  request.trace.max_gpu_request = 16;
  request.engine.seed = 1117 ^ 0xfeed;
  request.scheduler = scheduler;
  return request;
}

bool identical(const HashedRun& a, const HashedRun& b) {
  return a.sink.hash() == b.sink.hash() && a.sink.bytes() == b.sink.bytes() &&
         a.sink.bytes() > 0;
}

double reduction(const RunMetrics& m) {
  return m.candidates_scanned > 0
             ? static_cast<double>(m.candidates_linear) /
                   static_cast<double>(m.candidates_scanned)
             : 0.0;
}

double fit_share(const RunMetrics& m) {
  return m.run_wall_ms > 0.0 ? m.fit_wall_ms / m.run_wall_ms : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_file = "BENCH_largescale.json";
  unsigned threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_file = argv[++i];
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = static_cast<unsigned>(std::stoul(argv[++i]));
  }

  // Full mode replays the trace's job count over its average arrival rate;
  // smoke keeps the same 550-server fleet (the gate is about scale, not a
  // toy topology) on a shorter stream so CI finishes in a few minutes.
  const std::size_t philly_jobs = smoke ? 3000 : 117000;
  const double philly_hours = smoke ? 4.0 : 280.0;
  const std::size_t matrix_servers = smoke ? 32 : 64;
  const std::size_t matrix_jobs = smoke ? 300 : 800;
  const double matrix_hours = smoke ? 4.0 : 6.0;
  // The full Philly point measures >= 120x; smoke's shorter stream spends
  // proportionally longer in the (index-unfriendly) empty-cluster fill
  // phase, so its floor is lower. Both gates sit well below measured
  // values and orders of magnitude above the ~5x a feasibility-only
  // funnel can reach.
  const double reduction_gate = smoke ? 40.0 : 100.0;
  // Curve-fit work: refitting the whole warm-start chain from scratch at
  // every OptStop check (what a fresh service per check does) spends
  // 13975257 Nelder-Mead objective evaluations on the smoke point and
  // 570088805 on the full one; the service computes each link once. The
  // ceiling is a fifth of those counts, so the service stays >= 5x
  // cheaper (it measured ~31x at smoke scale).
  const std::size_t nm_ceiling = smoke ? 2795051 : 114017761;
  // Predictor wall-clock share of the default leg (was ~56% of the run
  // before the service and ~17% with it while pow3 ran a full
  // three-parameter Nelder-Mead; the separable fits must keep it under 5%).
  const double fit_share_gate = 0.05;

  std::ofstream json(out_file);
  if (!json) {
    std::cerr << "cannot open " << out_file << "\n";
    return 1;
  }

  const std::vector<std::string> schedulers = exp::registered_scheduler_names();

  std::vector<exp::RunRequest> requests;
  std::vector<std::unique_ptr<HashedRun>> hashers;
  auto add = [&](exp::RunRequest request) {
    hashers.push_back(std::make_unique<HashedRun>());
    request.observer = hashers.back()->log.get();
    requests.push_back(std::move(request));
  };
  // Philly legs A / B (see file comment).
  add(philly_request(philly_jobs, philly_hours, /*bucketed=*/true));
  add(philly_request(philly_jobs, philly_hours, /*bucketed=*/false));
  // Matrix: per scheduler the same two legs at a mid-size point.
  for (const std::string& name : schedulers) {
    add(matrix_request(name, matrix_servers, matrix_jobs, matrix_hours, true));
    add(matrix_request(name, matrix_servers, matrix_jobs, matrix_hours, false));
  }

  exp::RunOptions options;
  options.threads = threads;
  std::cout << "bench_largescale: " << requests.size() << " runs ("
            << exp::resolve_threads(threads) << " threads), philly point = 550 servers / "
            << "2474 GPUs / " << philly_jobs << " jobs over " << philly_hours << "h\n";
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<RunMetrics> results = exp::run_batch(requests, options);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const RunMetrics& leg_a = results[0];  // bucketed (default)
  const RunMetrics& leg_b = results[1];  // linear
  const bool philly_index_identical = identical(*hashers[0], *hashers[1]);
  const double philly_reduction = reduction(leg_a);
  const double philly_fit_share = fit_share(leg_a);
  // The linear leg must agree on what a linear funnel scans, and the
  // bucketed leg's funnel accounting must cover every such candidate.
  const bool counter_consistent =
      leg_b.candidates_scanned == leg_b.candidates_linear &&
      leg_a.candidates_linear == leg_b.candidates_linear &&
      leg_a.candidates_scanned + leg_a.pindex_servers_pruned +
              leg_a.pindex_servers_bypassed ==
          leg_a.candidates_linear;
  const double speedup = leg_a.sched_overhead_ms > 0.0
                             ? leg_b.sched_overhead_ms / leg_a.sched_overhead_ms
                             : 0.0;

  std::cout << "=== philly point ===\n";
  std::cout << "  default : " << leg_a.summary() << "\n";
  std::cout << "  linear  : " << leg_b.summary() << "\n";
  std::cout << "  index_identical=" << (philly_index_identical ? "true" : "false")
            << "\n  candidates: " << leg_a.candidates_scanned << " scanned vs "
            << leg_a.candidates_linear << " linear (" << philly_reduction
            << "x reduction, gate " << reduction_gate << "x), sched-round speedup "
            << speedup << "x\n"
            << "  curve fits: " << leg_a.nm_objective_evals << " NM evals (ceiling "
            << nm_ceiling << "), fit wall share "
            << philly_fit_share << " (gate " << fit_share_gate << ")\n";

  bool matrix_identical = true;
  json << "{\n  \"benchmark\": \"largescale\",\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"wall_seconds\": " << wall_seconds
       << ",\n  \"philly\": {\"servers\": 550, \"gpus\": 2474, \"jobs\": " << philly_jobs
       << ", \"arrival_hours\": " << philly_hours
       << ",\n    \"index_decisions_identical\": " << (philly_index_identical ? "true" : "false")
       << ", \"event_stream_bytes\": " << hashers[0]->sink.bytes()
       << ", \"counter_accounting_consistent\": " << (counter_consistent ? "true" : "false")
       << ",\n    \"candidates_scanned\": " << leg_a.candidates_scanned
       << ", \"candidates_linear\": " << leg_a.candidates_linear
       << ", \"reduction_x\": " << philly_reduction
       << ", \"reduction_gate_x\": " << reduction_gate
       << ",\n    \"pindex_queries\": " << leg_a.pindex_queries
       << ", \"pindex_servers_pruned\": " << leg_a.pindex_servers_pruned
       << ", \"pindex_servers_bypassed\": " << leg_a.pindex_servers_bypassed
       << ",\n    \"ms_per_round_bucketed\": " << leg_a.sched_overhead_ms
       << ", \"ms_per_round_linear\": " << leg_b.sched_overhead_ms
       << ", \"sched_round_speedup\": " << speedup
       << ",\n    \"predictor\": {\"fits_cold\": " << leg_a.fits_cold
       << ", \"fits_warm\": " << leg_a.fits_warm
       << ", \"cache_hits\": " << leg_a.prediction_cache_hits
       << ",\n      \"nm_evals\": " << leg_a.nm_objective_evals
       << ", \"nm_eval_ceiling\": " << nm_ceiling
       << ",\n      \"fit_wall_ms\": " << leg_a.fit_wall_ms
       << ", \"run_wall_ms\": " << leg_a.run_wall_ms
       << ", \"fit_wall_share\": " << philly_fit_share
       << ", \"fit_share_gate\": " << fit_share_gate
       << "}},\n  \"scheduler_matrix\": [\n";
  for (std::size_t i = 0; i < schedulers.size(); ++i) {
    const RunMetrics& on = results[2 + 2 * i];
    const bool index_same = identical(*hashers[2 + 2 * i], *hashers[3 + 2 * i]);
    matrix_identical = matrix_identical && index_same;
    std::cout << "  " << schedulers[i] << ": index_identical="
              << (index_same ? "true" : "false") << " reduction=" << reduction(on)
              << "x nm_evals=" << on.nm_objective_evals << "\n";
    json << "    {\"scheduler\": \"" << schedulers[i]
         << "\", \"index_decisions_identical\": " << (index_same ? "true" : "false")
         << ", \"reduction_x\": " << reduction(on)
         << ", \"nm_evals\": " << on.nm_objective_evals << "}"
         << (i + 1 < schedulers.size() ? "," : "") << "\n";
  }
  const bool all_identical = philly_index_identical && matrix_identical;
  const bool pass = all_identical && counter_consistent &&
                    philly_reduction >= reduction_gate &&
                    leg_a.nm_objective_evals <= nm_ceiling && philly_fit_share < fit_share_gate;
  json << "  ],\n  \"all_decisions_identical\": " << (all_identical ? "true" : "false")
       << ",\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::cout << "wrote " << out_file << " (" << wall_seconds << "s)\n";

  if (!all_identical) {
    std::cerr << "FAIL: a bucketed-index leg diverged from its linear-funnel reference\n";
    return 1;
  }
  if (!counter_consistent) {
    std::cerr << "FAIL: funnel counter accounting inconsistent between legs\n";
    return 1;
  }
  if (philly_reduction < reduction_gate) {
    std::cerr << "FAIL: candidate reduction " << philly_reduction << "x below the "
              << reduction_gate << "x gate\n";
    return 1;
  }
  if (leg_a.nm_objective_evals > nm_ceiling) {
    std::cerr << "FAIL: " << leg_a.nm_objective_evals << " NM objective evals exceed the "
              << nm_ceiling << " ceiling\n";
    return 1;
  }
  if (philly_fit_share >= fit_share_gate) {
    std::cerr << "FAIL: curve-fit wall share " << philly_fit_share << " at or above the "
              << fit_share_gate << " gate\n";
    return 1;
  }
  return 0;
}
