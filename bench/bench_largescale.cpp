// Large-scale placement + prediction benchmark (DESIGN.md, "Scheduler hot
// path" and "Prediction service").
//
// Replays a Philly-scale point — 550 servers / 2474 GPUs (the trace's
// heterogeneous footprint) with a saturating arrival stream — end-to-end
// under MLF-H, streaming its JSONL event log through an FNV-1a hash. At
// smoke scale that hash is pinned: any other value means a decision
// changed, and the benchmark fails. The same leg's mean wall-clock per
// scheduling round is held under a pinned ceiling, its nm_objective_evals
// under another, and its fit_wall_ms / run_wall_ms is the wall-clock share
// the predictor still costs — all gated. A second stage runs every
// registered scheduler once at a mid-size point and reports each one's
// event-stream hash and ms per round.
//
// All legs execute through the shared experiment runner on the pool
// (hashes and counters are simulation-deterministic, so parallelism
// cannot change them; only the real-clock measurements — sched_overhead_ms
// and the fit/run wall times — carry contention noise, and the wall-share
// gate is a ratio of two clocks inside the *same* run).
//
// Emits BENCH_largescale.json (with the predictor timing breakdown) and
// exits non-zero if any gate fails. CI runs `--smoke` (same fleet, shorter
// stream, smaller matrix) and uploads the file.
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
/// averages, so the funnel is measured under sustained overload.
exp::RunRequest philly_request(std::size_t jobs, double hours) {
  exp::RunRequest request;
  request.label = "philly-550";
  request.cluster.server_count = 550;
  request.cluster.total_gpus = 2474;
  request.cluster.gpus_per_server = 4;  // overridden by total_gpus
  request.trace.num_jobs = jobs;
  request.trace.duration_hours = hours;
  request.trace.seed = 2020;
  request.trace.max_gpu_request = 32;
  request.engine.seed = 2020 ^ 0xbeef;
  request.scheduler = "MLF-H";
  request.mlfs_config.heuristic_only = true;
  return request;
}

/// One mid-size matrix leg per registered scheduler.
exp::RunRequest matrix_request(const std::string& scheduler, std::size_t servers,
                               std::size_t jobs, double hours) {
  exp::RunRequest request;
  request.label = scheduler;
  request.cluster.server_count = servers;
  request.cluster.gpus_per_server = 4;
  request.trace.num_jobs = jobs;
  request.trace.duration_hours = hours;
  request.trace.seed = 1117;
  request.trace.max_gpu_request = 16;
  request.engine.seed = 1117 ^ 0xfeed;
  request.scheduler = scheduler;
  return request;
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
  // The smoke point's event-stream hash, on which the bucketed placement
  // index and the linear funnel agreed before the index was deleted. Only
  // a deliberate decision change may move it, and then only with the
  // golden hashes. The full point has no pinned value.
  constexpr std::uint64_t kSmokeStreamHash = 10940262316457112062ull;
  // Mean wall-clock per scheduling round of the smoke leg: 1.99 ms before
  // the index was deleted (median of 3 runs of the bucketed leg, Release,
  // 3 threads on a shared 4-vCPU host). The ceiling leaves 3x of headroom
  // for slower runners; the full point is not gated.
  const double ms_per_round_ceiling = 6.0;
  // Curve-fit work: refitting the whole warm-start chain from scratch at
  // every OptStop check (what a fresh service per check does) spends
  // 13975257 Nelder-Mead objective evaluations on the smoke point and
  // 570088805 on the full one; the service computes each link once. The
  // ceiling is a fifth of those counts, so the service stays >= 5x
  // cheaper (it measured ~31x at smoke scale).
  const std::size_t nm_ceiling = smoke ? 2795051 : 114017761;
  // Predictor wall-clock share of the Philly leg (was ~56% of the run
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
  add(philly_request(philly_jobs, philly_hours));
  for (const std::string& name : schedulers) {
    add(matrix_request(name, matrix_servers, matrix_jobs, matrix_hours));
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

  const RunMetrics& philly = results[0];
  const std::uint64_t philly_hash = hashers[0]->sink.hash();
  const bool hash_ok = !smoke || philly_hash == kSmokeStreamHash;
  const bool ms_ok = !smoke || philly.sched_overhead_ms <= ms_per_round_ceiling;
  const double philly_fit_share = fit_share(philly);

  std::cout << "=== philly point ===\n";
  std::cout << "  " << philly.summary() << "\n";
  std::cout << "  event stream: hash " << philly_hash << " over " << hashers[0]->sink.bytes()
            << " bytes";
  if (smoke) std::cout << " (pinned " << kSmokeStreamHash << ")";
  std::cout << "\n  " << philly.sched_overhead_ms << " ms per round";
  if (smoke) std::cout << " (ceiling " << ms_per_round_ceiling << ")";
  std::cout << ", " << philly.candidates_scanned << " candidates scanned\n"
            << "  curve fits: " << philly.nm_objective_evals << " NM evals (ceiling "
            << nm_ceiling << "), fit wall share "
            << philly_fit_share << " (gate " << fit_share_gate << ")\n";

  // Hashes go out as strings: a JSON number cannot hold every u64 exactly.
  json << "{\n  \"benchmark\": \"largescale\",\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"wall_seconds\": " << wall_seconds
       << ",\n  \"philly\": {\"servers\": 550, \"gpus\": 2474, \"jobs\": " << philly_jobs
       << ", \"arrival_hours\": " << philly_hours
       << ",\n    \"event_stream_hash\": \"" << philly_hash << "\"";
  if (smoke) {
    json << ", \"pinned_stream_hash\": \"" << kSmokeStreamHash << "\"";
  }
  json << ", \"event_stream_bytes\": " << hashers[0]->sink.bytes()
       << ",\n    \"candidates_scanned\": " << philly.candidates_scanned
       << ", \"ms_per_round\": " << philly.sched_overhead_ms;
  if (smoke) json << ", \"ms_per_round_ceiling\": " << ms_per_round_ceiling;
  json << ",\n    \"predictor\": {\"fits_cold\": " << philly.fits_cold
       << ", \"fits_warm\": " << philly.fits_warm
       << ", \"cache_hits\": " << philly.prediction_cache_hits
       << ",\n      \"nm_evals\": " << philly.nm_objective_evals
       << ", \"nm_eval_ceiling\": " << nm_ceiling
       << ",\n      \"fit_wall_ms\": " << philly.fit_wall_ms
       << ", \"run_wall_ms\": " << philly.run_wall_ms
       << ", \"fit_wall_share\": " << philly_fit_share
       << ", \"fit_share_gate\": " << fit_share_gate
       << "}},\n  \"scheduler_matrix\": [\n";
  for (std::size_t i = 0; i < schedulers.size(); ++i) {
    const RunMetrics& m = results[1 + i];
    const std::uint64_t hash = hashers[1 + i]->sink.hash();
    std::cout << "  " << schedulers[i] << ": hash=" << hash << " ms_per_round="
              << m.sched_overhead_ms << " nm_evals=" << m.nm_objective_evals << "\n";
    json << "    {\"scheduler\": \"" << schedulers[i] << "\", \"event_stream_hash\": \"" << hash
         << "\", \"ms_per_round\": " << m.sched_overhead_ms
         << ", \"nm_evals\": " << m.nm_objective_evals << "}"
         << (i + 1 < schedulers.size() ? "," : "") << "\n";
  }
  const bool pass = hash_ok && ms_ok && philly.nm_objective_evals <= nm_ceiling &&
                    philly_fit_share < fit_share_gate;
  json << "  ],\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::cout << "wrote " << out_file << " (" << wall_seconds << "s)\n";

  if (!hash_ok) {
    std::cerr << "FAIL: philly event-stream hash " << philly_hash << " != pinned "
              << kSmokeStreamHash << " (a placement decision changed)\n";
    return 1;
  }
  if (!ms_ok) {
    std::cerr << "FAIL: " << philly.sched_overhead_ms << " ms per scheduling round exceeds the "
              << ms_per_round_ceiling << " ms ceiling\n";
    return 1;
  }
  if (philly.nm_objective_evals > nm_ceiling) {
    std::cerr << "FAIL: " << philly.nm_objective_evals << " NM objective evals exceed the "
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
