// Micro-benchmarks (google-benchmark) of the snapshot subsystem: snapshot
// serialization cost and restore cost at several mid-run engine sizes, and
// an MLFS engine's snapshot size at three depths of one run, and the
// trailing checksum alone (v6 FNV-1a vs the v7 word hash). The
// save path is what a production checkpoint stride pays per snapshot, so
// the headline number is bytes + wall time per save at a realistic event
// depth; restore cost bounds crash-recovery latency.
//
// Usage: bench_snapshot [google-benchmark flags]
#include <benchmark/benchmark.h>

#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "exp/runner.hpp"
#include "sim/engine.hpp"
#include "sim/snapshot.hpp"

namespace {

using namespace mlfs;

exp::RunRequest snapshot_request(std::size_t servers, std::size_t jobs) {
  exp::RunRequest r;
  r.label = "bench-snapshot";
  r.cluster.server_count = servers;
  r.cluster.gpus_per_server = 4;
  r.cluster.servers_per_rack = 4;
  r.engine.seed = 17;
  r.engine.max_sim_time = hours(24.0 * 14);
  r.engine.fault.server_mtbf_hours = 24.0;
  r.engine.fault.task_kill_probability = 0.002;
  r.engine.recovery.enabled = true;
  r.trace.num_jobs = jobs;
  r.trace.duration_hours = 4.0;
  r.trace.seed = 5;
  r.trace.max_gpu_request = 8;
  r.scheduler = "MLF-H";
  return r;
}

/// Steps a fresh engine to `events` dispatched events (or completion).
exp::EngineBundle engine_at(std::size_t servers, std::size_t jobs, std::uint64_t events) {
  exp::EngineBundle bundle = exp::build_engine(snapshot_request(servers, jobs));
  while (bundle.engine->events_processed() < events && bundle.engine->step()) {
  }
  return bundle;
}

void BM_SnapshotSave(benchmark::State& state) {
  const auto servers = static_cast<std::size_t>(state.range(0));
  const auto jobs = static_cast<std::size_t>(state.range(1));
  const exp::EngineBundle bundle = engine_at(servers, jobs, 2000);
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os(std::ios::binary);
    bundle.engine->save_snapshot(os);
    bytes = os.str().size();
    benchmark::DoNotOptimize(os);
  }
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SnapshotSave)->Args({4, 20})->Args({16, 80})->Args({32, 200});

/// A full MLFS stack (policy cloned early, MLF-C on) saved at three depths
/// of one run. `bytes` should stay flat: a snapshot holds live state, not
/// per-iteration history.
exp::RunRequest mlfs_request() {
  exp::RunRequest r;
  r.label = "bench-snapshot-mlfs";
  r.cluster.server_count = 16;
  r.cluster.gpus_per_server = 4;
  r.engine.seed = 17;
  r.engine.max_sim_time = hours(24.0 * 30);
  r.trace.num_jobs = 300;
  r.trace.duration_hours = 24.0;
  r.trace.seed = 5;
  r.trace.max_gpu_request = 8;
  r.scheduler = "MLFS";
  r.mlfs_config.rl.warmup_samples = 40;
  return r;
}

void BM_MlfsSnapshotSaveAtDepth(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  const exp::EngineBundle bundle = exp::build_engine(mlfs_request());
  while (bundle.engine->events_processed() < events && bundle.engine->step()) {
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os(std::ios::binary);
    bundle.engine->save_snapshot(os);
    bytes = os.str().size();
    benchmark::DoNotOptimize(os);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["events"] = static_cast<double>(bundle.engine->events_processed());
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MlfsSnapshotSaveAtDepth)->Arg(10000)->Arg(20000)->Arg(30000);

/// The trailing checksum alone over a stream-durable-sized snapshot
/// (2.34 MB, the final checkpoint of a stream-durable-mlfs session):
/// Arg(6) is the v5/v6 byte-serial FNV-1a, Arg(7) the v7 word hash.
void BM_SnapshotChecksum(benchmark::State& state) {
  const auto version = static_cast<std::uint32_t>(state.range(0));
  std::string bytes(2'340'000, '\0');
  Rng rng(11);
  for (char& c : bytes) c = static_cast<char>(rng.uniform_int(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot_checksum(version, bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SnapshotChecksum)->Arg(6)->Arg(7)->Unit(benchmark::kMicrosecond);

void BM_SnapshotRestore(benchmark::State& state) {
  const auto servers = static_cast<std::size_t>(state.range(0));
  const auto jobs = static_cast<std::size_t>(state.range(1));
  const exp::EngineBundle donor = engine_at(servers, jobs, 2000);
  std::ostringstream os(std::ios::binary);
  donor.engine->save_snapshot(os);
  const std::string bytes = os.str();
  for (auto _ : state) {
    state.PauseTiming();
    exp::EngineBundle victim = exp::build_engine(snapshot_request(servers, jobs));
    state.ResumeTiming();
    std::istringstream is(bytes, std::ios::binary);
    victim.engine->restore_snapshot(is);
    benchmark::DoNotOptimize(victim.engine->event_stream_hash());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SnapshotRestore)->Args({4, 20})->Args({16, 80})->Args({32, 200});

/// The overhead a checkpoint stride adds to a whole run: events/sec with
/// and without a save every `stride` events (save to a reused stringstream,
/// no disk). Ratio of the two entries is the stride tax.
void BM_RunWithSnapshotStride(benchmark::State& state) {
  const auto stride = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    exp::EngineBundle bundle = exp::build_engine(snapshot_request(4, 20));
    while (bundle.engine->step()) {
      if (stride > 0 && bundle.engine->events_processed() % stride == 0) {
        std::ostringstream os(std::ios::binary);
        bundle.engine->save_snapshot(os);
        benchmark::DoNotOptimize(os);
      }
    }
    events = bundle.engine->events_processed();
  }
  state.counters["events"] = static_cast<double>(events);
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RunWithSnapshotStride)->Arg(0)->Arg(500)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
