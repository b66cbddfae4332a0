// Streaming ingestion + durable-session tests (exp/durable.hpp): injected
// arrivals flow through the same event queue / auditor / metrics as
// trace-driven jobs, snapshots carry them, and the journal closes the
// crash loop — SIGKILL-equivalent halts at arbitrary event indices recover
// byte-identical (event_stream_hash and deterministic_equal) to a run that
// never crashed, including torn-tail journals, clean-shutdown re-runs and
// snapshot retention pruning.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "exp/durable.hpp"
#include "exp/runner.hpp"
#include "sim/engine.hpp"
#include "sim/snapshot.hpp"

namespace mlfs {
namespace {

namespace fs = std::filesystem;
using exp::ScriptedArrivalSource;

exp::RunRequest streaming_request() {
  exp::RunRequest r;
  r.label = "durable-unit";
  r.cluster.server_count = 3;
  r.cluster.gpus_per_server = 4;
  r.cluster.servers_per_rack = 2;
  r.engine.seed = 17;
  r.engine.max_sim_time = hours(48.0);
  r.engine.fault.server_mtbf_hours = 24.0;
  r.engine.fault.task_kill_probability = 0.002;
  r.engine.recovery.enabled = true;
  r.engine.audit.enabled = true;
  r.engine.audit.stride = 1;
  r.trace.num_jobs = 8;
  r.trace.duration_hours = 1.0;
  r.trace.seed = 5;
  r.trace.max_gpu_request = 6;
  r.scheduler = "MLFS";
  return r;
}

JobSpec streamed_spec(int i) {
  JobSpec spec;
  spec.algorithm = MlAlgorithm::Mlp;
  spec.comm = CommStructure::AllReduce;
  spec.arrival = hours(0.4 + 0.3 * i);
  spec.urgency = 5.0;
  spec.gpu_request = 2;
  spec.max_iterations = 30 + 5 * i;
  spec.train_data_mb = 256.0;
  spec.accuracy_requirement = 0.75;
  spec.curve.noise_seed = 31u + static_cast<unsigned>(i);
  spec.seed = 200u + static_cast<unsigned>(i);
  return spec;
}

std::vector<ScriptedArrivalSource::Entry> streamed_script(int count) {
  std::vector<JobSpec> specs;
  for (int i = 0; i < count; ++i) specs.push_back(streamed_spec(i));
  return exp::make_script(specs);
}

/// Per-test scratch directory (tests may run concurrently — unique names).
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() / ("mlfs_durable_" + name)).string()) {
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

// ------------------------------------------------------------- streaming

TEST(StreamingArrivals, FlowThroughEventQueueAuditorAndMetrics) {
  // Audit stride 1: every invariant sweep runs over the grown cluster
  // after each injection; metrics must reconcile the injection ledger.
  const RunMetrics m = exp::run_streaming(streaming_request(), streamed_script(3));
  EXPECT_EQ(m.jobs_injected, 3u);
  EXPECT_EQ(m.job_count, 8u + 3u);
  EXPECT_GT(m.events_processed, 0u);
}

TEST(StreamingArrivals, DisabledSourceMatchesPlainRun) {
  // No source attached vs an empty script: byte-identical.
  const RunMetrics plain = exp::execute_run(streaming_request());
  const RunMetrics empty = exp::run_streaming(streaming_request(), {});
  EXPECT_TRUE(deterministic_equal(plain, empty));
  EXPECT_EQ(plain.event_stream_hash, empty.event_stream_hash);
  EXPECT_EQ(empty.jobs_injected, 0u);
}

TEST(StreamingArrivals, SnapshotCarriesInjectedJobs) {
  // Cut a snapshot after every streamed job has been injected; a fresh
  // engine restored from the bytes must re-save identically and finish
  // bit-identical to the donor.
  ScriptedArrivalSource source(streamed_script(3));
  exp::EngineBundle donor = exp::build_engine(streaming_request());
  donor.engine->set_arrival_source(&source);
  while (donor.engine->injected_specs().size() < 3 && donor.engine->step()) {
  }
  ASSERT_EQ(donor.engine->injected_specs().size(), 3u);
  for (int i = 0; i < 25 && donor.engine->step(); ++i) {
  }
  std::ostringstream os(std::ios::binary);
  donor.engine->save_snapshot(os);
  const std::string bytes = os.str();

  exp::EngineBundle twin = exp::build_engine(streaming_request());
  {
    std::istringstream is(bytes, std::ios::binary);
    twin.engine->restore_snapshot(is);
  }
  EXPECT_EQ(twin.engine->injected_specs().size(), 3u);
  EXPECT_EQ(twin.engine->base_job_count(), 8u);
  std::ostringstream resaved(std::ios::binary);
  twin.engine->save_snapshot(resaved);
  EXPECT_EQ(resaved.str(), bytes);

  while (donor.engine->step()) {
  }
  while (twin.engine->step()) {
  }
  const RunMetrics expected = donor.engine->finalize();
  const RunMetrics actual = twin.engine->finalize();
  EXPECT_TRUE(deterministic_equal(expected, actual));
  EXPECT_EQ(expected.event_stream_hash, actual.event_stream_hash);
  EXPECT_EQ(actual.jobs_injected, 3u);
}

TEST(StreamingArrivals, RestoreRebuildsTheLiveJobSet) {
  // The live job set is not serialized: restore re-derives it from the
  // pending Arrival events. Snapshots cut throughout a streamed run (before,
  // between and after the injections) must all bring it back unchanged.
  ScriptedArrivalSource source(streamed_script(3));
  exp::EngineBundle donor = exp::build_engine(streaming_request());
  donor.engine->set_arrival_source(&source);
  std::size_t checked = 0;
  bool saw_pending_arrival = false;
  bool saw_live_injected = false;
  for (std::uint64_t event = 0; donor.engine->step(); ++event) {
    if (event % 40 != 0) continue;
    std::ostringstream os(std::ios::binary);
    donor.engine->save_snapshot(os);
    exp::EngineBundle twin = exp::build_engine(streaming_request());
    std::istringstream is(os.str(), std::ios::binary);
    twin.engine->restore_snapshot(is);  // the auditor resyncs and sweeps here

    const Cluster& cluster = donor.engine->cluster();
    const std::span<const JobId> want = cluster.live_jobs();
    const std::span<const JobId> got = twin.engine->cluster().live_jobs();
    ASSERT_EQ(std::vector<JobId>(got.begin(), got.end()),
              std::vector<JobId>(want.begin(), want.end()))
        << "event " << event;
    std::size_t done = 0;
    for (const Job& job : cluster.jobs()) done += job.done() ? 1 : 0;
    saw_pending_arrival |= want.size() + done < cluster.job_count();
    saw_live_injected |= !want.empty() && want.back() >= donor.engine->base_job_count();
    ++checked;
  }
  EXPECT_GT(checked, 5u);
  EXPECT_TRUE(saw_pending_arrival);
  EXPECT_TRUE(saw_live_injected);
}

TEST(StreamingArrivals, RestoreIntoEngineWithInjectionsRejected) {
  // The "injected" section replays into a fresh engine only; restoring
  // over an engine that already injected jobs would double-register them.
  ScriptedArrivalSource source(streamed_script(1));
  exp::EngineBundle donor = exp::build_engine(streaming_request());
  donor.engine->set_arrival_source(&source);
  while (donor.engine->injected_specs().empty() && donor.engine->step()) {
  }
  std::ostringstream os(std::ios::binary);
  donor.engine->save_snapshot(os);

  ScriptedArrivalSource victim_source(streamed_script(1));
  exp::EngineBundle victim = exp::build_engine(streaming_request());
  victim.engine->set_arrival_source(&victim_source);
  while (victim.engine->injected_specs().empty() && victim.engine->step()) {
  }
  std::istringstream is(os.str(), std::ios::binary);
  EXPECT_THROW(victim.engine->restore_snapshot(is), SnapshotError);
}

// ---------------------------------------------------------------- zero loss

TEST(DurableSession, CrashAnywhereRecoversByteIdentical) {
  const exp::RunRequest request = streaming_request();
  const auto script = streamed_script(3);
  // Crash early (before any injection), mid-stream, and late; stride keeps
  // several checkpoints in play so recovery replays a real journal tail.
  const std::uint64_t probes[] = {1, 0x10000001, 0x20000003};
  int index = 0;
  for (const std::uint64_t probe : probes) {
    ScratchDir scratch("crash_" + std::to_string(index++));
    exp::DurableConfig config;
    config.dir = scratch.path;
    config.snapshot_stride = 60;
    const exp::CrashCheckResult result =
        exp::check_crash_equivalence(request, script, probe, config);
    EXPECT_TRUE(result.equivalent) << result.detail;
  }
}

TEST(DurableSession, CrashRecoveryWithoutStreamingStaysByteIdentical) {
  ScratchDir scratch("crash_plain");
  exp::DurableConfig config;
  config.dir = scratch.path;
  config.snapshot_stride = 75;
  const exp::CrashCheckResult result =
      exp::check_crash_equivalence(streaming_request(), {}, 0x3000000fu, config);
  EXPECT_TRUE(result.equivalent) << result.detail;
}

TEST(DurableSession, TornJournalTailIsDroppedAndRecovered) {
  const exp::RunRequest request = streaming_request();
  const auto script = streamed_script(3);
  const RunMetrics reference = exp::run_streaming(request, script);

  ScratchDir scratch("torn_tail");
  exp::DurableConfig config;
  config.dir = scratch.path;
  config.snapshot_stride = 50;
  exp::DurableConfig crashed = config;
  crashed.halt_at_event = reference.events_processed / 2;
  ASSERT_TRUE(exp::run_durable(request, script, crashed).halted);

  // Simulate a write torn mid-frame: garbage partial bytes at the tail of
  // the newest segment. Recovery must truncate it and still converge.
  std::uint64_t newest = 0;
  for (const auto& entry : fs::directory_iterator(scratch.path)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) == 0) {
      newest = std::max<std::uint64_t>(newest, std::stoull(name.substr(5)));
    }
  }
  {
    std::ofstream tail(scratch.path + "/journal-" + std::to_string(newest) + ".wal",
                       std::ios::binary | std::ios::app);
    tail.write("\x7f\x01\x02", 3);
  }

  const exp::DurableResult recovered = exp::run_durable(request, script, config);
  EXPECT_TRUE(recovered.recovered);
  EXPECT_TRUE(recovered.torn_tail_dropped);
  EXPECT_TRUE(deterministic_equal(reference, recovered.metrics))
      << "reference [" << reference.summary() << "] recovered ["
      << recovered.metrics.summary() << "]";
  EXPECT_EQ(reference.event_stream_hash, recovered.metrics.event_stream_hash);
}

TEST(DurableSession, RerunAfterCleanShutdownRecoversAndMatches) {
  const exp::RunRequest request = streaming_request();
  const auto script = streamed_script(2);
  ScratchDir scratch("rerun");
  exp::DurableConfig config;
  config.dir = scratch.path;
  config.snapshot_stride = 80;

  const exp::DurableResult first = exp::run_durable(request, script, config);
  ASSERT_FALSE(first.halted);
  const exp::DurableResult second = exp::run_durable(request, script, config);
  EXPECT_TRUE(second.recovered);
  EXPECT_TRUE(deterministic_equal(first.metrics, second.metrics));
  EXPECT_EQ(first.metrics.event_stream_hash, second.metrics.event_stream_hash);
}

TEST(DurableSession, SnapshotKeepPrunesOldCheckpointsAndTheirSegments) {
  const exp::RunRequest request = streaming_request();
  const auto script = streamed_script(2);
  ScratchDir scratch("prune");
  exp::DurableConfig config;
  config.dir = scratch.path;
  config.snapshot_stride = 40;
  config.snapshot_keep = 2;

  const exp::DurableResult result = exp::run_durable(request, script, config);
  ASSERT_FALSE(result.halted);
  ASSERT_GT(result.snapshots_written, 2u);  // pruning actually had work to do

  std::size_t snaps = 0;
  std::size_t journals = 0;
  for (const auto& entry : fs::directory_iterator(scratch.path)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) == 0) ++snaps;
    if (name.rfind("journal-", 0) == 0) ++journals;
  }
  EXPECT_EQ(snaps, 2u);
  EXPECT_EQ(journals, 2u);

  // And the pruned directory still recovers: the newest pair survived.
  const exp::DurableResult resumed = exp::run_durable(request, script, config);
  EXPECT_TRUE(resumed.recovered);
  EXPECT_TRUE(deterministic_equal(result.metrics, resumed.metrics));
}

}  // namespace
}  // namespace mlfs
