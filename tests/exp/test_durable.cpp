// Streaming ingestion + durable-session tests (exp/durable.hpp): injected
// arrivals flow through the same event queue / auditor / metrics as
// trace-driven jobs, snapshots carry them, and the journal closes the
// crash loop — SIGKILL-equivalent halts at arbitrary event indices recover
// byte-identical (event_stream_hash and deterministic_equal) to a run that
// never crashed, including torn-tail journals, clean-shutdown re-runs and
// snapshot retention pruning.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "exp/durable.hpp"
#include "exp/runner.hpp"
#include "sim/engine.hpp"
#include "sim/journal.hpp"
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

// ------------------------------------------------------ snapshot write failure

TEST(DurableSession, FailedSnapshotWriteNeverLeavesAFinalSnapshot) {
  const exp::RunRequest request = streaming_request();
  const auto script = streamed_script(3);
  const RunMetrics reference = exp::run_streaming(request, script);

  exp::DurableConfig config;
  config.snapshot_stride = 60;

  // Size a file-size cap from a clean run: snap-0 and every journal
  // segment fit under it, and some later checkpoint does not.
  std::uintmax_t cap = 0;
  std::vector<std::pair<std::uint64_t, std::uintmax_t>> later;  // (event, bytes)
  {
    ScratchDir probe("write_fail_probe");
    exp::DurableConfig clean = config;
    clean.dir = probe.path;
    ASSERT_FALSE(exp::run_durable(request, script, clean).halted);
    for (const auto& entry : fs::directory_iterator(probe.path)) {
      const std::string name = entry.path().filename().string();
      const std::uintmax_t bytes = fs::file_size(entry.path());
      if (name == "snap-0.bin" || name.rfind("journal-", 0) == 0) {
        cap = std::max(cap, bytes);
      } else if (name.rfind("snap-", 0) == 0) {
        later.emplace_back(std::stoull(name.substr(5)), bytes);
      }
    }
  }
  std::sort(later.begin(), later.end());
  std::optional<std::uint64_t> failing;
  std::optional<std::uint64_t> last_good;
  for (const auto& [event, bytes] : later) {
    if (bytes > cap) {
      failing = event;
      break;
    }
    last_good = event;
  }
  ASSERT_TRUE(failing.has_value()) << "no checkpoint outgrows the cap; the test proves nothing";

  ScratchDir scratch("write_fail");
  config.dir = scratch.path;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: the kernel refuses to grow any file past the cap (EFBIG), as
    // a full disk would mid-checkpoint.
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit limit{static_cast<rlim_t>(cap), static_cast<rlim_t>(cap)};
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) _exit(10);
    int code = 11;
    try {
      (void)exp::run_durable(request, script, config);
      code = 12;  // the run completed: nothing failed
    } catch (const SnapshotError& e) {
      code = e.section() == "io" ? 0 : 13;
    } catch (...) {
      code = 14;
    }
    _exit(code);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << "child did not fail with SnapshotError(io)";

  // The failed checkpoint left only its .tmp; no final name points at a
  // partial file.
  const std::string failed = scratch.path + "/snap-" + std::to_string(*failing) + ".bin";
  EXPECT_FALSE(fs::exists(failed));
  EXPECT_TRUE(fs::exists(failed + ".tmp"));

  // The next session removes the debris, resumes from the last complete
  // checkpoint and still converges on the reference run.
  const exp::DurableResult recovered = exp::run_durable(request, script, config);
  EXPECT_TRUE(recovered.recovered);
  EXPECT_EQ(recovered.resume_event, last_good.value_or(0));
  EXPECT_FALSE(fs::exists(failed + ".tmp"));
  EXPECT_TRUE(deterministic_equal(reference, recovered.metrics));
  EXPECT_EQ(reference.event_stream_hash, recovered.metrics.event_stream_hash);
}

// ------------------------------------------------------------ golden formats
//
// tests/data/golden_v5 holds a crashed durable session written by the
// snapshot-v5 / journal-v1 code before its binary I/O moved onto byte
// buffers: the newest snapshot (snap-800.bin) and its journal segment,
// which carries seven journaled arrivals past the snapshot. The run was
// halted at event 1100 of 5172. tests/data/golden_v6/snap-800.bin is that
// v5 snapshot restored and saved again by the first snapshot-v6 code,
// tests/data/golden_v7/snap-800.bin is the v6 one restored and saved again
// by the first snapshot-v7 code, tests/data/golden_v8/snap-800.bin the v7
// one by the first snapshot-v8 code, tests/data/golden_v9/snap-800.bin
// the v8 one by the first snapshot-v9 code, and
// tests/data/golden_v10/snap-800.bin the v9 one by the first snapshot-v10
// code (the journal format did not change, so every resume uses the v5
// journal). These files are never regenerated:
// they prove the current code still reads and writes the same bytes.

exp::RunRequest golden_request() {
  exp::RunRequest r;
  r.label = "golden-format";
  r.cluster.server_count = 4;
  r.cluster.gpus_per_server = 4;
  r.cluster.servers_per_rack = 2;
  r.cluster.link_contention = true;
  r.engine.seed = 23;
  r.engine.max_sim_time = hours(72.0);
  r.engine.fault.server_mtbf_hours = 24.0;
  r.engine.recovery.enabled = true;
  r.trace.num_jobs = 40;
  r.trace.duration_hours = 2.0;
  r.trace.seed = 11;
  r.trace.max_gpu_request = 6;
  r.scheduler = "MLFS";
  return r;
}

constexpr std::uint64_t kGoldenStreamHash = 15656029124963918891ull;
constexpr std::uint64_t kGoldenSnapshotEvent = 800;

std::string golden_path(const std::string& name, const std::string& dir = "golden_v5") {
  return std::string(MLFS_TEST_DATA_DIR) + "/" + dir + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing fixture " << path;
  return std::string(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
}

TEST(GoldenFormat, ReferenceRunMatchesPinnedHash) {
  exp::RunRequest request = golden_request();
  const auto script = exp::split_streamed_tail(request, 20);
  EXPECT_EQ(exp::run_streaming(request, script).event_stream_hash, kGoldenStreamHash);
}

/// Resumes a durable session from `snapshot_dir`'s snap-800.bin and the v5
/// journal segment.
void expect_fixture_resumes_to_pinned_hash(const std::string& snapshot_dir) {
  exp::RunRequest request = golden_request();
  const auto script = exp::split_streamed_tail(request, 20);
  ScratchDir scratch("golden_resume_" + snapshot_dir);
  fs::create_directories(scratch.path);
  fs::copy_file(golden_path("snap-800.bin", snapshot_dir), scratch.path + "/snap-800.bin");
  fs::copy_file(golden_path("journal-800.wal"), scratch.path + "/journal-800.wal");
  exp::DurableConfig config;
  config.dir = scratch.path;
  config.snapshot_stride = 400;
  config.snapshot_keep = 1;
  const exp::DurableResult resumed = exp::run_durable(request, script, config);
  EXPECT_TRUE(resumed.recovered);
  EXPECT_EQ(resumed.resume_event, kGoldenSnapshotEvent);
  EXPECT_EQ(resumed.records_replayed, 7u);
  EXPECT_FALSE(resumed.torn_tail_dropped);
  EXPECT_EQ(resumed.metrics.event_stream_hash, kGoldenStreamHash);
}

TEST(GoldenFormat, FixtureCheckpointResumesToPinnedHash) {
  expect_fixture_resumes_to_pinned_hash("golden_v5");
}

TEST(GoldenFormat, V6FixtureCheckpointResumesToPinnedHash) {
  expect_fixture_resumes_to_pinned_hash("golden_v6");
}

TEST(GoldenFormat, V7FixtureCheckpointResumesToPinnedHash) {
  expect_fixture_resumes_to_pinned_hash("golden_v7");
}

TEST(GoldenFormat, V8FixtureCheckpointResumesToPinnedHash) {
  expect_fixture_resumes_to_pinned_hash("golden_v8");
}

TEST(GoldenFormat, V9FixtureCheckpointResumesToPinnedHash) {
  expect_fixture_resumes_to_pinned_hash("golden_v9");
}

TEST(GoldenFormat, V10FixtureCheckpointResumesToPinnedHash) {
  expect_fixture_resumes_to_pinned_hash("golden_v10");
}

/// Restores `snapshot` into a fresh golden engine and saves it again.
std::string restore_and_save(const std::string& snapshot) {
  exp::RunRequest request = golden_request();
  (void)exp::split_streamed_tail(request, 20);
  exp::EngineBundle bundle = exp::build_engine(request);
  {
    std::istringstream is(snapshot, std::ios::binary);
    bundle.engine->restore_snapshot(is);
  }
  EXPECT_EQ(bundle.engine->events_processed(), kGoldenSnapshotEvent);
  std::ostringstream os(std::ios::binary);
  bundle.engine->save_snapshot(os);
  return os.str();
}

TEST(GoldenFormat, FixtureSnapshotReserializesToTheSameBytes) {
  // Restored state includes the wall-clock accumulators, so an unchanged
  // format re-serializes every byte, checksum included.
  const std::string golden = slurp(golden_path("snap-800.bin", "golden_v10"));
  EXPECT_TRUE(restore_and_save(golden) == golden)
      << "re-serialized snapshot differs from the fixture";
}

/// Restoring the `dir` fixture and saving it again gives the v10 fixture.
void expect_upgrades_to_v10(const std::string& dir) {
  const std::string old = slurp(golden_path("snap-800.bin", dir));
  const std::string v10 = slurp(golden_path("snap-800.bin", "golden_v10"));
  EXPECT_TRUE(restore_and_save(old) == v10)
      << "upgraded " << dir << " differs from the v10 fixture";
}

TEST(GoldenFormat, V5FixtureUpgradesToTheV10FixtureBytes) { expect_upgrades_to_v10("golden_v5"); }

TEST(GoldenFormat, V6FixtureUpgradesToTheV10FixtureBytes) { expect_upgrades_to_v10("golden_v6"); }

TEST(GoldenFormat, V7FixtureUpgradesToTheV10FixtureBytes) { expect_upgrades_to_v10("golden_v7"); }

TEST(GoldenFormat, V8FixtureUpgradesToTheV10FixtureBytes) { expect_upgrades_to_v10("golden_v8"); }

TEST(GoldenFormat, V9FixtureUpgradesToTheV10FixtureBytes) { expect_upgrades_to_v10("golden_v9"); }

/// (name, payload) of every section of a snapshot file, in file order.
std::vector<std::pair<std::string, std::string>> snapshot_sections(const std::string& file) {
  io::BinReader r(file);
  (void)r.view(sizeof(kSnapshotMagic) + 4 + 8);  // magic, version, fingerprint
  const std::uint32_t count = r.u32();
  std::vector<std::pair<std::string, std::string>> sections;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name(r.view(r.u32()));
    std::string payload(r.view(static_cast<std::size_t>(r.u64())));
    sections.emplace_back(std::move(name), std::move(payload));
  }
  EXPECT_EQ(r.remaining(), 8u) << "expected only the checksum after the sections";
  return sections;
}

TEST(GoldenFormat, V7FixtureDiffersFromV6OnlyInVersionEpochAndTrailer) {
  const std::string v6 = slurp(golden_path("snap-800.bin", "golden_v6"));
  const std::string v7 = slurp(golden_path("snap-800.bin", "golden_v7"));
  ASSERT_EQ(v6.size(), v7.size() + 8);

  // Header: magic and fingerprint equal, version 6 -> 7.
  EXPECT_EQ(v6.substr(0, 8), v7.substr(0, 8));
  EXPECT_EQ(io::BinReader(std::string_view(v6).substr(8, 4)).u32(), 6u);
  EXPECT_EQ(io::BinReader(std::string_view(v7).substr(8, 4)).u32(), 7u);
  EXPECT_EQ(v6.substr(12, 12), v7.substr(12, 12));

  // Sections: same names and payloads, except that "cluster" (and so its
  // framed length) lost exactly one u64, the global placement epoch.
  const auto s6 = snapshot_sections(v6);
  const auto s7 = snapshot_sections(v7);
  ASSERT_EQ(s6.size(), s7.size());
  for (std::size_t i = 0; i < s6.size(); ++i) {
    ASSERT_EQ(s6[i].first, s7[i].first);
    const std::string& p6 = s6[i].second;
    const std::string& p7 = s7[i].second;
    if (s6[i].first != "cluster") {
      EXPECT_TRUE(p6 == p7) << "section " << s6[i].first << " changed";
      continue;
    }
    ASSERT_EQ(p6.size(), p7.size() + 8);
    const auto first_difference = std::mismatch(p7.begin(), p7.end(), p6.begin()).first;
    const auto at = static_cast<std::size_t>(first_difference - p7.begin());
    EXPECT_TRUE(p6.compare(at + 8, std::string::npos, p7, at) == 0)
        << "cluster differs by more than one dropped u64";
  }

  // Trailer: each file's checksum is its own version's function.
  const auto trailer = [](const std::string& file) {
    return io::BinReader(std::string_view(file).substr(file.size() - 8)).u64();
  };
  EXPECT_EQ(trailer(v6), fnv1a(v6.data(), v6.size() - 8));
  EXPECT_EQ(trailer(v7), word_hash64(v7.data(), v7.size() - 8));
}

TEST(GoldenFormat, V8FixtureDiffersFromV7OnlyInVersionClusterTailAndTrailer) {
  const std::string v7 = slurp(golden_path("snap-800.bin", "golden_v7"));
  const std::string v8 = slurp(golden_path("snap-800.bin", "golden_v8"));
  ASSERT_EQ(v7.size(), v8.size() + 40);

  // Header: magic and fingerprint equal, version 7 -> 8.
  EXPECT_EQ(v7.substr(0, 8), v8.substr(0, 8));
  EXPECT_EQ(io::BinReader(std::string_view(v7).substr(8, 4)).u32(), 7u);
  EXPECT_EQ(io::BinReader(std::string_view(v8).substr(8, 4)).u32(), 8u);
  EXPECT_EQ(v7.substr(12, 12), v8.substr(12, 12));

  // Sections: same names and payloads, except that "cluster" (and so its
  // framed length) lost its last 40 bytes, the placement index's five
  // query counters.
  const auto s7 = snapshot_sections(v7);
  const auto s8 = snapshot_sections(v8);
  ASSERT_EQ(s7.size(), s8.size());
  for (std::size_t i = 0; i < s7.size(); ++i) {
    ASSERT_EQ(s7[i].first, s8[i].first);
    const std::string& p7 = s7[i].second;
    const std::string& p8 = s8[i].second;
    if (s7[i].first != "cluster") {
      EXPECT_TRUE(p7 == p8) << "section " << s7[i].first << " changed";
      continue;
    }
    ASSERT_EQ(p7.size(), p8.size() + 40);
    EXPECT_TRUE(p7.compare(0, p8.size(), p8) == 0) << "cluster differs before its last 40 bytes";
  }

  // Trailer: both files use word_hash64.
  const auto trailer = [](const std::string& file) {
    return io::BinReader(std::string_view(file).substr(file.size() - 8)).u64();
  };
  EXPECT_EQ(trailer(v7), word_hash64(v7.data(), v7.size() - 8));
  EXPECT_EQ(trailer(v8), word_hash64(v8.data(), v8.size() - 8));
}

TEST(GoldenFormat, V9FixtureDiffersFromV8OnlyInVersionClusterTailAndTrailer) {
  const std::string v8 = slurp(golden_path("snap-800.bin", "golden_v8"));
  const std::string v9 = slurp(golden_path("snap-800.bin", "golden_v9"));
  ASSERT_LT(v9.size(), v8.size());

  // Header: magic and fingerprint equal, version 8 -> 9.
  EXPECT_EQ(v8.substr(0, 8), v9.substr(0, 8));
  EXPECT_EQ(io::BinReader(std::string_view(v8).substr(8, 4)).u32(), 8u);
  EXPECT_EQ(io::BinReader(std::string_view(v9).substr(8, 4)).u32(), 9u);
  EXPECT_EQ(v8.substr(12, 12), v9.substr(12, 12));

  // Sections: same names and payloads, except that "cluster" (and so its
  // framed length) ends before the load index, which v8 wrote wholesale
  // after the unplace counter and v9 rebuilds at the first query.
  const auto s8 = snapshot_sections(v8);
  const auto s9 = snapshot_sections(v9);
  ASSERT_EQ(s8.size(), s9.size());
  for (std::size_t i = 0; i < s8.size(); ++i) {
    ASSERT_EQ(s8[i].first, s9[i].first);
    const std::string& p8 = s8[i].second;
    const std::string& p9 = s9[i].second;
    if (s8[i].first != "cluster") {
      EXPECT_TRUE(p8 == p9) << "section " << s8[i].first << " changed";
      continue;
    }
    ASSERT_EQ(p8.size() - p9.size(), v8.size() - v9.size());
    EXPECT_TRUE(p8.compare(0, p9.size(), p9) == 0) << "cluster differs before the index tail";
    // The tail opens with the index's valid flag: set, since the run had
    // queried the index before event 800.
    EXPECT_EQ(p8[p9.size()], 1);
  }

  // Trailer: both files use word_hash64.
  const auto trailer = [](const std::string& file) {
    return io::BinReader(std::string_view(file).substr(file.size() - 8)).u64();
  };
  EXPECT_EQ(trailer(v8), word_hash64(v8.data(), v8.size() - 8));
  EXPECT_EQ(trailer(v9), word_hash64(v9.data(), v9.size() - 8));
}

TEST(GoldenFormat, V10FixtureDiffersFromV9OnlyInVersionEpochColumnAndSchedulerCaches) {
  const std::string v9 = slurp(golden_path("snap-800.bin", "golden_v9"));
  const std::string v10 = slurp(golden_path("snap-800.bin", "golden_v10"));
  ASSERT_LT(v10.size(), v9.size());

  // Header: magic and fingerprint equal, version 9 -> 10.
  EXPECT_EQ(v9.substr(0, 8), v10.substr(0, 8));
  EXPECT_EQ(io::BinReader(std::string_view(v9).substr(8, 4)).u32(), 9u);
  EXPECT_EQ(io::BinReader(std::string_view(v10).substr(8, 4)).u32(), 10u);
  EXPECT_EQ(v9.substr(12, 12), v10.substr(12, 12));

  const auto s9 = snapshot_sections(v9);
  const auto s10 = snapshot_sections(v10);
  ASSERT_EQ(s9.size(), s10.size());
  for (std::size_t i = 0; i < s9.size(); ++i) {
    ASSERT_EQ(s9[i].first, s10[i].first);
    const std::string& p9 = s9[i].second;
    const std::string& p10 = s10[i].second;
    if (s9[i].first == "cluster") {
      // The per-job placement epochs (a u64 count, then one u64 per job)
      // sat between the transfer count and the unplace counter, which is
      // the last u64 of both sections.
      ASSERT_GE(p10.size(), 8u);
      const std::size_t at = p10.size() - 8;
      const std::uint64_t jobs = io::BinReader(std::string_view(p9).substr(at, 8)).u64();
      EXPECT_GT(jobs, 0u);
      ASSERT_EQ(p9.size(), p10.size() + 8 + 8 * jobs);
      EXPECT_TRUE(p9.compare(0, at, p10, 0, at) == 0) << "cluster differs before the epochs";
      EXPECT_TRUE(p9.compare(at + 8 + 8 * jobs, 8, p10, at, 8) == 0)
          << "cluster differs after the epochs";
    } else if (s9[i].first == "scheduler") {
      // MLFS's payload ends with its MLF-H part. v9 wrote the priority
      // cache and the comm-memo arena there, before the four SchedStats
      // counters; v10 writes only the counters.
      constexpr std::size_t kStats = 4 * 8;
      ASSERT_GE(p10.size(), kStats);
      const std::size_t head = p10.size() - kStats;
      ASSERT_GT(p9.size(), p10.size());
      EXPECT_TRUE(p9.compare(0, head, p10, 0, head) == 0) << "scheduler differs before MLF-H";
      EXPECT_TRUE(p9.compare(p9.size() - kStats, kStats, p10, head, kStats) == 0)
          << "SchedStats changed";
      io::BinReader removed(std::string_view(p9).substr(head, p9.size() - p10.size()));
      const std::uint64_t entries = removed.u64();
      for (std::uint64_t e = 0; e < entries; ++e) {
        (void)removed.u64();
        (void)removed.f64();
        (void)removed.vec_f64();
      }
      const std::uint64_t stride = removed.u64();
      const std::uint64_t slots = removed.u64();
      (void)removed.u64();
      EXPECT_GT(slots, 0u);
      std::uint64_t occupied = 0;
      for (std::uint64_t slot = 0; slot < slots; ++slot) {
        const std::uint64_t task = removed.u64();
        (void)removed.u64();
        if (task == kInvalidTask) continue;
        ++occupied;
        (void)removed.view(stride * 8);
      }
      EXPECT_GT(occupied, 0u) << "the v9 fixture's memo held nothing";
      EXPECT_TRUE(removed.at_end()) << "scheduler lost more than the two caches";
    } else {
      EXPECT_TRUE(p9 == p10) << "section " << s9[i].first << " changed";
    }
  }

  // Trailer: both files use word_hash64.
  const auto trailer = [](const std::string& file) {
    return io::BinReader(std::string_view(file).substr(file.size() - 8)).u64();
  };
  EXPECT_EQ(trailer(v9), word_hash64(v9.data(), v9.size() - 8));
  EXPECT_EQ(trailer(v10), word_hash64(v10.data(), v10.size() - 8));
}

TEST(GoldenFormat, V5FixtureWithATamperedLossValueIsRejected) {
  std::string bytes = slurp(golden_path("snap-800.bin"));
  exp::RunRequest request = golden_request();
  (void)exp::split_streamed_tail(request, 20);
  exp::EngineBundle donor = exp::build_engine(request);
  {
    std::istringstream is(bytes, std::ios::binary);
    donor.engine->restore_snapshot(is);
  }
  // A v5 job record stores each loss reduction; find the first job with
  // history and flip the low mantissa bit of its first stored value.
  const Job* with_history = nullptr;
  for (const Job& job : donor.engine->cluster().jobs()) {
    if (job.completed_iterations() > 0) {
      with_history = &job;
      break;
    }
  }
  ASSERT_NE(with_history, nullptr);
  const double value = with_history->curve().observed_delta_loss(1);
  const std::string needle(reinterpret_cast<const char*>(&value), sizeof(value));
  const std::size_t at = bytes.find(needle);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(needle, at + 1), std::string::npos) << "ambiguous loss value";
  bytes[at] = static_cast<char>(bytes[at] ^ 1);
  // Re-seal so only the loss check can fire.
  const std::size_t body = bytes.size() - 8;
  const std::uint64_t checksum = snapshot_checksum(5, bytes.data(), body);
  std::memcpy(bytes.data() + body, &checksum, sizeof(checksum));

  exp::EngineBundle victim = exp::build_engine(request);
  std::istringstream is(bytes, std::ios::binary);
  try {
    victim.engine->restore_snapshot(is);
    FAIL() << "tampered v5 loss history accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "cluster");
    EXPECT_NE(std::string(e.what()).find("loss"), std::string::npos) << e.what();
  }
}

TEST(GoldenFormat, FixtureJournalRewritesToTheSameBytes) {
  exp::RunRequest request = golden_request();
  (void)exp::split_streamed_tail(request, 20);
  const exp::EngineBundle bundle = exp::build_engine(request);
  const std::string golden = slurp(golden_path("journal-800.wal"));
  const JournalReplay replay =
      read_journal_file(golden_path("journal-800.wal"), bundle.engine->config_fingerprint());
  EXPECT_EQ(replay.base_event, kGoldenSnapshotEvent);
  ASSERT_EQ(replay.records.size(), 7u);
  EXPECT_FALSE(replay.torn_tail);

  auto sink = std::make_unique<MemoryJournalSink>();
  const MemoryJournalSink* mem = sink.get();
  JournalWriter writer(std::move(sink), replay.fingerprint, replay.base_event, replay.first_seq,
                       FsyncPolicy::Off);
  for (const JournalRecord& record : replay.records) writer.append_record(record);
  EXPECT_TRUE(mem->bytes() == golden) << "rewritten journal differs from the fixture";
}

}  // namespace
}  // namespace mlfs
