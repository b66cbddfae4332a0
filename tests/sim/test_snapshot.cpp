// Snapshot container + per-subsystem round-trip tests (sim/snapshot.hpp,
// SimEngine::{save,restore}_snapshot).
//
// Positive direction: each stateful subsystem re-serializes to identical
// bytes after a save → restore-into-fresh-instance cycle (the strongest
// cheap equivalence: serialize(restore(serialize(x))) == serialize(x)), and
// a whole engine snapshot is idempotent mid-run.
//
// Negative direction: every corruption mode — truncation at any byte, any
// single-bit flip, bad magic, bad version, fingerprint mismatch, trailing
// garbage — is rejected up front with a structured SnapshotError naming the
// failing section and offset, and a failed restore leaves the target engine
// untouched (never a partial restore).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "exp/durable.hpp"
#include "exp/restore_check.hpp"
#include "exp/runner.hpp"
#include "rl/reinforce.hpp"
#include "sim/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/health.hpp"
#include "sim/snapshot.hpp"
#include "workload/model_zoo.hpp"

namespace mlfs {
namespace {

// ---------------------------------------------------------------- container

std::string write_sample(std::uint64_t fingerprint = 0xfeedu) {
  SnapshotWriter writer(fingerprint);
  auto& a = writer.section("alpha");
  a.u64(42);
  a.f64(2.5);
  auto& b = writer.section("beta");
  b.str("payload");
  std::ostringstream os(std::ios::binary);
  writer.write(os);
  return os.str();
}

/// Re-seals `bytes` with the checksum of the version its header names.
std::string patch_checksum(std::string bytes) {
  const std::uint32_t version = io::BinReader(std::string_view(bytes).substr(8, 4)).u32();
  const std::uint64_t sum = snapshot_checksum(version, bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  return bytes;
}

TEST(SnapshotContainer, RoundTripsSectionsVersionAndFingerprint) {
  const std::string bytes = write_sample(0xfeedu);
  std::istringstream is(bytes, std::ios::binary);
  SnapshotReader reader(is, 0xfeedu);
  EXPECT_EQ(reader.version(), kSnapshotVersion);
  EXPECT_EQ(reader.fingerprint(), 0xfeedu);
  ASSERT_TRUE(reader.has_section("alpha"));
  ASSERT_TRUE(reader.has_section("beta"));
  EXPECT_FALSE(reader.has_section("gamma"));

  io::BinReader ra = reader.section("alpha");
  EXPECT_EQ(ra.u64(), 42u);
  EXPECT_DOUBLE_EQ(ra.f64(), 2.5);
  io::BinReader rb = reader.section("beta");
  EXPECT_EQ(rb.str(), "payload");
}

TEST(SnapshotContainer, MissingSectionIsStructuredError) {
  const std::string bytes = write_sample();
  std::istringstream is(bytes, std::ios::binary);
  SnapshotReader reader(is, 0xfeedu);
  try {
    reader.section("gamma");
    FAIL() << "missing section accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "gamma");
    EXPECT_NE(std::string(e.what()).find("snapshot rejected"), std::string::npos);
  }
}

TEST(SnapshotContainer, TruncationAtEveryByteRejected) {
  const std::string bytes = write_sample();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream is(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW(SnapshotReader(is, 0xfeedu), SnapshotError) << "prefix length " << len;
  }
}

TEST(SnapshotContainer, AnySingleBitFlipRejected) {
  // Every bit of every byte, across the v7 word hash's 32-byte stripes and
  // its FNV-1a tail: a flip in a payload or the fingerprint must fail the
  // checksum; a flip in the framing may fail earlier, but only as a
  // structured rejection.
  const std::string bytes = write_sample();
  ASSERT_GT(bytes.size(), 64u);
  const std::size_t text_at = bytes.find("payload");
  ASSERT_NE(text_at, std::string::npos);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      std::istringstream is(corrupt, std::ios::binary);
      try {
        SnapshotReader reader(is, 0xfeedu);
        ADD_FAILURE() << "accepted a flip of bit " << bit << " in byte " << i;
      } catch (const SnapshotError& e) {
        // A framing error names "header" or the section being framed
        // (whose name may be the flipped one).
        const bool in_payload_text = i >= text_at && i < text_at + 7;
        const bool in_fingerprint = i >= 12 && i < 20;
        if (in_payload_text || in_fingerprint) {
          EXPECT_EQ(e.section(), "checksum") << "byte " << i << " bit " << bit;
        }
      }
    }
  }
}

TEST(SnapshotContainer, WordHashSeesEveryBitOfStripesAndTail) {
  // Lengths around the 32-byte stripe: all tail, one stripe, stripe + tail.
  for (const std::size_t size : {0u, 1u, 7u, 31u, 32u, 33u, 64u, 95u}) {
    std::string data(size, '\0');
    for (std::size_t i = 0; i < size; ++i) data[i] = static_cast<char>(i * 37 + 11);
    const std::uint64_t base = word_hash64(data.data(), data.size());
    for (std::size_t i = 0; i < size; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = data;
        flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
        EXPECT_NE(word_hash64(flipped.data(), flipped.size()), base)
            << "size " << size << " byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(SnapshotContainer, BadMagicNamesHeaderAtOffsetZero) {
  std::string bytes = write_sample();
  bytes[0] = 'X';
  std::istringstream is(bytes, std::ios::binary);
  try {
    SnapshotReader reader(is, 0xfeedu);
    FAIL() << "bad magic accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_EQ(e.offset(), 0u);
  }
}

TEST(SnapshotContainer, UnsupportedVersionRejectedEvenWithValidChecksum) {
  std::string bytes = write_sample();
  // Patch version (bytes 8..11, little-endian) and re-checksum so only the
  // version check can fire.
  bytes[8] = static_cast<char>(kSnapshotVersion + 1);
  bytes = patch_checksum(std::move(bytes));
  std::istringstream is(bytes, std::ios::binary);
  try {
    SnapshotReader reader(is, 0xfeedu);
    FAIL() << "future version accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(SnapshotContainer, PreV4FilesRejected) {
  // Older files predate state the current reader depends on (v3 added the
  // "predict" section, v4 the conditional "links" section and the engine's
  // link-contention counters); every version older than the oldest
  // readable one must be rejected up front instead of hitting a missing
  // section mid-restore.
  std::string bytes = write_sample();
  for (int version = 1; version < static_cast<int>(kOldestReadableSnapshotVersion); ++version) {
    bytes[8] = static_cast<char>(version);
    bytes = patch_checksum(std::move(bytes));
    std::istringstream is(bytes, std::ios::binary);
    try {
      SnapshotReader reader(is, 0xfeedu);
      FAIL() << "pre-v4 snapshot (v" << version << ") accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.section(), "header");
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }
}

TEST(SnapshotContainer, V5FilesStillRead) {
  // v5 differs from v6 only inside the "cluster" and "scheduler" payloads,
  // whose readers branch on version().
  std::string bytes = write_sample();
  bytes[8] = static_cast<char>(5);
  bytes = patch_checksum(std::move(bytes));
  std::istringstream is(bytes, std::ios::binary);
  const SnapshotReader reader(is, 0xfeedu);
  EXPECT_EQ(reader.version(), 5u);
}

TEST(SnapshotContainer, V6FilesStillRead) {
  // v6 differs from v7 and v8 in the checksum function and the "cluster"
  // payload, whose reader branches on version().
  std::string bytes = write_sample();
  bytes[8] = static_cast<char>(6);
  bytes = patch_checksum(std::move(bytes));
  EXPECT_EQ(io::BinReader(std::string_view(bytes).substr(bytes.size() - 8)).u64(),
            fnv1a(bytes.data(), bytes.size() - 8));
  std::istringstream is(bytes, std::ios::binary);
  const SnapshotReader reader(is, 0xfeedu);
  EXPECT_EQ(reader.version(), 6u);
}

TEST(SnapshotContainer, FingerprintMismatchRejected) {
  const std::string bytes = write_sample(0xfeedu);
  std::istringstream is(bytes, std::ios::binary);
  try {
    SnapshotReader reader(is, 0xbeefu);
    FAIL() << "fingerprint mismatch accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
}

TEST(SnapshotContainer, TrailingGarbageRejected) {
  std::string bytes = write_sample();
  bytes += "junk";
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW(SnapshotReader(is, 0xfeedu), SnapshotError);
}

// ----------------------------------------------------- subsystem round-trips

JobSpec snapshot_spec(int gpus) {
  JobSpec spec;
  spec.id = 0;
  spec.algorithm = MlAlgorithm::Mlp;
  spec.comm = CommStructure::AllReduce;
  spec.gpu_request = gpus;
  spec.max_iterations = 50;
  spec.seed = 3;
  return spec;
}

TEST(SnapshotSubsystems, ClusterStateReserializesIdentically) {
  ClusterConfig config;
  config.server_count = 3;
  config.gpus_per_server = 2;
  config.servers_per_rack = 2;
  Cluster cluster(config);
  auto inst = ModelZoo::instantiate(snapshot_spec(2), 0);
  cluster.register_job(std::move(inst.job), std::move(inst.tasks));
  cluster.place_task(0, 0, 0);
  cluster.place_task(1, 1, 0);
  cluster.set_server_up(2, false);
  cluster.set_placement_cap(1, 1);

  std::string first;
  {
    io::BinWriter w(first);
    cluster.save_state(w);
  }

  // Fresh cluster, identical construction path, then restore.
  Cluster twin(config);
  auto twin_inst = ModelZoo::instantiate(snapshot_spec(2), 0);
  twin.register_job(std::move(twin_inst.job), std::move(twin_inst.tasks));
  {
    io::BinReader r(first);
    twin.restore_state(r);
  }
  EXPECT_EQ(twin.up_server_count(), cluster.up_server_count());
  EXPECT_EQ(twin.task(0).server, cluster.task(0).server);

  std::string second;
  {
    io::BinWriter w(second);
    twin.save_state(w);
  }
  EXPECT_EQ(first, second);
}

TEST(SnapshotSubsystems, HealthTrackerReserializesIdentically) {
  RecoveryConfig config;
  config.enabled = true;
  config.quarantine_enabled = true;
  ServerHealthTracker tracker(config, 4);
  tracker.record_crash(1, hours(1.0));
  tracker.record_task_kill(1, hours(1.5));
  tracker.record_crash(2, hours(2.0));
  tracker.record_recovery(1, hours(2.5));
  tracker.try_quarantine(1, hours(2.5));
  (void)tracker.advance(hours(3.0));

  std::string first;
  {
    io::BinWriter w(first);
    tracker.save_state(w);
  }
  ServerHealthTracker twin(config, 4);
  {
    io::BinReader r(first);
    twin.restore_state(r);
  }
  // Lazy-decay arithmetic must match bit-exactly at any later query time.
  EXPECT_EQ(twin.score(1, hours(5.0)), tracker.score(1, hours(5.0)));
  EXPECT_EQ(twin.health(1), tracker.health(1));
  EXPECT_EQ(twin.quarantines(), tracker.quarantines());

  std::string second;
  {
    io::BinWriter w(second);
    twin.save_state(w);
  }
  EXPECT_EQ(first, second);
}

TEST(SnapshotSubsystems, RngStreamResumesExactly) {
  Rng rng(99);
  for (int i = 0; i < 37; ++i) (void)rng.next_u64();
  const auto state = rng.state();
  Rng twin(1);  // different seed: state transplant must fully override it
  twin.set_state(state);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(twin.next_u64(), rng.next_u64());
}

// ------------------------------------------------------------ engine level

exp::RunRequest engine_request() {
  exp::RunRequest r;
  r.label = "snapshot-unit";
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

std::string engine_snapshot_bytes(const SimEngine& engine) {
  std::ostringstream os(std::ios::binary);
  engine.save_snapshot(os);
  return os.str();
}

TEST(SnapshotEngine, MidRunSnapshotIsIdempotent) {
  exp::EngineBundle donor = exp::build_engine(engine_request());
  for (int i = 0; i < 100 && donor.engine->step(); ++i) {
  }
  const std::string first = engine_snapshot_bytes(*donor.engine);

  exp::EngineBundle twin = exp::build_engine(engine_request());
  {
    std::istringstream is(first, std::ios::binary);
    twin.engine->restore_snapshot(is);
  }
  EXPECT_EQ(twin.engine->events_processed(), donor.engine->events_processed());
  EXPECT_EQ(twin.engine->event_stream_hash(), donor.engine->event_stream_hash());
  // save → restore → save yields byte-identical files: event queue order,
  // RNG streams, metrics accumulators and scheduler state all round-trip.
  EXPECT_EQ(engine_snapshot_bytes(*twin.engine), first);
}

TEST(SnapshotEngine, ConfigFingerprintDependsOnlyOnConstructorInputs) {
  exp::EngineBundle first_asked_at_start = exp::build_engine(engine_request());
  const std::uint64_t at_construction = first_asked_at_start.engine->config_fingerprint();

  // Asked first after stepping and injecting, it is still the value of a
  // freshly constructed engine, and it stays that value.
  exp::EngineBundle bundle = exp::build_engine(engine_request());
  SimEngine& engine = *bundle.engine;
  for (int i = 0; i < 60 && engine.step(); ++i) {
  }
  JobSpec extra = snapshot_spec(2);
  extra.arrival = engine.now();
  (void)engine.inject_job(extra);
  for (int i = 0; i < 60 && engine.step(); ++i) {
  }
  EXPECT_EQ(engine.config_fingerprint(), at_construction);
  const std::string bytes = engine_snapshot_bytes(engine);
  EXPECT_EQ(engine.config_fingerprint(), at_construction);

  // A restore (which re-registers the injected job) leaves it unchanged.
  exp::EngineBundle restored = exp::build_engine(engine_request());
  std::istringstream is(bytes, std::ios::binary);
  restored.engine->restore_snapshot(is);
  EXPECT_EQ(restored.engine->injected_specs().size(), 1u);
  EXPECT_EQ(restored.engine->config_fingerprint(), at_construction);
}

TEST(SnapshotEngine, SnapshotBytesAreFlatInRunLength) {
  // A non-streaming MLFS run: the job set is fixed at construction, so
  // what a snapshot holds is live state only. Per-iteration history would
  // grow it with every completed iteration. The policy is cloned early so
  // the imitation log is already retired at the first depth.
  exp::RunRequest r;
  r.label = "snapshot-flat";
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
  exp::EngineBundle bundle = exp::build_engine(r);
  SimEngine& engine = *bundle.engine;
  constexpr std::uint64_t kDepth = 10000;
  while (engine.events_processed() < kDepth && engine.step()) {
  }
  ASSERT_EQ(engine.events_processed(), kDepth);
  const double at_depth = static_cast<double>(engine_snapshot_bytes(engine).size());
  while (engine.events_processed() < 3 * kDepth && engine.step()) {
  }
  ASSERT_EQ(engine.events_processed(), 3 * kDepth);
  const double at_triple = static_cast<double>(engine_snapshot_bytes(engine).size());
  EXPECT_LE(at_triple, 1.1 * at_depth);
  EXPECT_GE(at_triple, at_depth / 1.1);
}

TEST(SnapshotEngine, CorruptRestoreLeavesEngineUntouched) {
  exp::EngineBundle donor = exp::build_engine(engine_request());
  for (int i = 0; i < 120 && donor.engine->step(); ++i) {
  }
  std::string corrupt = engine_snapshot_bytes(*donor.engine);
  corrupt[corrupt.size() / 2] = static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x01);

  // Reference: an untouched engine of the same request, stepped identically.
  exp::EngineBundle reference = exp::build_engine(engine_request());
  for (int i = 0; i < 40 && reference.engine->step(); ++i) {
  }
  exp::EngineBundle victim = exp::build_engine(engine_request());
  for (int i = 0; i < 40 && victim.engine->step(); ++i) {
  }
  {
    std::istringstream is(corrupt, std::ios::binary);
    EXPECT_THROW(victim.engine->restore_snapshot(is), SnapshotError);
  }
  // The failed restore must not have mutated anything: the victim finishes
  // its run bit-identically to the reference.
  while (reference.engine->step()) {
  }
  while (victim.engine->step()) {
  }
  const RunMetrics expected = reference.engine->finalize();
  const RunMetrics actual = victim.engine->finalize();
  EXPECT_TRUE(deterministic_equal(expected, actual));
  EXPECT_EQ(expected.event_stream_hash, actual.event_stream_hash);
}

/// Output buffer that accepts `budget` bytes, then refuses every further
/// byte: a disk filling up under the snapshot writer.
class BudgetBuf : public std::streambuf {
 public:
  explicit BudgetBuf(std::size_t budget) : budget_(budget) {}
  const std::string& accepted() const { return accepted_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const auto fits = std::min<std::streamsize>(
        n, static_cast<std::streamsize>(budget_ - accepted_.size()));
    accepted_.append(s, static_cast<std::size_t>(fits));
    return fits;
  }
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return traits_type::not_eof(c);
    if (accepted_.size() >= budget_) return traits_type::eof();
    accepted_.push_back(traits_type::to_char_type(c));
    return c;
  }

 private:
  std::size_t budget_;
  std::string accepted_;
};

TEST(SnapshotWriteHardening, EngineSaveIntoFullDiskThrowsStructuredIoError) {
  exp::EngineBundle donor = exp::build_engine(engine_request());
  for (int i = 0; i < 100 && donor.engine->step(); ++i) {
  }
  const std::string full = engine_snapshot_bytes(*donor.engine);
  for (const std::size_t budget : {std::size_t{0}, std::size_t{1}, full.size() / 2,
                                   full.size() - 8, full.size() - 1}) {
    BudgetBuf buf(budget);
    std::ostream os(&buf);
    try {
      donor.engine->save_snapshot(os);
      ADD_FAILURE() << "write refused after " << budget << " bytes was accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.section(), "io") << "budget " << budget;
      EXPECT_EQ(e.offset(), budget) << "the offset is how far the write got";
    }
    // Whatever reached the device is a prefix of the real file, which the
    // reader rejects as truncated.
    EXPECT_EQ(buf.accepted(), full.substr(0, budget));
    std::istringstream is(buf.accepted(), std::ios::binary);
    EXPECT_THROW(SnapshotReader(is, donor.engine->config_fingerprint()), SnapshotError);
  }
  BudgetBuf exact(full.size());
  std::ostream os(&exact);
  donor.engine->save_snapshot(os);
  EXPECT_EQ(exact.accepted(), full);
}

TEST(SnapshotEngine, RestoreFromWrongConfigRejected) {
  exp::EngineBundle donor = exp::build_engine(engine_request());
  for (int i = 0; i < 50 && donor.engine->step(); ++i) {
  }
  const std::string bytes = engine_snapshot_bytes(*donor.engine);

  exp::RunRequest other = engine_request();
  other.trace.num_jobs = 9;  // different workload => different fingerprint
  exp::EngineBundle victim = exp::build_engine(other);
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW(victim.engine->restore_snapshot(is), SnapshotError);
}

TEST(SnapshotEngine, EveryConfigFieldMovesTheFingerprint) {
  const auto fingerprint = [](const exp::RunRequest& r) {
    return exp::build_engine(r).engine->config_fingerprint();
  };
  const std::uint64_t base = fingerprint(engine_request());
  // Written by the build before the prediction tuning became constants:
  // the constants must reproduce its bytes exactly.
  EXPECT_EQ(base, 0x12ffdd1c6a56fe02ull);

  using Mutation = void (*)(exp::RunRequest&);
  const std::vector<std::pair<const char*, Mutation>> mutations = {
      {"server_count", [](exp::RunRequest& r) { r.cluster.server_count = 4; }},
      {"gpus_per_server", [](exp::RunRequest& r) { r.cluster.gpus_per_server = 5; }},
      {"total_gpus", [](exp::RunRequest& r) { r.cluster.total_gpus = 10; }},
      {"server_bandwidth_mbps", [](exp::RunRequest& r) { r.cluster.server_bandwidth_mbps = 900; }},
      {"effective_flow_bandwidth_mbps",
       [](exp::RunRequest& r) { r.cluster.effective_flow_bandwidth_mbps = 400; }},
      {"servers_per_rack", [](exp::RunRequest& r) { r.cluster.servers_per_rack = 3; }},
      {"inter_rack_flow_bandwidth_mbps",
       [](exp::RunRequest& r) { r.cluster.inter_rack_flow_bandwidth_mbps = 120; }},
      {"slow_server_fraction", [](exp::RunRequest& r) { r.cluster.slow_server_fraction = 0.5; }},
      {"slow_server_speed", [](exp::RunRequest& r) { r.cluster.slow_server_speed = 0.6; }},
      {"debug_slot_leak", [](exp::RunRequest& r) { r.cluster.debug_slot_leak = true; }},
      {"link_contention", [](exp::RunRequest& r) { r.cluster.link_contention = true; }},
      {"nic_capacity_mbps", [](exp::RunRequest& r) { r.cluster.nic_capacity_mbps = 800; }},
      {"rack_uplink_capacity_mbps",
       [](exp::RunRequest& r) { r.cluster.rack_uplink_capacity_mbps = 500; }},
      {"duty_cycles", [](exp::RunRequest& r) { r.cluster.duty_cycles = true; }},
      {"tick_interval", [](exp::RunRequest& r) { r.engine.tick_interval = minutes(2); }},
      {"hr", [](exp::RunRequest& r) { r.engine.hr = 0.8; }},
      {"usage_noise_sigma", [](exp::RunRequest& r) { r.engine.usage_noise_sigma = 0.1; }},
      {"migration_fixed_penalty_seconds",
       [](exp::RunRequest& r) { r.engine.migration_fixed_penalty_seconds = 6; }},
      {"max_sim_time", [](exp::RunRequest& r) { r.engine.max_sim_time = hours(47.0); }},
      {"seed", [](exp::RunRequest& r) { r.engine.seed = 18; }},
      {"optstop_check_interval", [](exp::RunRequest& r) { r.engine.optstop_check_interval = 4; }},
      {"optstop_near_max_fraction",
       [](exp::RunRequest& r) { r.engine.optstop_near_max_fraction = 0.98; }},
      {"optstop_confidence_threshold",
       [](exp::RunRequest& r) { r.engine.optstop_confidence_threshold = 0.5; }},
      {"stall_ticks_before_eviction",
       [](exp::RunRequest& r) { r.engine.stall_ticks_before_eviction = 11; }},
      {"straggler_probability", [](exp::RunRequest& r) { r.engine.straggler_probability = 0.01; }},
      {"straggler_slowdown", [](exp::RunRequest& r) { r.engine.straggler_slowdown = 3; }},
      {"straggler_replicas", [](exp::RunRequest& r) { r.engine.straggler_replicas = 1; }},
      {"partial_placement_timeout",
       [](exp::RunRequest& r) { r.engine.partial_placement_timeout = minutes(6); }},
      {"coarsen_curve", [](exp::RunRequest& r) { r.engine.coarsen_curve = true; }},
      {"fault.server_mtbf_hours",
       [](exp::RunRequest& r) { r.engine.fault.server_mtbf_hours = 25; }},
      {"fault.server_mttr_hours",
       [](exp::RunRequest& r) { r.engine.fault.server_mttr_hours = 0.6; }},
      {"fault.task_kill_probability",
       [](exp::RunRequest& r) { r.engine.fault.task_kill_probability = 0.003; }},
      {"fault.rack_mtbf_hours", [](exp::RunRequest& r) { r.engine.fault.rack_mtbf_hours = 10; }},
      {"fault.rack_mttr_hours", [](exp::RunRequest& r) { r.engine.fault.rack_mttr_hours = 0.3; }},
      {"fault.checkpoint_interval_iterations",
       [](exp::RunRequest& r) { r.engine.fault.checkpoint_interval_iterations = 3; }},
      {"fault.flaky_server_fraction",
       [](exp::RunRequest& r) { r.engine.fault.flaky_server_fraction = 0.3; }},
      {"fault.flaky_rate_multiplier",
       [](exp::RunRequest& r) { r.engine.fault.flaky_rate_multiplier = 4; }},
      {"recovery.enabled", [](exp::RunRequest& r) { r.engine.recovery.enabled = false; }},
      {"recovery.kill_weight", [](exp::RunRequest& r) { r.engine.recovery.kill_weight = 0.5; }},
      {"recovery.score_halflife_hours",
       [](exp::RunRequest& r) { r.engine.recovery.score_halflife_hours = 7; }},
      {"recovery.quarantine_enabled",
       [](exp::RunRequest& r) { r.engine.recovery.quarantine_enabled = false; }},
      {"recovery.quarantine_score_threshold",
       [](exp::RunRequest& r) { r.engine.recovery.quarantine_score_threshold = 3; }},
      {"recovery.quarantine_base_minutes",
       [](exp::RunRequest& r) { r.engine.recovery.quarantine_base_minutes = 20; }},
      {"recovery.quarantine_backoff_factor",
       [](exp::RunRequest& r) { r.engine.recovery.quarantine_backoff_factor = 3; }},
      {"recovery.quarantine_max_minutes",
       [](exp::RunRequest& r) { r.engine.recovery.quarantine_max_minutes = 400; }},
      {"recovery.probation_minutes",
       [](exp::RunRequest& r) { r.engine.recovery.probation_minutes = 50; }},
      {"recovery.probation_task_cap",
       [](exp::RunRequest& r) { r.engine.recovery.probation_task_cap = 2; }},
      {"recovery.min_active_fraction",
       [](exp::RunRequest& r) { r.engine.recovery.min_active_fraction = 0.5; }},
      {"recovery.retry_backoff_enabled",
       [](exp::RunRequest& r) { r.engine.recovery.retry_backoff_enabled = false; }},
      {"recovery.retry_budget", [](exp::RunRequest& r) { r.engine.recovery.retry_budget = 3; }},
      {"recovery.backoff_base_seconds",
       [](exp::RunRequest& r) { r.engine.recovery.backoff_base_seconds = 20; }},
      {"recovery.backoff_factor", [](exp::RunRequest& r) { r.engine.recovery.backoff_factor = 3; }},
      {"recovery.backoff_max_seconds",
       [](exp::RunRequest& r) { r.engine.recovery.backoff_max_seconds = 900; }},
      {"recovery.backoff_jitter",
       [](exp::RunRequest& r) { r.engine.recovery.backoff_jitter = 0.1; }},
      {"recovery.adaptive_checkpoint",
       [](exp::RunRequest& r) { r.engine.recovery.adaptive_checkpoint = true; }},
      {"recovery.checkpoint_cost_seconds",
       [](exp::RunRequest& r) { r.engine.recovery.checkpoint_cost_seconds = 3; }},
      {"recovery.max_checkpoint_interval",
       [](exp::RunRequest& r) { r.engine.recovery.max_checkpoint_interval = 40; }},
      {"recovery.spread_placement",
       [](exp::RunRequest& r) { r.engine.recovery.spread_placement = true; }},
  };
  for (const auto& [field, mutate] : mutations) {
    exp::RunRequest r = engine_request();
    mutate(r);
    EXPECT_NE(fingerprint(r), base) << field;
  }

  // The auditor is a pure observer and stays out of the fingerprint.
  exp::RunRequest unaudited = engine_request();
  unaudited.engine.audit.enabled = false;
  unaudited.engine.audit.stride = 7;
  EXPECT_EQ(fingerprint(unaudited), base);
}

// ------------------------------------------- predict section validation

/// The whole "predict" payload, written field by field in save_state's
/// format, with the jobs in the order given (so a test can break it).
std::string encode_predict(const PredictionService::SavedState& saved,
                           const std::vector<JobId>& order) {
  std::string out;
  io::BinWriter w(out);
  w.u64(saved.stats.fits_cold);
  w.u64(saved.stats.fits_warm);
  w.u64(saved.stats.cache_hits);
  w.u64(saved.stats.nm_objective_evals);
  w.f64(saved.stats.fit_wall_ms);
  w.u64(order.size());
  for (const JobId id : order) {
    const PredictionService::JobState& st = saved.states.at(id);
    w.u64(id);
    w.vec_f64(st.observed);
    w.u64(st.links.size());
    for (const PredictionService::LinkRecord& rec : st.links) {
      w.i64(rec.done);
      w.u64(rec.basis.size());
      for (const PredictionService::BasisFitRec& b : rec.basis) {
        w.vec_f64(b.params);
        w.f64(b.rmse);
        w.f64(b.value);
        w.f64(b.drift);
        w.boolean(b.frozen);
        w.i64(b.low_streak);
        w.i64(b.restarts);
      }
    }
    w.boolean(st.memo_valid);
    w.i64(st.memo_done);
    w.i64(st.memo_target);
    w.f64(st.memo.accuracy);
    w.f64(st.memo.confidence);
  }
  return out;
}

/// `file` re-framed with its section `replaced` holding `payload`.
std::string with_section_payload(const std::string& file, std::uint64_t fingerprint,
                                 const std::string& replaced, const std::string& payload) {
  std::istringstream is(file, std::ios::binary);
  const SnapshotReader reader(is, fingerprint);
  SnapshotWriter writer(fingerprint);
  for (const char* name : {"engine", "events", "injected", "cluster", "links", "health",
                           "predictor", "predict", "scheduler", "controller"}) {
    if (!reader.has_section(name)) continue;
    io::BinWriter& w = writer.section(name);
    if (name == replaced) {
      w.bytes(payload.data(), payload.size());
    } else {
      io::BinReader r = reader.section(name);
      const std::string_view bytes = r.view(r.remaining());
      w.bytes(bytes.data(), bytes.size());
    }
  }
  std::ostringstream os(std::ios::binary);
  writer.write(os);
  return os.str();
}

TEST(SnapshotEngine, MalformedPredictSectionRejectedBeforeAnyStateChanges) {
  // A donor whose service holds at least two jobs with multi-link chains.
  exp::RunRequest request = engine_request();
  request.trace.policy_fixed_fraction = 0.0;
  request.trace.policy_optstop_fraction = 1.0;
  exp::EngineBundle donor = exp::build_engine(request);
  const auto rich = [](const SimEngine& engine) {
    std::size_t jobs = 0;
    for (const auto& [id, st] : engine.prediction_service().cached_states()) {
      if (st.links.size() >= 2) ++jobs;
    }
    return jobs >= 2;
  };
  for (int i = 0; i < 20000 && !rich(*donor.engine) && donor.engine->step(); ++i) {
  }
  ASSERT_TRUE(rich(*donor.engine));
  const std::string file = engine_snapshot_bytes(*donor.engine);
  const std::uint64_t fp = donor.engine->config_fingerprint();

  std::istringstream is(file, std::ios::binary);
  const SnapshotReader reader(is, fp);
  io::BinReader section = reader.section("predict");
  const std::string original(section.view(section.remaining()));
  io::BinReader decode(original);
  const PredictionService::SavedState saved =
      donor.engine->prediction_service().read_state(decode);
  std::vector<JobId> ids;
  JobId target = kInvalidJob;
  for (const auto& [id, st] : saved.states) {
    ids.push_back(id);
    if (target == kInvalidJob && st.links.size() >= 2) target = id;
  }
  // The test's encoder writes exactly what save_state wrote.
  ASSERT_EQ(encode_predict(saved, ids), original);

  using Breakage = void (*)(PredictionService::SavedState&, JobId, std::vector<JobId>&);
  const std::vector<std::pair<const char*, Breakage>> breakages = {
      {"four basis records",
       [](PredictionService::SavedState& s, JobId id, std::vector<JobId>&) {
         auto& basis = s.states.at(id).links[0].basis;
         basis.push_back(basis.back());
       }},
      {"two-element pow3 params",
       [](PredictionService::SavedState& s, JobId id, std::vector<JobId>&) {
         s.states.at(id).links[0].basis[1].params.resize(2);
       }},
      {"links out of order",
       [](PredictionService::SavedState& s, JobId id, std::vector<JobId>&) {
         auto& links = s.states.at(id).links;
         std::swap(links[0], links[1]);
       }},
      {"link off the check grid",
       [](PredictionService::SavedState& s, JobId id, std::vector<JobId>&) {
         ++s.states.at(id).links.back().done;
       }},
      {"link past the observations",
       [](PredictionService::SavedState& s, JobId id, std::vector<JobId>&) {
         auto& st = s.states.at(id);
         st.observed.resize(static_cast<std::size_t>(st.links.back().done - 1));
       }},
      {"job ids descending",
       [](PredictionService::SavedState&, JobId, std::vector<JobId>& order) {
         std::reverse(order.begin(), order.end());
       }},
      {"job id repeated",
       [](PredictionService::SavedState&, JobId, std::vector<JobId>& order) {
         order.push_back(order.back());
       }},
  };

  exp::EngineBundle victim = exp::build_engine(request);
  for (int i = 0; i < 40 && victim.engine->step(); ++i) {
  }
  const std::string before = engine_snapshot_bytes(*victim.engine);
  for (const auto& [what, breakage] : breakages) {
    PredictionService::SavedState broken = saved;
    std::vector<JobId> order = ids;
    breakage(broken, target, order);
    const std::string crafted = with_section_payload(file, fp, "predict", encode_predict(broken, order));
    std::istringstream in(crafted, std::ios::binary);
    try {
      victim.engine->restore_snapshot(in);
      ADD_FAILURE() << "accepted a predict section with " << what;
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.section(), "predict") << what << ": " << e.what();
    }
    EXPECT_EQ(engine_snapshot_bytes(*victim.engine), before) << what;
  }

  // The unbroken payload, re-framed the same way, still restores.
  exp::EngineBundle twin = exp::build_engine(request);
  std::istringstream in(with_section_payload(file, fp, "predict", original), std::ios::binary);
  twin.engine->restore_snapshot(in);
  EXPECT_EQ(engine_snapshot_bytes(*twin.engine), file);
}

// -------------------------------------------- engine section validation

/// The engine section's eleven columns in file order — JobRuntime's fields
/// 0-6, the per-server epochs, field 7, the per-task backoff flags, field
/// 8 — with the width of one value.
struct EngineColumn {
  const char* name;
  std::size_t width;
};
constexpr EngineColumn kEngineColumns[] = {
    {"epoch", 8},          {"waiting_since", 8},       {"partial_since", 8},
    {"deadline_recorded", 1}, {"iter_started", 8},     {"iter_duration", 8},
    {"resume_credit", 8},  {"server_epoch", 8},        {"fault_stopped_since", 8},
    {"task_in_backoff", 1}, {"retries_used", 8},
};

/// The "engine" payload with column `victim` one value short.
std::string shorten_engine_column(const std::string& payload, std::size_t victim) {
  io::BinReader r(payload);
  r.view(4 * 8 + 3 * 32);  // clock, event seq, events processed, hash, three RNGs
  const std::uint64_t queued = r.u64();
  r.view(queued * 8);
  std::string out(payload.substr(0, r.pos()));
  io::BinWriter w(out);
  for (std::size_t c = 0; c < std::size(kEngineColumns); ++c) {
    const std::uint64_t n = r.u64();
    const std::size_t width = kEngineColumns[c].width;
    const std::string_view values = r.view(n * width);
    const std::uint64_t keep = c == victim ? n - 1 : n;
    w.u64(keep);
    w.bytes(values.data(), keep * width);
  }
  const std::string_view counters = r.view(r.remaining());
  w.bytes(counters.data(), counters.size());
  return out;
}

TEST(SnapshotEngine, ShortEngineColumnRejectedBeforeAnyStateChanges) {
  // A streamed donor: its "injected" section grows the job and task counts
  // every per-job and per-task column must match.
  exp::RunRequest request = engine_request();
  const auto script = exp::split_streamed_tail(request, 3);
  exp::EngineBundle donor = exp::build_engine(request);
  exp::ScriptedArrivalSource source(script);
  donor.engine->set_arrival_source(&source);
  for (int i = 0; i < 20000 && donor.engine->injected_specs().size() < 2 &&
                  donor.engine->step();
       ++i) {
  }
  ASSERT_GE(donor.engine->injected_specs().size(), 2u);
  const std::string file = engine_snapshot_bytes(*donor.engine);
  const std::uint64_t fp = donor.engine->config_fingerprint();
  std::istringstream is(file, std::ios::binary);
  const SnapshotReader reader(is, fp);
  io::BinReader section = reader.section("engine");
  const std::string original(section.view(section.remaining()));

  // The victim never injected, so restoring a streamed snapshot into it is
  // legitimate.
  exp::EngineBundle victim = exp::build_engine(request);
  for (int i = 0; i < 40 && victim.engine->step(); ++i) {
  }
  const std::string before = engine_snapshot_bytes(*victim.engine);
  for (std::size_t c = 0; c < std::size(kEngineColumns); ++c) {
    const char* what = kEngineColumns[c].name;
    const std::string crafted =
        with_section_payload(file, fp, "engine", shorten_engine_column(original, c));
    std::istringstream in(crafted, std::ios::binary);
    try {
      victim.engine->restore_snapshot(in);
      ADD_FAILURE() << "accepted a short " << what << " column";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.section(), "engine") << what << ": " << e.what();
    }
    EXPECT_EQ(engine_snapshot_bytes(*victim.engine), before) << what;
  }

  // The unbroken payload, re-framed the same way, still restores.
  std::istringstream in(with_section_payload(file, fp, "engine", original), std::ios::binary);
  victim.engine->restore_snapshot(in);
  EXPECT_EQ(engine_snapshot_bytes(*victim.engine), file);
}

TEST(SnapshotEngine, EventSubjectOutOfRangeRejectedBeforeAnyStateChanges) {
  exp::EngineBundle donor = exp::build_engine(engine_request());
  for (int i = 0; i < 60 && donor.engine->step(); ++i) {
  }
  const std::string file = engine_snapshot_bytes(*donor.engine);
  const std::uint64_t fp = donor.engine->config_fingerprint();
  std::istringstream is(file, std::ios::binary);
  const SnapshotReader reader(is, fp);
  io::BinReader section = reader.section("events");
  std::string events(section.view(section.remaining()));
  // Count, then the first event's time, seq and type; its subject follows.
  const std::size_t subject = 8 + 8 + 8 + 1;
  ASSERT_GT(events.size(), subject + 8);
  const std::uint64_t far = 1000000;
  std::memcpy(events.data() + subject, &far, sizeof(far));

  exp::EngineBundle victim = exp::build_engine(engine_request());
  const std::string before = engine_snapshot_bytes(*victim.engine);
  std::istringstream in(with_section_payload(file, fp, "events", events), std::ios::binary);
  try {
    victim.engine->restore_snapshot(in);
    ADD_FAILURE() << "accepted an event whose subject is out of range";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "events") << e.what();
  }
  EXPECT_EQ(engine_snapshot_bytes(*victim.engine), before);
}

// -------------------------------------------------- v4: link contention

exp::RunRequest contended_engine_request() {
  exp::RunRequest r = engine_request();
  r.label = "snapshot-links";
  r.cluster.link_contention = true;
  r.cluster.duty_cycles = true;
  r.cluster.nic_capacity_mbps = 800.0;
  r.cluster.rack_uplink_capacity_mbps = 120.0;
  return r;
}

TEST(SnapshotEngine, MidCongestionSnapshotIsIdempotent) {
  // Contention + duty cycles on: the snapshot carries the v4 "links"
  // section (flow sets, duty cycles, phase offsets) and the engine's link
  // counters. Cut mid-run, restore into a fresh engine, demand the same
  // position and a byte-identical re-save.
  exp::EngineBundle donor = exp::build_engine(contended_engine_request());
  for (int i = 0; i < 150 && donor.engine->step(); ++i) {
  }
  const std::string first = engine_snapshot_bytes(*donor.engine);

  exp::EngineBundle twin = exp::build_engine(contended_engine_request());
  {
    std::istringstream is(first, std::ios::binary);
    twin.engine->restore_snapshot(is);
  }
  EXPECT_EQ(twin.engine->events_processed(), donor.engine->events_processed());
  EXPECT_EQ(twin.engine->event_stream_hash(), donor.engine->event_stream_hash());
  EXPECT_EQ(engine_snapshot_bytes(*twin.engine), first);

  // And the resumed run finishes bit-identically to the uninterrupted one,
  // link metrics included (deterministic_equal covers them).
  while (donor.engine->step()) {
  }
  while (twin.engine->step()) {
  }
  const RunMetrics expected = donor.engine->finalize();
  const RunMetrics actual = twin.engine->finalize();
  EXPECT_TRUE(deterministic_equal(expected, actual));
}

TEST(SnapshotEngine, ContentionConfigMismatchRejected) {
  // A snapshot taken with the link model on cannot restore into an engine
  // configured without it (and vice versa): the contention fields are part
  // of the config fingerprint, and the "links" section presence must match
  // the target config.
  exp::EngineBundle donor = exp::build_engine(contended_engine_request());
  for (int i = 0; i < 50 && donor.engine->step(); ++i) {
  }
  const std::string bytes = engine_snapshot_bytes(*donor.engine);

  exp::RunRequest off = contended_engine_request();
  off.cluster.link_contention = false;
  off.cluster.duty_cycles = false;
  exp::EngineBundle victim = exp::build_engine(off);
  {
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_THROW(victim.engine->restore_snapshot(is), SnapshotError);
  }

  exp::EngineBundle plain = exp::build_engine(off);
  for (int i = 0; i < 50 && plain.engine->step(); ++i) {
  }
  const std::string plain_bytes = engine_snapshot_bytes(*plain.engine);
  exp::EngineBundle contended_victim = exp::build_engine(contended_engine_request());
  std::istringstream is(plain_bytes, std::ios::binary);
  EXPECT_THROW(contended_victim.engine->restore_snapshot(is), SnapshotError);
}

// ------------------------------------------- regression: stateful fixes

// The MLF-H placement memo (comm-cost cache) must round-trip, not merely be
// invalidated: its hit/miss counters feed SchedStats, so a restore that
// dropped the memo would drift comm_cache_hits vs the uninterrupted run.
TEST(SnapshotRegression, PlacementMemoCountersSurviveRestore) {
  exp::RunRequest request = engine_request();
  request.scheduler = "MLF-H";
  const auto result = exp::check_restore_equivalence(request, 0x1234567ull);
  ASSERT_TRUE(result.equivalent) << result.detail;
  EXPECT_EQ(result.restored.comm_cache_hits, result.reference.comm_cache_hits);
  EXPECT_EQ(result.restored.candidates_scanned, result.reference.candidates_scanned);
}

// The prediction service's curve-fit caches must round-trip: a restore
// that dropped the chains would refit them (different fits_cold /
// nm_objective_evals than the uninterrupted run — deterministic_equal
// would catch it), and one that mangled them would change OptStop
// decisions downstream.
TEST(SnapshotRegression, PredictionServiceCacheSurvivesRestore) {
  exp::RunRequest request = engine_request();
  request.trace.num_jobs = 16;  // enough draws for several OptStop jobs
  const auto result = exp::check_restore_equivalence(request, 0x7654321ull);
  ASSERT_TRUE(result.equivalent) << result.detail;
  // The workload's policy mix (30% OptStop) must actually have exercised
  // the fit chains, or this test proves nothing.
  EXPECT_GT(result.reference.fits_cold + result.reference.fits_warm, 0u);
  EXPECT_EQ(result.restored.fits_cold, result.reference.fits_cold);
  EXPECT_EQ(result.restored.fits_warm, result.reference.fits_warm);
  EXPECT_EQ(result.restored.prediction_cache_hits, result.reference.prediction_cache_hits);
  EXPECT_EQ(result.restored.nm_objective_evals, result.reference.nm_objective_evals);
}

// A policy agent's save_state must capture network parameters, optimizer
// moments AND the action-sampling RNG — save()/load() (text checkpoints)
// deliberately drop the latter two, which a resumed training run cannot
// afford.
TEST(SnapshotRegression, ReinforceAgentFullStateRoundTrips) {
  rl::ReinforceConfig config;
  config.state_dim = 4;
  config.action_dim = 3;
  config.hidden = {8};
  config.seed = 21;
  rl::ReinforceAgent agent(config);
  // Burn RNG draws so the stream is mid-sequence.
  const std::vector<double> state = {0.1, -0.2, 0.3, 0.4};
  for (int i = 0; i < 17; ++i) (void)agent.act(state);

  std::string saved;
  {
    io::BinWriter w(saved);
    agent.save_state(w);
  }

  rl::ReinforceAgent twin(config);
  (void)twin.act(state);  // desynchronize before restore
  {
    io::BinReader r(saved);
    twin.restore_state(r);
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(twin.act(state), agent.act(state));

  // And the restore is lossless: re-saving reproduces the original bytes.
  {
    io::BinReader r(saved);
    twin.restore_state(r);
  }
  std::string resaved;
  {
    io::BinWriter w(resaved);
    twin.save_state(w);
  }
  EXPECT_EQ(resaved, saved);
}

}  // namespace
}  // namespace mlfs
