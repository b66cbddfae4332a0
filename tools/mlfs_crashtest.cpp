// Crash-kill harness for the snapshot/restore subsystem (sim/snapshot.hpp,
// SimEngine::{save,restore}_snapshot).
//
// Each trial runs a faulty, recovery-enabled, stride-1-audited scenario
// uninterrupted to get the reference event-stream hash and metrics, then
// kills an identical run at a random event boundary, restores from the last
// snapshot and replays to completion. The resumed run must be byte-identical
// (event_stream_hash + every deterministic RunMetrics field).
//
// Two kill modes:
//   * in-process (default): the interrupted engine is snapshotted at the
//     kill event and destroyed mid-run (exp::check_restore_equivalence) —
//     fast, no filesystem.
//   * --sigkill: the run happens in a forked child that snapshots to disk on
//     an event stride (atomic tmp+rename) and raise(SIGKILL)s itself at the
//     kill event — no destructors, no stream flush, a genuine crash. The
//     parent verifies the child died by SIGKILL, restores from the newest
//     complete snapshot and replays. This is the CI crash-restore gate.
//
// --journal switches to the zero-loss durable mode (exp/durable.hpp): the
// last --stream-jobs trace jobs are withheld from the engine and streamed
// into it live (SimEngine::inject_job), every injection is written ahead to
// a per-segment journal, and recovery is snapshot + journal replay. The
// SIGKILL lands at a *random* event index — not a snapshot boundary — and
// the recovered run must still be byte-identical (event_stream_hash and
// every deterministic RunMetrics field) to a run that never crashed,
// streamed arrivals included. This is the CI crash-torture gate.
//
// Usage: mlfs_crashtest [--scheduler NAME] [--trials N] [--seed S]
//                       [--stride N] [--sigkill] [--dir D] [--list]
//                       [--journal] [--stream-jobs N] [--fsync every|group|off]
//
// Exit codes: 0 = every trial byte-identical (or --help / --list), 1 = a
// trial failed or the harness errored, 2 = usage error.
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <algorithm>

#include "cli.hpp"
#include "common/expect.hpp"
#include "common/rng.hpp"
#include "exp/durable.hpp"
#include "exp/registry.hpp"
#include "exp/restore_check.hpp"
#include "exp/runner.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "workload/trace.hpp"

namespace {

using namespace mlfs;

struct Options {
  std::string scheduler = "MLFS";
  int trials = 3;
  std::uint64_t seed = 7;
  std::uint64_t stride = 200;  ///< events between on-disk snapshots (--sigkill)
  bool sigkill = false;
  std::string dir = "crashtest-snapshots";

  // Zero-loss durable mode (--journal).
  bool journal = false;
  std::size_t stream_jobs = 4;  ///< trace jobs withheld and streamed in live
  FsyncPolicy fsync = FsyncPolicy::GroupCommit;

  // Internal child mode (spawned by --sigkill trials).
  bool child = false;
  std::uint64_t kill_at = 0;
};

void print_usage() {
  std::cout <<
      "mlfs_crashtest — kill a run at a random event boundary, restore from\n"
      "the last snapshot and demand a byte-identical resume.\n\n"
      "  --scheduler NAME  scheduler under test (default MLFS); --list to enumerate\n"
      "  --trials N        kill points per invocation (default 3)\n"
      "  --seed S          seed for the kill-point draw (default 7)\n"
      "  --stride N        events between on-disk snapshots in --sigkill mode\n"
      "                    (default 200)\n"
      "  --sigkill         crash a real subprocess with SIGKILL instead of the\n"
      "                    in-process abort\n"
      "  --dir D           snapshot directory for --sigkill (default\n"
      "                    ./crashtest-snapshots, wiped per trial)\n"
      "  --journal         zero-loss durable mode: stream the last --stream-jobs\n"
      "                    trace jobs into the live engine, journal every\n"
      "                    injection write-ahead, kill at a random event index\n"
      "                    and recover via snapshot + journal replay\n"
      "  --stream-jobs N   jobs withheld from the start set and streamed in\n"
      "                    (default 4; needs --journal)\n"
      "  --fsync P         journal fsync policy: every | group | off\n"
      "                    (default group; needs --journal)\n";
}

/// Reads the command line into `options`. Returns false when the tool must
/// exit at once with `exit_code`: 0 after --help or --list, 2 on a usage
/// error.
bool parse(int argc, char** argv, Options& options, int& exit_code) {
  exit_code = 0;
  try {
    cli::Args args(argc, argv);
    while (args.next()) {
      const std::string& arg = args.flag();
      if (arg == "--help" || arg == "-h") {
        print_usage();
        return false;
      } else if (arg == "--list") {
        for (const auto& name : exp::registered_scheduler_names()) std::cout << name << "\n";
        return false;
      } else if (arg == "--scheduler") {
        options.scheduler = args.value();
      } else if (arg == "--trials") {
        options.trials = args.number<int>();
      } else if (arg == "--seed") {
        options.seed = args.number<std::uint64_t>();
      } else if (arg == "--stride") {
        options.stride = args.number<std::uint64_t>();
      } else if (arg == "--sigkill") {
        options.sigkill = true;
      } else if (arg == "--dir") {
        options.dir = args.value();
      } else if (arg == "--journal") {
        options.journal = true;
      } else if (arg == "--stream-jobs") {
        options.stream_jobs = args.number<std::size_t>();
      } else if (arg == "--fsync") {
        options.fsync = args.fsync();
      } else if (arg == "--child") {
        options.child = true;
      } else if (arg == "--kill-at") {
        options.kill_at = args.number<std::uint64_t>();
      } else {
        throw cli::UsageError("unknown argument: " + arg);
      }
    }
    if (options.stride == 0) throw cli::UsageError("--stride must be positive");
  } catch (const cli::UsageError& e) {
    std::cerr << "mlfs_crashtest: " << e.what() << " (see --help)\n";
    exit_code = 2;
    return false;
  }
  return true;
}

/// The scenario every trial runs: small cluster, server faults + task kills,
/// full recovery policies, invariant auditor at stride 1 — mirrors the
/// restore-determinism test so the CLI exercises the same acceptance gate.
exp::RunRequest crash_request(const Options& options) {
  exp::RunRequest r;
  r.label = "crashtest-" + options.scheduler;
  r.cluster.server_count = 4;
  r.cluster.gpus_per_server = 4;
  r.cluster.servers_per_rack = 2;
  r.cluster.slow_server_fraction = 0.25;
  r.engine.seed = 31;
  r.engine.max_sim_time = hours(72.0);
  r.engine.straggler_probability = 0.01;
  r.engine.straggler_replicas = 1;
  r.engine.fault.server_mtbf_hours = 24.0;
  r.engine.fault.server_mttr_hours = 0.5;
  r.engine.fault.task_kill_probability = 0.002;
  r.engine.recovery.enabled = true;
  r.engine.recovery.quarantine_enabled = true;
  r.engine.recovery.retry_backoff_enabled = true;
  r.engine.audit.enabled = true;
  r.engine.audit.stride = 1;
  r.trace.num_jobs = 20;
  r.trace.duration_hours = 2.0;
  r.trace.seed = 77;
  r.trace.max_gpu_request = 8;
  r.scheduler = options.scheduler;
  r.mlfs_config.rl.warmup_samples = 100;
  return r;
}

exp::DurableConfig durable_config(const Options& options) {
  exp::DurableConfig config;
  config.dir = options.dir;
  config.snapshot_stride = options.stride;
  config.fsync = options.fsync;
  return config;
}

const char* fsync_flag(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::EveryRecord: return "every";
    case FsyncPolicy::GroupCommit: return "group";
    case FsyncPolicy::Off: return "off";
  }
  return "group";
}

/// Child body for --journal --sigkill: run the durable session up to the kill
/// event, then die by a real SIGKILL. The journal sink is unbuffered (one
/// write(2) per record), so the on-disk state is exactly a crash at that
/// event index — no destructors run, nothing left to flush.
int run_journal_child(const Options& options) {
  exp::RunRequest request = crash_request(options);
  const auto script = exp::split_streamed_tail(request, options.stream_jobs);
  exp::DurableConfig config = durable_config(options);
  config.halt_at_event = options.kill_at;
  const exp::DurableResult result = exp::run_durable(request, script, config);
  if (result.halted) raise(SIGKILL);
  std::cerr << "child completed before kill_at=" << options.kill_at << "\n";
  return 3;
}

/// One zero-loss trial: crash a durable run at `kill_at` (forked SIGKILL or
/// in-process halt), recover in a second session via snapshot + journal
/// replay, and demand byte-identity with the never-crashed reference.
bool run_journal_trial(const Options& options, const std::string& self_exe,
                       std::uint64_t kill_at, const exp::RunRequest& request,
                       const std::vector<exp::ScriptedArrivalSource::Entry>& script,
                       const RunMetrics& reference) {
  const std::filesystem::path dir = options.dir;
  std::filesystem::remove_all(dir);

  if (options.sigkill) {
    const pid_t pid = fork();
    if (pid < 0) throw ContractViolation("fork failed");
    if (pid == 0) {
      execl(self_exe.c_str(), self_exe.c_str(), "--journal", "--child", "--kill-at",
            std::to_string(kill_at).c_str(), "--scheduler", options.scheduler.c_str(),
            "--stride", std::to_string(options.stride).c_str(), "--stream-jobs",
            std::to_string(options.stream_jobs).c_str(), "--fsync", fsync_flag(options.fsync),
            "--dir", dir.string().c_str(), static_cast<char*>(nullptr));
      _exit(127);  // exec failed
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) throw ContractViolation("waitpid failed");
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
      std::cerr << "  child did not die by SIGKILL (status=" << status << ")\n";
      return false;
    }
  } else {
    exp::DurableConfig crashed = durable_config(options);
    crashed.halt_at_event = kill_at;
    if (!exp::run_durable(request, script, crashed).halted) {
      std::cerr << "  durable run completed before kill_at=" << kill_at << "\n";
      return false;
    }
  }

  const exp::DurableResult recovered = exp::run_durable(request, script, durable_config(options));
  std::filesystem::remove_all(dir);
  if (!recovered.recovered) {
    std::cerr << "  recovery did not resume from a snapshot\n";
    return false;
  }
  std::cerr << "  killed at event " << kill_at << ", resumed from snapshot at event "
            << recovered.resume_event << ", replayed " << recovered.records_replayed
            << " journaled arrivals" << (recovered.torn_tail_dropped ? " (torn tail dropped)" : "")
            << "\n";
  const bool ok = deterministic_equal(reference, recovered.metrics) &&
                  reference.event_stream_hash == recovered.metrics.event_stream_hash;
  if (!ok) {
    std::cerr << "  ZERO-LOSS MISMATCH\n    reference: hash=" << std::hex
              << reference.event_stream_hash << std::dec << " " << reference.summary()
              << "\n    recovered: hash=" << std::hex << recovered.metrics.event_stream_hash
              << std::dec << " " << recovered.metrics.summary() << "\n";
  }
  return ok;
}

/// Atomic snapshot write: crash mid-write leaves a *.tmp the restore scan
/// ignores, never a truncated snap-*.bin.
void write_snapshot_atomic(const SimEngine& engine, const std::filesystem::path& dir,
                           std::uint64_t events) {
  const std::filesystem::path tmp = dir / ("snap-" + std::to_string(events) + ".tmp");
  const std::filesystem::path final_path = dir / ("snap-" + std::to_string(events) + ".bin");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw ContractViolation("cannot write snapshot " + tmp.string());
    engine.save_snapshot(out);
    out.flush();
    if (!out) throw ContractViolation("short write on snapshot " + tmp.string());
  }
  std::filesystem::rename(tmp, final_path);
}

/// Child body for --sigkill: run the scenario, snapshot on the stride, then
/// die by a real SIGKILL at the kill event — no unwinding, no flush.
int run_child(const Options& options) {
  exp::EngineBundle bundle = exp::build_engine(crash_request(options));
  SimEngine& engine = *bundle.engine;
  std::filesystem::create_directories(options.dir);
  write_snapshot_atomic(engine, options.dir, 0);  // guarantees a restore point
  while (engine.step()) {
    if (engine.events_processed() % options.stride == 0) {
      write_snapshot_atomic(engine, options.dir, engine.events_processed());
    }
    // No snapshot at the kill point itself: the restore must come from the
    // last *stride* snapshot and replay the gap, like a real crash.
    if (engine.events_processed() >= options.kill_at) raise(SIGKILL);
  }
  // Only reachable if the run finished before the kill point — trial bug.
  std::cerr << "child completed before kill_at=" << options.kill_at << "\n";
  return 3;
}

/// Newest complete snapshot in `dir` (complete by construction: only fully
/// written files are renamed to *.bin).
std::filesystem::path newest_snapshot(const std::filesystem::path& dir) {
  std::filesystem::path best;
  std::uint64_t best_events = 0;
  bool found = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) != 0 || entry.path().extension() != ".bin") continue;
    const auto events =
        parse_number<std::uint64_t>(entry.path().stem().string().substr(5), name);
    if (!found || events >= best_events) {
      best = entry.path();
      best_events = events;
      found = true;
    }
  }
  if (!found) throw ContractViolation("no complete snapshot in " + dir.string());
  return best;
}

bool run_sigkill_trial(const Options& options, const std::string& self_exe,
                       std::uint64_t kill_at, const RunMetrics& reference) {
  const std::filesystem::path dir = options.dir;
  std::filesystem::remove_all(dir);

  const pid_t pid = fork();
  if (pid < 0) throw ContractViolation("fork failed");
  if (pid == 0) {
    execl(self_exe.c_str(), self_exe.c_str(), "--child", "--kill-at",
          std::to_string(kill_at).c_str(), "--scheduler", options.scheduler.c_str(),
          "--stride", std::to_string(options.stride).c_str(), "--dir",
          dir.string().c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) throw ContractViolation("waitpid failed");
  if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
    std::cerr << "  child did not die by SIGKILL (status=" << status << ")\n";
    return false;
  }

  const std::filesystem::path snap = newest_snapshot(dir);
  exp::EngineBundle bundle = exp::build_engine(crash_request(options));
  SimEngine& engine = *bundle.engine;
  {
    std::ifstream in(snap, std::ios::binary);
    if (!in) throw ContractViolation("cannot open " + snap.string());
    engine.restore_snapshot(in);
  }
  std::cerr << "  killed at event " << kill_at << ", restored " << snap.filename().string()
            << " at event " << engine.events_processed() << "\n";
  while (engine.step()) {
  }
  const RunMetrics restored = engine.finalize();

  std::filesystem::remove_all(dir);
  const bool ok = deterministic_equal(reference, restored) &&
                  reference.event_stream_hash == restored.event_stream_hash;
  if (!ok) {
    std::cerr << "  MISMATCH\n    reference: hash=" << std::hex << reference.event_stream_hash
              << std::dec << " " << reference.summary() << "\n    restored:  hash=" << std::hex
              << restored.event_stream_hash << std::dec << " " << restored.summary() << "\n";
  }
  return ok;
}

std::string self_exe_path(const char* argv0) {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return std::string(buf);
  }
  return std::string(argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    int exit_code = 0;
    if (!parse(argc, argv, options, exit_code)) return exit_code;
    if (options.child) return options.journal ? run_journal_child(options) : run_child(options);

    if (options.journal) {
      // Zero-loss gate: reference streams the withheld jobs live, no journal.
      exp::RunRequest request = crash_request(options);
      const auto script = exp::split_streamed_tail(request, options.stream_jobs);
      const RunMetrics reference = exp::run_streaming(request, script);
      const std::uint64_t total_events = reference.events_processed;
      if (total_events <= 1) throw ContractViolation("reference run dispatched no events");
      std::cerr << options.scheduler << ": reference " << total_events << " events ("
                << reference.jobs_injected << " streamed), hash=0x" << std::hex
                << reference.event_stream_hash << std::dec << "\n";

      const std::string self_exe = self_exe_path(argv[0]);
      Rng rng(options.seed);
      int failures = 0;
      for (int trial = 0; trial < options.trials; ++trial) {
        const std::uint64_t kill_at = 1 + rng.next_u64() % (total_events - 1);
        std::cerr << "trial " << trial << (options.sigkill ? " (journal, sigkill):\n"
                                                           : " (journal, in-process):\n");
        const bool ok =
            run_journal_trial(options, self_exe, kill_at, request, script, reference);
        std::cout << "trial " << trial << " kill_at=" << kill_at << " "
                  << (ok ? "PASS" : "FAIL") << "\n";
        if (!ok) ++failures;
      }
      if (failures > 0) {
        std::cout << failures << "/" << options.trials << " trials FAILED\n";
        return 1;
      }
      std::cout << "all " << options.trials
                << " trials byte-identical after journal recovery\n";
      return 0;
    }

    // Uninterrupted reference run: total event count bounds the kill draw.
    exp::EngineBundle reference_bundle = exp::build_engine(crash_request(options));
    const RunMetrics reference = reference_bundle.engine->run();
    const std::uint64_t total_events = reference.events_processed;
    if (total_events <= 1) throw ContractViolation("reference run dispatched no events");
    std::cerr << options.scheduler << ": reference " << total_events << " events, hash=0x"
              << std::hex << reference.event_stream_hash << std::dec << "\n";

    const std::string self_exe = self_exe_path(argv[0]);
    Rng rng(options.seed);
    int failures = 0;
    for (int trial = 0; trial < options.trials; ++trial) {
      // Kill somewhere strictly inside the run so the resume does real work.
      const std::uint64_t kill_at = 1 + rng.next_u64() % (total_events - 1);
      bool ok = false;
      if (options.sigkill) {
        std::cerr << "trial " << trial << " (sigkill):\n";
        ok = run_sigkill_trial(options, self_exe, kill_at, reference);
      } else {
        const exp::RestoreCheckResult result =
            exp::check_restore_equivalence(crash_request(options), kill_at);
        ok = result.equivalent;
        std::cerr << "trial " << trial << " (in-process): kill at event "
                  << result.snapshot_event << "\n";
        if (!ok) std::cerr << result.detail << "\n";
      }
      std::cout << "trial " << trial << " kill_at=" << kill_at << " "
                << (ok ? "PASS" : "FAIL") << "\n";
      if (!ok) ++failures;
    }
    if (failures > 0) {
      std::cout << failures << "/" << options.trials << " trials FAILED\n";
      return 1;
    }
    std::cout << "all " << options.trials << " trials byte-identical after restore\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
