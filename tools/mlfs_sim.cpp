// mlfs_sim — command-line driver for the simulator. Runs any registered
// scheduler on either a synthetic Philly-style workload or a trace CSV
// (the examples/trace_replay.cpp schema) and prints the run metrics,
// optionally as CSV. The one binary a downstream user needs to evaluate a
// scheduling idea against the MLFS family.
//
// Multiple --scheduler runs execute on the shared experiment runner
// (exp::run_batch): concurrently up to --threads, with output always in
// the order the schedulers were given.
//
// Usage:
//   mlfs_sim [--scheduler NAME]... [--jobs N] [--hours H] [--seed S]
//            [--servers N] [--gpus-per-server N] [--trace FILE]
//            [--servers-per-rack N] [--slow-fraction F] [--straggler P]
//            [--replicas N] [--threads N] [--csv] [--list-schedulers]
//            [--mtbf H] [--mttr H] [--kill-prob P] [--flaky F]
//            [--checkpoint-interval N] [--recovery] [--retry-budget N]
//            [--adaptive-checkpoint] [--spread-placement] [--coarsen-curve]
//            [--contention] [--duty-cycle] [--nic-mbps B] [--uplink-mbps B]
//            [--snapshot-every N] [--snapshot-dir D] [--restore FILE]
//            [--snapshot-keep K] [--journal DIR] [--fsync every|group|off]
//            [--stream-jobs N]
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/durable.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "sim/engine.hpp"
#include "sim/event_log.hpp"
#include "workload/trace.hpp"

namespace {

using namespace mlfs;

struct Options {
  std::vector<std::string> schedulers;
  std::size_t jobs = 200;
  double hours = 24.0;
  std::uint64_t seed = 42;
  std::size_t servers = 8;
  int gpus_per_server = 4;
  std::size_t total_gpus = 0;
  bool no_bucket_index = false;
  std::string trace_file;
  int servers_per_rack = 0;
  double slow_fraction = 0.0;
  double straggler_probability = 0.0;
  int straggler_replicas = 0;
  unsigned threads = 0;  // 0 = hardware concurrency
  bool csv = false;
  bool audit = false;
  std::string event_log_file;

  // Fault injection + recovery policies.
  double mtbf_hours = 0.0;
  double mttr_hours = 0.5;
  double kill_probability = 0.0;
  double flaky_fraction = 0.0;
  int checkpoint_interval = 1;
  bool recovery = false;
  int retry_budget = 0;
  bool adaptive_checkpoint = false;
  bool spread_placement = false;

  // Prediction service (predict/service.hpp).
  bool coarsen_curve = false;

  // Link contention (sim/link_model.hpp).
  bool contention = false;
  bool duty_cycle = false;
  double nic_mbps = 1000.0;
  double uplink_mbps = 600.0;

  // Snapshot / restore (single-scheduler manual drive).
  std::uint64_t snapshot_every = 0;  ///< events between snapshots (0 = off)
  std::string snapshot_dir = "snapshots";
  std::string restore_file;
  int snapshot_keep = 0;  ///< prune to the newest K snapshots (0 = keep all)

  // Durable journal session (exp/durable.hpp; single scheduler).
  std::string journal_dir;  ///< empty = off
  FsyncPolicy fsync = FsyncPolicy::GroupCommit;
  std::size_t stream_jobs = 0;  ///< stream the last N workload jobs in live
};

void print_usage() {
  std::cout <<
      "mlfs_sim — run ML-cluster scheduling experiments\n\n"
      "  --scheduler NAME     scheduler to run (repeatable; default: MLFS)\n"
      "  --list-schedulers    list registered schedulers and exit (alias: --list)\n"
      "  --jobs N             synthetic jobs to generate (default 200)\n"
      "  --hours H            arrival window in hours (default 24)\n"
      "  --seed S             trace + engine seed (default 42)\n"
      "  --servers N          server count (default 8)\n"
      "  --gpus-per-server N  GPUs per server (default 4)\n"
      "  --total-gpus N       distribute N GPUs across the fleet instead of\n"
      "                       a uniform per-server count (heterogeneous,\n"
      "                       e.g. Philly: --servers 550 --total-gpus 2474)\n"
      "  --no-bucket-index    disable the bucketed placement index (linear\n"
      "                       candidate funnel; same decisions)\n"
      "  --trace FILE         replay a trace CSV instead of generating\n"
      "  --servers-per-rack N rack topology (0 = flat)\n"
      "  --slow-fraction F    fraction of servers on the slow GPU tier\n"
      "  --straggler P        per task-iteration straggler probability\n"
      "  --replicas N         straggler-mitigation replicas per task\n"
      "  --threads N          concurrent runs (default 0 = hardware concurrency;\n"
      "                       results and output order do not depend on N)\n"
      "  --csv                emit one CSV row per run instead of prose\n"
      "  --audit              validate simulation invariants after every\n"
      "                       event (sim/audit.hpp); results are identical,\n"
      "                       violations abort the run with a diagnostic\n"
      "  --event-log FILE     write a JSONL event trace of the (last) run;\n"
      "                       forces --threads 1\n"
      "  --mtbf H             mean time between server crashes in hours\n"
      "                       (0 = no crashes; exponential inter-arrivals)\n"
      "  --mttr H             mean crash repair time in hours (default 0.5;\n"
      "                       0 makes crashes permanent)\n"
      "  --kill-prob P        per task-iteration transient kill probability\n"
      "  --flaky F            fraction of servers crashing/killing at 8x the\n"
      "                       base rates (heterogeneous reliability)\n"
      "  --checkpoint-interval N  iterations between checkpoints (default 1)\n"
      "  --recovery           enable the failure-aware recovery policies\n"
      "                       (server health tracking, quarantine with\n"
      "                       probation, retry backoff; sim/health.hpp)\n"
      "  --retry-budget N     fault retries per job before it is marked\n"
      "                       failed-permanent (0 = unlimited; needs --recovery)\n"
      "  --adaptive-checkpoint  size checkpoint intervals by Young/Daly from\n"
      "                       the observed MTBF (needs --recovery)\n"
      "  --spread-placement   rack-spread penalty in host choice so one rack\n"
      "                       outage cannot erase a whole job (needs --recovery)\n"
      "  --coarsen-curve      log-subsample long observation tails before\n"
      "                       curve fitting (approximation; changes results)\n"
      "  --contention         enable link-level bandwidth contention: per-\n"
      "                       server NICs and per-rack uplinks divide their\n"
      "                       capacity fairly among concurrent flows\n"
      "                       (sim/link_model.hpp; changes results)\n"
      "  --duty-cycle         per-model compute/communicate duty cycles: jobs\n"
      "                       contend only while their comm windows overlap,\n"
      "                       which network-aware schedulers (Cassini) offset\n"
      "                       (needs --contention)\n"
      "  --nic-mbps B         per-server NIC capacity in Mbps (default 1000;\n"
      "                       <= 0 = unconstrained; needs --contention)\n"
      "  --uplink-mbps B      per-rack uplink capacity in Mbps (default 600;\n"
      "                       <= 0 = unconstrained; needs --contention)\n"
      "  --snapshot-every N   write an engine snapshot every N events (atomic\n"
      "                       tmp+rename, snap-<events>.bin); single scheduler only\n"
      "  --snapshot-dir D     snapshot directory (default ./snapshots)\n"
      "  --restore FILE       resume from a snapshot instead of starting fresh;\n"
      "                       the other flags must rebuild the exact run the\n"
      "                       snapshot came from (config fingerprint enforced)\n"
      "  --snapshot-keep K    prune all but the newest K snapshots (and, with\n"
      "                       --journal, their journal segments); 0 = keep all\n"
      "  --journal DIR        durable session: write-ahead journal + periodic\n"
      "                       snapshots in DIR (stride from --snapshot-every);\n"
      "                       if DIR already holds a snapshot the run resumes\n"
      "                       from it, replaying journaled arrivals — SIGKILL\n"
      "                       at any instant loses nothing\n"
      "  --fsync P            journal fsync policy: every | group | off\n"
      "                       (default group; needs --journal)\n"
      "  --stream-jobs N      withhold the last N workload jobs and stream\n"
      "                       them into the running engine as live arrivals\n"
      "                       (journaled write-ahead; needs --journal)\n";
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << what << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return false;
    } else if (arg == "--list" || arg == "--list-schedulers") {
      for (const auto& name : exp::registered_scheduler_names()) std::cout << name << "\n";
      return false;
    } else if (arg == "--scheduler") {
      const char* v = next("--scheduler");
      if (!v) return false;
      options.schedulers.emplace_back(v);
    } else if (arg == "--jobs") {
      const char* v = next("--jobs");
      if (!v) return false;
      options.jobs = std::stoul(v);
    } else if (arg == "--hours") {
      const char* v = next("--hours");
      if (!v) return false;
      options.hours = std::stod(v);
    } else if (arg == "--seed") {
      const char* v = next("--seed");
      if (!v) return false;
      options.seed = std::stoull(v);
    } else if (arg == "--servers") {
      const char* v = next("--servers");
      if (!v) return false;
      options.servers = std::stoul(v);
    } else if (arg == "--gpus-per-server") {
      const char* v = next("--gpus-per-server");
      if (!v) return false;
      options.gpus_per_server = std::stoi(v);
    } else if (arg == "--total-gpus") {
      const char* v = next("--total-gpus");
      if (!v) return false;
      options.total_gpus = std::stoul(v);
    } else if (arg == "--no-bucket-index") {
      options.no_bucket_index = true;
    } else if (arg == "--trace") {
      const char* v = next("--trace");
      if (!v) return false;
      options.trace_file = v;
    } else if (arg == "--servers-per-rack") {
      const char* v = next("--servers-per-rack");
      if (!v) return false;
      options.servers_per_rack = std::stoi(v);
    } else if (arg == "--slow-fraction") {
      const char* v = next("--slow-fraction");
      if (!v) return false;
      options.slow_fraction = std::stod(v);
    } else if (arg == "--straggler") {
      const char* v = next("--straggler");
      if (!v) return false;
      options.straggler_probability = std::stod(v);
    } else if (arg == "--replicas") {
      const char* v = next("--replicas");
      if (!v) return false;
      options.straggler_replicas = std::stoi(v);
    } else if (arg == "--threads") {
      const char* v = next("--threads");
      if (!v) return false;
      options.threads = static_cast<unsigned>(std::stoul(v));
    } else if (arg == "--mtbf") {
      const char* v = next("--mtbf");
      if (!v) return false;
      options.mtbf_hours = std::stod(v);
    } else if (arg == "--mttr") {
      const char* v = next("--mttr");
      if (!v) return false;
      options.mttr_hours = std::stod(v);
    } else if (arg == "--kill-prob") {
      const char* v = next("--kill-prob");
      if (!v) return false;
      options.kill_probability = std::stod(v);
    } else if (arg == "--flaky") {
      const char* v = next("--flaky");
      if (!v) return false;
      options.flaky_fraction = std::stod(v);
    } else if (arg == "--checkpoint-interval") {
      const char* v = next("--checkpoint-interval");
      if (!v) return false;
      options.checkpoint_interval = std::stoi(v);
    } else if (arg == "--recovery") {
      options.recovery = true;
    } else if (arg == "--retry-budget") {
      const char* v = next("--retry-budget");
      if (!v) return false;
      options.retry_budget = std::stoi(v);
    } else if (arg == "--adaptive-checkpoint") {
      options.adaptive_checkpoint = true;
    } else if (arg == "--spread-placement") {
      options.spread_placement = true;
    } else if (arg == "--coarsen-curve") {
      options.coarsen_curve = true;
    } else if (arg == "--contention") {
      options.contention = true;
    } else if (arg == "--duty-cycle") {
      options.duty_cycle = true;
    } else if (arg == "--nic-mbps") {
      const char* v = next("--nic-mbps");
      if (!v) return false;
      options.nic_mbps = std::stod(v);
    } else if (arg == "--uplink-mbps") {
      const char* v = next("--uplink-mbps");
      if (!v) return false;
      options.uplink_mbps = std::stod(v);
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--audit") {
      options.audit = true;
    } else if (arg == "--event-log") {
      const char* v = next("--event-log");
      if (!v) return false;
      options.event_log_file = v;
    } else if (arg == "--snapshot-every") {
      const char* v = next("--snapshot-every");
      if (!v) return false;
      options.snapshot_every = std::stoull(v);
    } else if (arg == "--snapshot-dir") {
      const char* v = next("--snapshot-dir");
      if (!v) return false;
      options.snapshot_dir = v;
    } else if (arg == "--restore") {
      const char* v = next("--restore");
      if (!v) return false;
      options.restore_file = v;
    } else if (arg == "--snapshot-keep") {
      const char* v = next("--snapshot-keep");
      if (!v) return false;
      options.snapshot_keep = std::stoi(v);
    } else if (arg == "--journal") {
      const char* v = next("--journal");
      if (!v) return false;
      options.journal_dir = v;
    } else if (arg == "--fsync") {
      const char* v = next("--fsync");
      if (!v) return false;
      const std::string policy = v;
      if (policy == "every") {
        options.fsync = FsyncPolicy::EveryRecord;
      } else if (policy == "group") {
        options.fsync = FsyncPolicy::GroupCommit;
      } else if (policy == "off") {
        options.fsync = FsyncPolicy::Off;
      } else {
        std::cerr << "--fsync takes every | group | off\n";
        return false;
      }
    } else if (arg == "--stream-jobs") {
      const char* v = next("--stream-jobs");
      if (!v) return false;
      options.stream_jobs = std::stoul(v);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      print_usage();
      return false;
    }
  }
  if (options.schedulers.empty()) options.schedulers = {"MLFS"};
  for (const auto& name : options.schedulers) {
    if (!exp::is_registered_scheduler(name)) {
      std::cerr << "unknown scheduler: " << name << " (see --list-schedulers)\n";
      return false;
    }
  }
  if (!options.recovery && (options.retry_budget != 0 || options.adaptive_checkpoint ||
                            options.spread_placement)) {
    std::cerr << "--retry-budget / --adaptive-checkpoint / --spread-placement "
                 "need --recovery\n";
    return false;
  }
  if (!options.contention &&
      (options.duty_cycle || options.nic_mbps != 1000.0 || options.uplink_mbps != 600.0)) {
    std::cerr << "--duty-cycle / --nic-mbps / --uplink-mbps need --contention\n";
    return false;
  }
  if ((options.snapshot_every > 0 || !options.restore_file.empty() ||
       !options.journal_dir.empty()) &&
      options.schedulers.size() != 1) {
    std::cerr << "--snapshot-every / --restore / --journal drive one engine "
                 "manually; give exactly one --scheduler\n";
    return false;
  }
  if (options.journal_dir.empty() && options.stream_jobs > 0) {
    std::cerr << "--stream-jobs needs --journal\n";
    return false;
  }
  if (!options.journal_dir.empty() && !options.restore_file.empty()) {
    std::cerr << "--journal recovers from its own directory; drop --restore\n";
    return false;
  }
  if (!options.journal_dir.empty() && !options.event_log_file.empty()) {
    std::cerr << "--event-log is not supported with --journal\n";
    return false;
  }
  if (options.snapshot_keep < 0) {
    std::cerr << "--snapshot-keep must be >= 0\n";
    return false;
  }
  return true;
}

/// Writes a snapshot atomically: a crash mid-write leaves only a *.tmp the
/// restore path never considers, never a truncated snap-*.bin.
void write_snapshot_atomic(const SimEngine& engine, const std::filesystem::path& dir,
                           std::uint64_t events) {
  std::filesystem::create_directories(dir);
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

/// Prunes the legacy --snapshot-every directory to the newest `keep`
/// snap-*.bin files (the --journal path prunes snapshot+journal *pairs*
/// itself, inside exp::run_durable).
void prune_snapshot_dir(const std::filesystem::path& dir, int keep) {
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> snaps;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) != 0 || entry.path().extension() != ".bin") continue;
    snaps.emplace_back(std::stoull(name.substr(5)), entry.path());
  }
  std::sort(snaps.begin(), snaps.end());
  while (snaps.size() > static_cast<std::size_t>(keep)) {
    std::filesystem::remove(snaps.front().second);
    snaps.erase(snaps.begin());
  }
}

std::shared_ptr<const std::vector<JobSpec>> load_trace_workload(const Options& options) {
  if (options.trace_file.empty()) return nullptr;
  std::ifstream in(options.trace_file);
  if (!in) throw ContractViolation("cannot open trace file: " + options.trace_file);
  return std::make_shared<const std::vector<JobSpec>>(read_trace_csv(in));
}

void print_csv_row(const RunMetrics& m) {
  std::cout << m.scheduler << ',' << m.job_count << ',' << m.average_jct_minutes() << ','
            << m.jct_minutes.median() << ',' << m.makespan_hours << ',' << m.deadline_ratio
            << ',' << m.average_waiting_seconds() << ',' << m.average_accuracy << ','
            << m.accuracy_ratio << ',' << m.bandwidth_tb << ',' << m.inter_rack_tb << ','
            << m.sched_overhead_ms << ',' << m.migrations << ',' << m.preemptions << ','
            << m.sched_rounds << ',' << m.candidates_scanned << ','
            << m.candidates_linear << ',' << m.comm_cache_hits << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    if (!parse(argc, argv, options)) return 0;

    ClusterConfig cluster;
    cluster.server_count = options.servers;
    cluster.gpus_per_server = options.gpus_per_server;
    cluster.servers_per_rack = options.servers_per_rack;
    cluster.slow_server_fraction = options.slow_fraction;
    cluster.total_gpus = options.total_gpus;
    cluster.placement_bucket_index = !options.no_bucket_index;
    cluster.link_contention = options.contention;
    cluster.nic_capacity_mbps = options.nic_mbps;
    cluster.rack_uplink_capacity_mbps = options.uplink_mbps;
    cluster.duty_cycles = options.duty_cycle;

    EngineConfig engine_config;
    engine_config.seed = options.seed ^ 0xabc;
    engine_config.straggler_probability = options.straggler_probability;
    engine_config.straggler_replicas = options.straggler_replicas;
    engine_config.audit.enabled = options.audit;
    engine_config.fault.server_mtbf_hours = options.mtbf_hours;
    engine_config.fault.server_mttr_hours = options.mttr_hours;
    engine_config.fault.task_kill_probability = options.kill_probability;
    engine_config.fault.flaky_server_fraction = options.flaky_fraction;
    engine_config.fault.checkpoint_interval_iterations = options.checkpoint_interval;
    engine_config.recovery.enabled = options.recovery;
    engine_config.recovery.retry_budget = options.retry_budget;
    engine_config.recovery.adaptive_checkpoint = options.adaptive_checkpoint;
    engine_config.recovery.spread_placement = options.spread_placement;
    engine_config.coarsen_curve = options.coarsen_curve;

    TraceConfig trace;
    trace.num_jobs = options.jobs;
    trace.duration_hours = options.hours;
    trace.seed = options.seed;
    trace.max_gpu_request =
        std::min<int>(32, static_cast<int>(options.servers) * options.gpus_per_server / 2);

    const auto shared_workload = load_trace_workload(options);

    // The JSONL observer writes to one file; attaching it to concurrent
    // runs would interleave streams, so the event log forces serial runs
    // (each run overwrites the file — the last scheduler's trace remains,
    // as before).
    const bool want_event_log = !options.event_log_file.empty();
    if (want_event_log && options.threads != 1) {
      std::cerr << "note: --event-log forces --threads 1\n";
      options.threads = 1;
    }

    std::vector<exp::RunRequest> requests;
    requests.reserve(options.schedulers.size());
    for (const auto& name : options.schedulers) {
      exp::RunRequest request;
      request.label = name;
      request.cluster = cluster;
      request.engine = engine_config;
      request.trace = trace;
      request.scheduler = name;
      request.workload = shared_workload;
      requests.push_back(std::move(request));
    }

    std::ofstream event_out;
    std::unique_ptr<JsonlEventLog> event_log;
    if (want_event_log) {
      event_out.open(options.event_log_file);
      if (!event_out) throw ContractViolation("cannot open " + options.event_log_file);
      event_log = std::make_unique<JsonlEventLog>(event_out);
      requests.back().observer = event_log.get();
    }

    // Durable session: write-ahead journal + periodic snapshots. Resumes
    // automatically if the directory already holds a snapshot; --stream-jobs
    // withholds the tail of the workload and injects it live.
    if (!options.journal_dir.empty()) {
      exp::RunRequest request = requests.front();
      std::vector<exp::ScriptedArrivalSource::Entry> script;
      if (options.stream_jobs > 0) {
        std::vector<JobSpec> specs = request.workload
                                         ? *request.workload
                                         : PhillyTraceGenerator(request.trace).generate();
        std::stable_sort(specs.begin(), specs.end(), [](const JobSpec& a, const JobSpec& b) {
          return a.arrival < b.arrival;
        });
        if (options.stream_jobs >= specs.size()) {
          throw ContractViolation("--stream-jobs must leave at least one job in the start set");
        }
        std::vector<JobSpec> streamed(
            specs.end() - static_cast<std::ptrdiff_t>(options.stream_jobs), specs.end());
        specs.resize(specs.size() - options.stream_jobs);
        // The cluster requires dense job ids; streamed jobs are re-id'd by
        // the engine on injection, so only the start set is renumbered.
        for (std::size_t i = 0; i < specs.size(); ++i) specs[i].id = static_cast<JobId>(i);
        request.workload = std::make_shared<const std::vector<JobSpec>>(std::move(specs));
        script = exp::make_script(streamed);
      }
      exp::DurableConfig config;
      config.dir = options.journal_dir;
      config.snapshot_stride = options.snapshot_every;
      config.snapshot_keep = options.snapshot_keep;
      config.fsync = options.fsync;
      const exp::DurableResult result = exp::run_durable(request, script, config);
      if (result.recovered) {
        std::cerr << "recovered from snapshot at event " << result.resume_event
                  << ", replayed " << result.records_replayed << " journaled arrivals"
                  << (result.torn_tail_dropped ? " (torn tail dropped)" : "") << "\n";
      }
      if (options.csv) {
        std::cout << "scheduler,jobs,avg_jct_min,median_jct_min,makespan_h,deadline_ratio,"
                     "avg_wait_s,avg_accuracy,accuracy_ratio,bandwidth_tb,inter_rack_tb,"
                     "sched_overhead_ms,migrations,preemptions,sched_rounds,"
                     "candidates_scanned,candidates_linear,comm_cache_hits\n";
        print_csv_row(result.metrics);
      } else {
        std::cout << result.metrics.summary() << "\n";
      }
      return 0;
    }

    // Snapshot / restore path: drive the one engine manually so we can
    // checkpoint on an event stride and/or resume from a prior snapshot.
    if (options.snapshot_every > 0 || !options.restore_file.empty()) {
      exp::EngineBundle bundle = exp::build_engine(requests.front());
      SimEngine& engine = *bundle.engine;
      if (!options.restore_file.empty()) {
        std::ifstream in(options.restore_file, std::ios::binary);
        if (!in) throw ContractViolation("cannot open snapshot: " + options.restore_file);
        engine.restore_snapshot(in);
        std::cerr << "restored at event " << engine.events_processed() << "\n";
      }
      while (engine.step()) {
        if (options.snapshot_every > 0 &&
            engine.events_processed() % options.snapshot_every == 0) {
          write_snapshot_atomic(engine, options.snapshot_dir, engine.events_processed());
          if (options.snapshot_keep > 0) {
            prune_snapshot_dir(options.snapshot_dir, options.snapshot_keep);
          }
        }
      }
      const RunMetrics m = engine.finalize();
      if (options.csv) {
        std::cout << "scheduler,jobs,avg_jct_min,median_jct_min,makespan_h,deadline_ratio,"
                     "avg_wait_s,avg_accuracy,accuracy_ratio,bandwidth_tb,inter_rack_tb,"
                     "sched_overhead_ms,migrations,preemptions,sched_rounds,"
                     "candidates_scanned,candidates_linear,comm_cache_hits\n";
        print_csv_row(m);
      } else {
        std::cout << m.summary() << "\n";
      }
      return 0;
    }

    exp::RunOptions run_options;
    run_options.threads = options.threads;
    run_options.verbose = false;  // rows are printed in scheduler order below
    const std::vector<RunMetrics> results = exp::run_batch(requests, run_options);

    if (options.csv) {
      std::cout << "scheduler,jobs,avg_jct_min,median_jct_min,makespan_h,deadline_ratio,"
                   "avg_wait_s,avg_accuracy,accuracy_ratio,bandwidth_tb,inter_rack_tb,"
                   "sched_overhead_ms,migrations,preemptions,sched_rounds,"
                   "candidates_scanned,candidates_linear,comm_cache_hits\n";
      for (const RunMetrics& m : results) print_csv_row(m);
    } else {
      for (const RunMetrics& m : results) std::cout << m.summary() << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
