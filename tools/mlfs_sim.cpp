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
//            [--journal DIR] [--snapshot-every N] [--snapshot-keep K]
//            [--fsync every|group|off] [--stream-jobs N]
//
// Exit codes: 0 = ran (or --help / --list), 1 = the run failed, 2 = usage
// error.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cli.hpp"
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

  // Durable journal session (exp/durable.hpp; single scheduler).
  std::string journal_dir;  ///< empty = off
  std::uint64_t snapshot_every = 0;  ///< events between snapshots (0 = only the first)
  int snapshot_keep = 0;  ///< prune to the newest K snapshots (0 = keep all)
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
      "  --journal DIR        durable session: write-ahead journal + periodic\n"
      "                       snapshots in DIR (atomic tmp+rename); if DIR\n"
      "                       already holds a snapshot the run resumes from it,\n"
      "                       replaying journaled arrivals — SIGKILL at any\n"
      "                       instant loses nothing; single scheduler only\n"
      "  --snapshot-every N   snapshot every N events (default 0 = only the\n"
      "                       first; needs --journal)\n"
      "  --snapshot-keep K    prune all but the newest K snapshots and their\n"
      "                       journal segments (0 = keep all; needs --journal)\n"
      "  --fsync P            journal fsync policy: every | group | off\n"
      "                       (default group; needs --journal)\n"
      "  --stream-jobs N      withhold the last N workload jobs and stream\n"
      "                       them into the running engine as live arrivals\n"
      "                       (journaled write-ahead; needs --journal)\n";
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
      } else if (arg == "--list" || arg == "--list-schedulers") {
        for (const auto& name : exp::registered_scheduler_names()) std::cout << name << "\n";
        return false;
      } else if (arg == "--scheduler") {
        options.schedulers.push_back(args.value());
      } else if (arg == "--jobs") {
        options.jobs = args.number<std::size_t>();
      } else if (arg == "--hours") {
        options.hours = args.number<double>();
      } else if (arg == "--seed") {
        options.seed = args.number<std::uint64_t>();
      } else if (arg == "--servers") {
        options.servers = args.number<std::size_t>();
      } else if (arg == "--gpus-per-server") {
        options.gpus_per_server = args.number<int>();
      } else if (arg == "--total-gpus") {
        options.total_gpus = args.number<std::size_t>();
      } else if (arg == "--no-bucket-index") {
        options.no_bucket_index = true;
      } else if (arg == "--trace") {
        options.trace_file = args.value();
      } else if (arg == "--servers-per-rack") {
        options.servers_per_rack = args.number<int>();
      } else if (arg == "--slow-fraction") {
        options.slow_fraction = args.number<double>();
      } else if (arg == "--straggler") {
        options.straggler_probability = args.number<double>();
      } else if (arg == "--replicas") {
        options.straggler_replicas = args.number<int>();
      } else if (arg == "--threads") {
        options.threads = args.number<unsigned>();
      } else if (arg == "--mtbf") {
        options.mtbf_hours = args.number<double>();
      } else if (arg == "--mttr") {
        options.mttr_hours = args.number<double>();
      } else if (arg == "--kill-prob") {
        options.kill_probability = args.number<double>();
      } else if (arg == "--flaky") {
        options.flaky_fraction = args.number<double>();
      } else if (arg == "--checkpoint-interval") {
        options.checkpoint_interval = args.number<int>();
      } else if (arg == "--recovery") {
        options.recovery = true;
      } else if (arg == "--retry-budget") {
        options.retry_budget = args.number<int>();
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
        options.nic_mbps = args.number<double>();
      } else if (arg == "--uplink-mbps") {
        options.uplink_mbps = args.number<double>();
      } else if (arg == "--csv") {
        options.csv = true;
      } else if (arg == "--audit") {
        options.audit = true;
      } else if (arg == "--event-log") {
        options.event_log_file = args.value();
      } else if (arg == "--journal") {
        options.journal_dir = args.value();
      } else if (arg == "--snapshot-every") {
        options.snapshot_every = args.number<std::uint64_t>();
      } else if (arg == "--snapshot-keep") {
        options.snapshot_keep = args.number<int>();
      } else if (arg == "--fsync") {
        options.fsync = args.fsync();
      } else if (arg == "--stream-jobs") {
        options.stream_jobs = args.number<std::size_t>();
      } else {
        throw cli::UsageError("unknown argument: " + arg);
      }
    }
    if (options.schedulers.empty()) options.schedulers = {"MLFS"};
    for (const auto& name : options.schedulers) {
      if (!exp::is_registered_scheduler(name)) {
        throw cli::UsageError("unknown scheduler: " + name + " (see --list-schedulers)");
      }
    }
    if (!options.recovery && (options.retry_budget != 0 || options.adaptive_checkpoint ||
                              options.spread_placement)) {
      throw cli::UsageError(
          "--retry-budget / --adaptive-checkpoint / --spread-placement need --recovery");
    }
    if (!options.contention &&
        (options.duty_cycle || options.nic_mbps != 1000.0 || options.uplink_mbps != 600.0)) {
      throw cli::UsageError("--duty-cycle / --nic-mbps / --uplink-mbps need --contention");
    }
    if (options.journal_dir.empty() &&
        (options.snapshot_every > 0 || options.snapshot_keep != 0 || options.stream_jobs > 0)) {
      throw cli::UsageError("--snapshot-every / --snapshot-keep / --stream-jobs need --journal");
    }
    if (!options.journal_dir.empty() && options.schedulers.size() != 1) {
      throw cli::UsageError("--journal drives one engine; give exactly one --scheduler");
    }
    if (!options.journal_dir.empty() && !options.event_log_file.empty()) {
      throw cli::UsageError("--event-log is not supported with --journal");
    }
    if (options.snapshot_keep < 0) throw cli::UsageError("--snapshot-keep must be >= 0");
  } catch (const cli::UsageError& e) {
    std::cerr << "mlfs_sim: " << e.what() << " (see --help)\n";
    exit_code = 2;
    return false;
  }
  return true;
}

std::shared_ptr<const std::vector<JobSpec>> load_trace_workload(const Options& options) {
  if (options.trace_file.empty()) return nullptr;
  std::ifstream in(options.trace_file);
  if (!in) throw ContractViolation("cannot open trace file: " + options.trace_file);
  return std::make_shared<const std::vector<JobSpec>>(read_trace_csv(in));
}

/// One prose summary per run, or a CSV header and one row per run.
void print_results(const std::vector<RunMetrics>& results, bool csv) {
  if (!csv) {
    for (const RunMetrics& m : results) std::cout << m.summary() << "\n";
    return;
  }
  std::cout << "scheduler,jobs,avg_jct_min,median_jct_min,makespan_h,deadline_ratio,"
               "avg_wait_s,avg_accuracy,accuracy_ratio,bandwidth_tb,inter_rack_tb,"
               "sched_overhead_ms,migrations,preemptions,sched_rounds,"
               "candidates_scanned,candidates_linear,comm_cache_hits\n";
  for (const RunMetrics& m : results) {
    std::cout << m.scheduler << ',' << m.job_count << ',' << m.average_jct_minutes() << ','
              << m.jct_minutes.median() << ',' << m.makespan_hours << ',' << m.deadline_ratio
              << ',' << m.average_waiting_seconds() << ',' << m.average_accuracy << ','
              << m.accuracy_ratio << ',' << m.bandwidth_tb << ',' << m.inter_rack_tb << ','
              << m.sched_overhead_ms << ',' << m.migrations << ',' << m.preemptions << ','
              << m.sched_rounds << ',' << m.candidates_scanned << ','
              << m.candidates_linear << ',' << m.comm_cache_hits << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    int exit_code = 0;
    if (!parse(argc, argv, options, exit_code)) return exit_code;

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
      const auto script = exp::split_streamed_tail(request, options.stream_jobs);
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
      print_results({result.metrics}, options.csv);
      return 0;
    }

    exp::RunOptions run_options;
    run_options.threads = options.threads;
    run_options.verbose = false;  // rows are printed in scheduler order below
    print_results(exp::run_batch(requests, run_options), options.csv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
