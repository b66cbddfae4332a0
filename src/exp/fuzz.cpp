#include "exp/fuzz.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <istream>
#include <mutex>
#include <sstream>
#include <thread>
#include <type_traits>

#include "common/expect.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "exp/durable.hpp"
#include "exp/registry.hpp"
#include "exp/restore_check.hpp"
#include "sim/audit.hpp"

namespace mlfs::exp {

namespace {

/// Keeps the GPU request satisfiable after topology shrinks: a request
/// larger than the fleet could never gang-place and the case would only
/// measure censoring.
void clamp_gpu_request(FuzzCase& c) {
  const int total = c.total_gpus > 0 ? static_cast<int>(c.total_gpus)
                                     : static_cast<int>(c.servers) * c.gpus_per_server;
  c.max_gpu_request = std::max(1, std::min(c.max_gpu_request, total));
}

/// Scratch journal directory for one crash_check execution. Cases run
/// concurrently (and shrink candidates reuse the case index), so uniqueness
/// comes from pid + a process-wide counter, not from the case identity; the
/// check's outcome never depends on the directory name.
std::string unique_crash_dir() {
  static std::atomic<std::uint64_t> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("mlfs_fuzz_crash_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1))))
      .string();
}

}  // namespace

FuzzCase generate_case(std::uint64_t master_seed, std::uint64_t index,
                       const std::vector<std::string>& schedulers) {
  MLFS_EXPECT(!schedulers.empty());
  Rng rng(master_seed ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  FuzzCase c;
  c.master_seed = master_seed;
  c.index = index;
  c.scheduler = schedulers[static_cast<std::size_t>(index) % schedulers.size()];
  c.trace_seed = rng.next_u64();
  c.engine_seed = rng.next_u64();

  c.servers = static_cast<std::size_t>(rng.uniform_int(1, 10));
  c.gpus_per_server = static_cast<int>(rng.uniform_int(1, 8));
  if (rng.bernoulli(0.4)) c.servers_per_rack = static_cast<int>(rng.uniform_int(2, 4));
  if (rng.bernoulli(0.3)) c.slow_fraction = rng.uniform(0.1, 0.6);

  c.num_jobs = static_cast<std::size_t>(rng.uniform_int(4, 48));
  c.duration_hours = rng.uniform(0.5, 8.0);
  // Mostly generous horizons; sometimes tight, to exercise censoring.
  c.max_sim_hours = rng.bernoulli(0.15) ? rng.uniform(2.0, 12.0) : rng.uniform(24.0, 24.0 * 7);
  const int total_gpus = static_cast<int>(c.servers) * c.gpus_per_server;
  c.max_gpu_request = std::max(1, std::min(16, total_gpus / 2));

  if (rng.bernoulli(0.3)) {
    c.straggler_probability = rng.uniform(0.005, 0.05);
    c.straggler_replicas = static_cast<int>(rng.uniform_int(0, 2));
  }
  if (rng.bernoulli(0.5)) {
    c.server_mtbf_hours = rng.uniform(6.0, 72.0);
    c.server_mttr_hours = rng.uniform(0.1, 1.0);
  }
  if (rng.bernoulli(0.3)) c.task_kill_probability = rng.uniform(5e-5, 5e-4);
  if (c.servers_per_rack > 0 && rng.bernoulli(0.25)) {
    c.rack_mtbf_hours = rng.uniform(24.0, 200.0);
    c.rack_mttr_hours = rng.uniform(0.05, 0.5);
  }
  c.checkpoint_interval = static_cast<int>(rng.uniform_int(1, 8));

  // Sometimes let the RL-backed schedulers actually switch to the policy
  // on a small case (the default warm-up never triggers at fuzz sizes).
  if (rng.bernoulli(0.3)) {
    c.rl_warmup_samples = static_cast<std::size_t>(rng.uniform_int(50, 400));
  }
  // Recovery policies: drawn after the older dimensions, so adding them
  // left every seed's earlier draws unchanged.
  if (rng.bernoulli(0.35)) {
    c.recovery = true;
    c.quarantine = rng.bernoulli(0.7);
    if (rng.bernoulli(0.5)) c.retry_budget = static_cast<int>(rng.uniform_int(1, 6));
    c.adaptive_checkpoint = rng.bernoulli(0.5);
    c.spread_placement = rng.bernoulli(0.5);
    if (rng.bernoulli(0.4)) c.flaky_fraction = rng.uniform(0.1, 0.5);
  }
  // Snapshot/restore: drawn after the blocks above (same prefix rule).
  if (rng.bernoulli(0.25)) {
    c.snapshot_check = true;
    c.snapshot_event = rng.next_u64();
  }
  // Placement-index dimensions: newest draws, appended last (prefix rule).
  c.placement_bucket_index = !rng.bernoulli(0.2);
  if (rng.bernoulli(0.4)) {
    c.placement_index_buckets = static_cast<int>(rng.uniform_int(1, 64));
  }
  if (rng.bernoulli(0.3)) {
    c.comm_memo_slots = static_cast<std::size_t>(rng.uniform_int(1, 16));
  }
  if (rng.bernoulli(0.25)) {
    // Heterogeneous fleet: at least 1 GPU per server, at most the uniform
    // total, so the draw only redistributes.
    c.total_gpus = static_cast<std::size_t>(rng.uniform_int(
        static_cast<int>(c.servers), static_cast<int>(c.servers) * c.gpus_per_server));
    clamp_gpu_request(c);
  }
  if (c.placement_bucket_index && !c.snapshot_check && rng.bernoulli(0.3)) {
    c.index_equivalence_check = true;
  }
  // Prediction-service dimension, drawn after the blocks above (prefix rule).
  c.coarsen_curve = rng.bernoulli(0.2);
  // Link-contention dimensions: newest draws, appended last (prefix rule).
  if (rng.bernoulli(0.35)) {
    c.link_contention = true;
    c.duty_cycles = rng.bernoulli(0.5);
    if (rng.bernoulli(0.5)) c.nic_capacity_mbps = rng.uniform(50.0, 2000.0);
    if (rng.bernoulli(0.5)) c.rack_uplink_capacity_mbps = rng.uniform(25.0, 1000.0);
  }
  // Crash-recovery dimension: newest draws, appended last (prefix rule).
  // Skipped alongside the other multi-engine reruns so the sweep's cost
  // stays linear in the case count.
  if (!c.snapshot_check && !c.index_equivalence_check && rng.bernoulli(0.15)) {
    c.crash_check = true;
    c.crash_event = rng.next_u64();
    c.stream_jobs = static_cast<std::size_t>(rng.uniform_int(0, 3));
  }
  return c;
}

RunRequest to_request(const FuzzCase& c) {
  RunRequest r;
  r.label = "fuzz-" + std::to_string(c.master_seed) + "-" + std::to_string(c.index);
  r.cluster.server_count = c.servers;
  r.cluster.gpus_per_server = c.gpus_per_server;
  r.cluster.servers_per_rack = c.servers_per_rack;
  r.cluster.slow_server_fraction = c.slow_fraction;
  r.cluster.total_gpus = c.total_gpus;
  r.cluster.placement_bucket_index = c.placement_bucket_index;
  r.cluster.placement_index_buckets = c.placement_index_buckets;
  r.cluster.debug_slot_leak = c.inject_slot_leak;
  r.cluster.link_contention = c.link_contention;
  r.cluster.nic_capacity_mbps = c.nic_capacity_mbps;
  r.cluster.rack_uplink_capacity_mbps = c.rack_uplink_capacity_mbps;
  r.cluster.duty_cycles = c.duty_cycles;
  r.engine.seed = c.engine_seed;
  r.engine.max_sim_time = hours(c.max_sim_hours);
  r.engine.straggler_probability = c.straggler_probability;
  r.engine.straggler_replicas = c.straggler_replicas;
  r.engine.fault.server_mtbf_hours = c.server_mtbf_hours;
  r.engine.fault.server_mttr_hours = c.server_mttr_hours;
  r.engine.fault.task_kill_probability = c.task_kill_probability;
  r.engine.fault.rack_mtbf_hours = c.rack_mtbf_hours;
  r.engine.fault.rack_mttr_hours = c.rack_mttr_hours;
  r.engine.fault.checkpoint_interval_iterations = c.checkpoint_interval;
  r.engine.fault.flaky_server_fraction = c.flaky_fraction;
  r.engine.recovery.enabled = c.recovery;
  r.engine.recovery.quarantine_enabled = c.quarantine;
  r.engine.recovery.retry_budget = c.retry_budget;
  r.engine.recovery.adaptive_checkpoint = c.adaptive_checkpoint;
  r.engine.recovery.spread_placement = c.spread_placement;
  r.engine.coarsen_curve = c.coarsen_curve;
  r.engine.audit.enabled = true;
  r.engine.audit.stride = c.audit_stride;
  r.trace.num_jobs = c.num_jobs;
  r.trace.duration_hours = c.duration_hours;
  r.trace.seed = c.trace_seed;
  r.trace.max_gpu_request = c.max_gpu_request;
  r.scheduler = c.scheduler;
  r.mlfs_config.placement.comm_memo_slots = c.comm_memo_slots;
  r.mlfs_config.rl.warmup_samples = c.rl_warmup_samples;
  return r;
}

std::string describe(const FuzzCase& c) {
  std::ostringstream out;
  out << "case " << c.master_seed << "/" << c.index << ": " << c.scheduler << ", "
      << c.num_jobs << " jobs over " << c.duration_hours << "h, " << c.servers << "x"
      << c.gpus_per_server << " GPUs";
  if (c.servers_per_rack > 0) out << ", " << c.servers_per_rack << "/rack";
  if (c.slow_fraction > 0.0) out << ", slow=" << c.slow_fraction;
  if (c.server_mtbf_hours > 0.0) out << ", crash-mtbf=" << c.server_mtbf_hours << "h";
  if (c.task_kill_probability > 0.0) out << ", kills=" << c.task_kill_probability;
  if (c.rack_mtbf_hours > 0.0) out << ", rack-mtbf=" << c.rack_mtbf_hours << "h";
  if (c.straggler_probability > 0.0) out << ", stragglers=" << c.straggler_probability;
  if (c.flaky_fraction > 0.0) out << ", flaky=" << c.flaky_fraction;
  if (c.recovery) {
    out << ", recovery";
    if (!c.quarantine) out << "(no-quarantine)";
    if (c.retry_budget > 0) out << ", retries=" << c.retry_budget;
    if (c.adaptive_checkpoint) out << ", adaptive-ckpt";
    if (c.spread_placement) out << ", spread";
  }
  if (!c.placement_bucket_index) out << ", no-bucket-index";
  if (c.placement_index_buckets != 512) out << ", buckets=" << c.placement_index_buckets;
  if (c.comm_memo_slots != 4096) out << ", memo-slots=" << c.comm_memo_slots;
  if (c.total_gpus > 0) out << ", total-gpus=" << c.total_gpus;
  if (c.index_equivalence_check) out << ", index-equivalence";
  if (c.coarsen_curve) out << ", coarsen-curve";
  if (c.link_contention) {
    out << ", link-contention";
    if (c.duty_cycles) out << "+duty";
    if (c.nic_capacity_mbps != 1000.0) out << ", nic=" << c.nic_capacity_mbps;
    if (c.rack_uplink_capacity_mbps != 600.0) out << ", uplink=" << c.rack_uplink_capacity_mbps;
  }
  if (c.snapshot_check) out << ", snapshot@" << c.snapshot_event;
  if (c.crash_check) {
    out << ", crash@" << c.crash_event;
    if (c.stream_jobs > 0) out << "+" << c.stream_jobs << "streamed";
  }
  if (c.inject_slot_leak) out << ", SLOT-LEAK";
  return out.str();
}

std::string serialize(const FuzzCase& c) {
  std::ostringstream out;
  out.precision(17);
  out << "master_seed=" << c.master_seed << "\n"
      << "index=" << c.index << "\n"
      << "trace_seed=" << c.trace_seed << "\n"
      << "engine_seed=" << c.engine_seed << "\n"
      << "scheduler=" << c.scheduler << "\n"
      << "servers=" << c.servers << "\n"
      << "gpus_per_server=" << c.gpus_per_server << "\n"
      << "servers_per_rack=" << c.servers_per_rack << "\n"
      << "slow_fraction=" << c.slow_fraction << "\n"
      << "num_jobs=" << c.num_jobs << "\n"
      << "duration_hours=" << c.duration_hours << "\n"
      << "max_sim_hours=" << c.max_sim_hours << "\n"
      << "max_gpu_request=" << c.max_gpu_request << "\n"
      << "straggler_probability=" << c.straggler_probability << "\n"
      << "straggler_replicas=" << c.straggler_replicas << "\n"
      << "server_mtbf_hours=" << c.server_mtbf_hours << "\n"
      << "server_mttr_hours=" << c.server_mttr_hours << "\n"
      << "task_kill_probability=" << c.task_kill_probability << "\n"
      << "rack_mtbf_hours=" << c.rack_mtbf_hours << "\n"
      << "rack_mttr_hours=" << c.rack_mttr_hours << "\n"
      << "checkpoint_interval=" << c.checkpoint_interval << "\n"
      << "flaky_fraction=" << c.flaky_fraction << "\n"
      << "recovery=" << (c.recovery ? 1 : 0) << "\n"
      << "quarantine=" << (c.quarantine ? 1 : 0) << "\n"
      << "retry_budget=" << c.retry_budget << "\n"
      << "adaptive_checkpoint=" << (c.adaptive_checkpoint ? 1 : 0) << "\n"
      << "spread_placement=" << (c.spread_placement ? 1 : 0) << "\n"
      << "rl_warmup_samples=" << c.rl_warmup_samples << "\n"
      << "audit_stride=" << c.audit_stride << "\n"
      << "snapshot_check=" << (c.snapshot_check ? 1 : 0) << "\n"
      << "snapshot_event=" << c.snapshot_event << "\n"
      << "placement_bucket_index=" << (c.placement_bucket_index ? 1 : 0) << "\n"
      << "placement_index_buckets=" << c.placement_index_buckets << "\n"
      << "comm_memo_slots=" << c.comm_memo_slots << "\n"
      << "total_gpus=" << c.total_gpus << "\n"
      << "index_equivalence_check=" << (c.index_equivalence_check ? 1 : 0) << "\n"
      << "coarsen_curve=" << (c.coarsen_curve ? 1 : 0) << "\n"
      << "link_contention=" << (c.link_contention ? 1 : 0) << "\n"
      << "duty_cycles=" << (c.duty_cycles ? 1 : 0) << "\n"
      << "nic_capacity_mbps=" << c.nic_capacity_mbps << "\n"
      << "rack_uplink_capacity_mbps=" << c.rack_uplink_capacity_mbps << "\n"
      << "crash_check=" << (c.crash_check ? 1 : 0) << "\n"
      << "crash_event=" << c.crash_event << "\n"
      << "stream_jobs=" << c.stream_jobs << "\n"
      << "inject_slot_leak=" << (c.inject_slot_leak ? 1 : 0) << "\n";
  return out.str();
}

FuzzCase parse_fuzz_case(std::istream& in) {
  FuzzCase c;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw ContractViolation("fuzz case: malformed line (no '='): " + line);
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    const auto fail = [&](const std::string& what) {
      throw ContractViolation("fuzz case line " + std::to_string(line_no) + ": " + what);
    };
    // Every numeric field is a count, a seed or a non-negative knob.
    const auto read = [&](auto& out) {
      using T = std::remove_reference_t<decltype(out)>;
      try {
        out = parse_number<T>(value, key);
      } catch (const ContractViolation& e) {
        fail(e.what());
      }
      if constexpr (std::is_signed_v<T>) {
        if (!(out >= T{0})) fail("field " + key + ": " + value + " must be >= 0");
      }
    };
    const auto flag = [&] {
      if (value != "0" && value != "1" && value != "true" && value != "false") {
        fail("field " + key + ": '" + value + "' is not a flag (0/1/true/false)");
      }
      return value == "1" || value == "true";
    };
    if (key == "master_seed") read(c.master_seed);
    else if (key == "index") read(c.index);
    else if (key == "trace_seed") read(c.trace_seed);
    else if (key == "engine_seed") read(c.engine_seed);
    else if (key == "scheduler") c.scheduler = value;
    else if (key == "servers") read(c.servers);
    else if (key == "gpus_per_server") read(c.gpus_per_server);
    else if (key == "servers_per_rack") read(c.servers_per_rack);
    else if (key == "slow_fraction") read(c.slow_fraction);
    else if (key == "num_jobs") read(c.num_jobs);
    else if (key == "duration_hours") read(c.duration_hours);
    else if (key == "max_sim_hours") read(c.max_sim_hours);
    else if (key == "max_gpu_request") read(c.max_gpu_request);
    else if (key == "straggler_probability") read(c.straggler_probability);
    else if (key == "straggler_replicas") read(c.straggler_replicas);
    else if (key == "server_mtbf_hours") read(c.server_mtbf_hours);
    else if (key == "server_mttr_hours") read(c.server_mttr_hours);
    else if (key == "task_kill_probability") read(c.task_kill_probability);
    else if (key == "rack_mtbf_hours") read(c.rack_mtbf_hours);
    else if (key == "rack_mttr_hours") read(c.rack_mttr_hours);
    else if (key == "checkpoint_interval") read(c.checkpoint_interval);
    else if (key == "flaky_fraction") read(c.flaky_fraction);
    else if (key == "recovery") c.recovery = flag();
    else if (key == "quarantine") c.quarantine = flag();
    else if (key == "retry_budget") read(c.retry_budget);
    else if (key == "adaptive_checkpoint") c.adaptive_checkpoint = flag();
    else if (key == "spread_placement") c.spread_placement = flag();
    else if (key == "rl_warmup_samples") read(c.rl_warmup_samples);
    else if (key == "audit_stride") read(c.audit_stride);
    else if (key == "snapshot_check") c.snapshot_check = flag();
    else if (key == "snapshot_event") read(c.snapshot_event);
    else if (key == "placement_bucket_index") c.placement_bucket_index = flag();
    else if (key == "placement_index_buckets") read(c.placement_index_buckets);
    else if (key == "comm_memo_slots") read(c.comm_memo_slots);
    else if (key == "total_gpus") read(c.total_gpus);
    else if (key == "index_equivalence_check") c.index_equivalence_check = flag();
    else if (key == "coarsen_curve") c.coarsen_curve = flag();
    else if (key == "link_contention") c.link_contention = flag();
    else if (key == "duty_cycles") c.duty_cycles = flag();
    else if (key == "nic_capacity_mbps") read(c.nic_capacity_mbps);
    else if (key == "rack_uplink_capacity_mbps") read(c.rack_uplink_capacity_mbps);
    else if (key == "crash_check") c.crash_check = flag();
    else if (key == "crash_event") read(c.crash_event);
    else if (key == "stream_jobs") read(c.stream_jobs);
    else if (key == "inject_slot_leak") c.inject_slot_leak = flag();
    else throw ContractViolation("fuzz case: unknown key: " + key);
  }
  return c;
}

std::optional<FuzzFailure> run_fuzz_case(const FuzzCase& c, bool check_determinism) {
  const RunRequest request = to_request(c);
  try {
    if (c.snapshot_check) {
      // The restore-equivalence check subsumes a plain audited run (its
      // reference leg) and a determinism check (reference vs restored are
      // two executions of the same request).
      const RestoreCheckResult check = check_restore_equivalence(request, c.snapshot_event);
      if (!check.equivalent) return FuzzFailure{c, "snapshot-restore", check.detail};
      return std::nullopt;
    }
    if (c.crash_check) {
      // Zero-loss crash recovery: crash a journaled durable run at the drawn
      // event index, recover via snapshot + journal replay, and demand
      // byte-identity with the never-crashed streamed reference (which is
      // itself a fully audited run — this leg subsumes the plain case).
      RunRequest streamed = request;
      const std::size_t stream_jobs =
          std::min(c.stream_jobs, c.num_jobs > 0 ? c.num_jobs - 1 : std::size_t{0});
      const auto script = split_streamed_tail(streamed, stream_jobs);
      DurableConfig config;
      config.dir = unique_crash_dir();
      config.snapshot_stride = 128;
      const CrashCheckResult check =
          check_crash_equivalence(streamed, script, c.crash_event, config);
      if (!check.equivalent) return FuzzFailure{c, "crash-zero-loss", check.detail};
      return std::nullopt;
    }
    const RunMetrics first = execute_run(request);
    if (c.index_equivalence_check && c.placement_bucket_index) {
      // Index-vs-scan equivalence: the bucketed funnel must make the exact
      // decisions of the linear one (same event stream) and account for the
      // same linear-candidate population.
      RunRequest scan = request;
      scan.cluster.placement_bucket_index = false;
      const RunMetrics linear = execute_run(scan);
      std::ostringstream diff;
      if (first.event_stream_hash != linear.event_stream_hash) {
        diff << "event_stream_hash " << first.event_stream_hash << " vs "
             << linear.event_stream_hash << "; ";
      }
      if (first.makespan_hours != linear.makespan_hours) diff << "makespan diverged; ";
      if (first.migrations != linear.migrations) diff << "migrations diverged; ";
      if (first.preemptions != linear.preemptions) diff << "preemptions diverged; ";
      if (first.iterations_run != linear.iterations_run) diff << "iterations diverged; ";
      if (first.candidates_linear != linear.candidates_linear) {
        diff << "candidates_linear " << first.candidates_linear << " vs "
             << linear.candidates_linear << "; ";
      }
      if (!diff.str().empty()) {
        return FuzzFailure{c, "index-equivalence",
                           "bucket index vs linear scan: " + diff.str()};
      }
    }
    if (check_determinism) {
      const RunMetrics second = execute_run(request);
      if (!deterministic_equal(first, second)) {
        return FuzzFailure{c, "determinism",
                           "two runs of the same request produced different RunMetrics"};
      }
    }
  } catch (const AuditViolation& v) {
    return FuzzFailure{c, v.report().invariant, v.what()};
  } catch (const std::exception& e) {
    return FuzzFailure{c, "", e.what()};
  }
  return std::nullopt;
}

ShrinkResult shrink_case(const FuzzCase& original, const FuzzFailure& original_failure,
                         int max_rounds) {
  using Transform = void (*)(FuzzCase&);
  static constexpr Transform kTransforms[] = {
      [](FuzzCase& c) { c.num_jobs = std::max<std::size_t>(1, c.num_jobs / 2); },
      [](FuzzCase& c) { if (c.num_jobs > 1) --c.num_jobs; },
      [](FuzzCase& c) {
        c.servers = std::max<std::size_t>(1, c.servers / 2);
        clamp_gpu_request(c);
      },
      [](FuzzCase& c) {
        c.gpus_per_server = std::max(1, c.gpus_per_server / 2);
        clamp_gpu_request(c);
      },
      [](FuzzCase& c) { c.server_mtbf_hours = 0.0; },
      [](FuzzCase& c) { c.task_kill_probability = 0.0; },
      [](FuzzCase& c) {
        c.recovery = false;
        c.retry_budget = 0;
        c.adaptive_checkpoint = false;
        c.spread_placement = false;
      },
      [](FuzzCase& c) { c.quarantine = false; },
      [](FuzzCase& c) { c.retry_budget = 0; },
      [](FuzzCase& c) { c.adaptive_checkpoint = false; },
      [](FuzzCase& c) { c.spread_placement = false; },
      [](FuzzCase& c) { c.flaky_fraction = 0.0; },
      [](FuzzCase& c) { c.rack_mtbf_hours = 0.0; },
      [](FuzzCase& c) { c.servers_per_rack = 0; c.rack_mtbf_hours = 0.0; },
      [](FuzzCase& c) { c.straggler_probability = 0.0; c.straggler_replicas = 0; },
      [](FuzzCase& c) { c.slow_fraction = 0.0; },
      [](FuzzCase& c) { c.checkpoint_interval = 1; },
      [](FuzzCase& c) { c.duration_hours = std::max(0.05, c.duration_hours / 2.0); },
      [](FuzzCase& c) { c.max_sim_hours = std::max(1.0, c.max_sim_hours / 2.0); },
      // Placement-index dimensions shrink toward the uniform defaults; the
      // bucket flag itself stays (flipping it off would dissolve an
      // index-equivalence failure rather than minimize it).
      [](FuzzCase& c) { c.comm_memo_slots = 4096; },
      [](FuzzCase& c) { c.total_gpus = 0; clamp_gpu_request(c); },
      [](FuzzCase& c) { c.placement_index_buckets = std::max(1, c.placement_index_buckets / 2); },
      // Earlier snapshot cuts make a surviving "snapshot-restore" failure
      // easier to replay (fewer pre-snapshot events). The cut index, not
      // the flag, shrinks: dropping snapshot_check would change the failing
      // invariant, so that candidate is always rejected anyway.
      [](FuzzCase& c) { c.snapshot_event /= 2; },
      // The prediction-service dimension shrinks toward the default.
      [](FuzzCase& c) { c.coarsen_curve = false; },
      // Link-contention dimensions shrink toward the defaults. Dropping
      // contention entirely is attempted too, but a "link-model" /
      // "link-share" failure rejects that candidate (the invariants only
      // run while contention is on), so it minimizes duty cycles and
      // capacity skews instead.
      [](FuzzCase& c) { c.duty_cycles = false; },
      [](FuzzCase& c) {
        c.nic_capacity_mbps = 1000.0;
        c.rack_uplink_capacity_mbps = 600.0;
      },
      [](FuzzCase& c) { c.link_contention = false; c.duty_cycles = false; },
      // Crash-recovery dimension: earlier crash points and fewer streamed
      // jobs make a surviving "crash-zero-loss" failure cheaper to replay.
      // The flag itself stays — dropping crash_check would change the
      // failing invariant, so that candidate is always rejected anyway.
      [](FuzzCase& c) { c.crash_event /= 2; },
      [](FuzzCase& c) { if (c.stream_jobs > 0) --c.stream_jobs; },
  };
  ShrinkResult result{original, original_failure, 0, 0};
  const std::string target = original_failure.invariant;
  const bool check_determinism = target == "determinism";
  for (int round = 0; round < max_rounds; ++round) {
    bool accepted_this_round = false;
    for (const Transform transform : kTransforms) {
      FuzzCase candidate = result.minimal;
      transform(candidate);
      if (serialize(candidate) == serialize(result.minimal)) continue;  // no-op transform
      ++result.attempts;
      const std::optional<FuzzFailure> failure = run_fuzz_case(candidate, check_determinism);
      // Accept only when the *same* invariant still fails — shrinking must
      // not wander onto an unrelated bug.
      if (failure && (target.empty() || failure->invariant == target)) {
        result.minimal = candidate;
        result.failure = *failure;
        ++result.accepted;
        accepted_this_round = true;
      }
    }
    if (!accepted_this_round) break;
  }
  return result;
}

FuzzSweepOutcome run_fuzz_sweep(const FuzzSweepOptions& options) {
  const std::vector<std::string> schedulers =
      options.schedulers.empty() ? registered_scheduler_names() : options.schedulers;
  for (const std::string& name : schedulers) {
    MLFS_EXPECT(is_registered_scheduler(name));
  }
  std::vector<FuzzCase> cases(options.runs);
  for (std::size_t i = 0; i < options.runs; ++i) {
    cases[i] = generate_case(options.seed, i, schedulers);
    cases[i].inject_slot_leak = options.inject_slot_leak;
  }

  // Cases run concurrently; results land by index, so the outcome (and the
  // shrink phase below) is independent of the thread count.
  std::vector<std::optional<FuzzFailure>> failures(options.runs);
  std::atomic<std::size_t> cursor{0};
  std::mutex progress_mutex;
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1);
      if (i >= options.runs) return;
      failures[i] = run_fuzz_case(cases[i], options.check_determinism);
      if (options.progress) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        options.progress(i, cases[i], failures[i].has_value());
      }
    }
  };
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned threads = std::max(
      1u, std::min(options.threads == 0 ? (hw == 0 ? 4u : hw) : options.threads,
                   static_cast<unsigned>(options.runs)));
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();

  FuzzSweepOutcome outcome;
  outcome.runs = options.runs;
  for (std::size_t i = 0; i < options.runs; ++i) {
    if (!failures[i]) continue;
    outcome.failures.push_back(shrink_case(cases[i], *failures[i], options.shrink_rounds));
    if (outcome.failures.size() >= options.max_failures) break;
  }
  return outcome;
}

}  // namespace mlfs::exp
