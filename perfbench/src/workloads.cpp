#include "workloads.hpp"

#include <memory>
#include <stdexcept>

#include "workload/trace.hpp"

namespace perfbench {

namespace {

// Sizes: one repetition simulates for several host seconds, and the
// cost and outcomes of a run move little from seed to seed (see README,
// "Steadiness", for the loads that were tried and rejected).
constexpr std::size_t kPhillyJobs = 2500;
constexpr double kPhillyHours = 2.0;
constexpr std::size_t kRackJobs = 3000;
constexpr double kTwoWeeksHours = 24.0 * 14;
constexpr std::size_t kDurableJobs = 2480;  // 2x the §4.1 testbed's 620 jobs/week
constexpr std::uint64_t kSnapshotStride = 5000;

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "philly-mlfh") return Workload::PhillyMlfh;
  if (name == "rack-contended-cassini") return Workload::RackContendedCassini;
  if (name == "stream-durable-mlfs") return Workload::StreamDurableMlfs;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string workload_name(Workload w) {
  switch (w) {
    case Workload::PhillyMlfh: return "philly-mlfh";
    case Workload::RackContendedCassini: return "rack-contended-cassini";
    case Workload::StreamDurableMlfs: return "stream-durable-mlfs";
  }
  return "?";
}

mlfs::exp::RunRequest make_request(Workload w, std::uint64_t seed) {
  mlfs::exp::RunRequest r;
  r.label = workload_name(w);
  r.trace.seed = seed;
  switch (w) {
    case Workload::PhillyMlfh:
      // The Philly footprint under 1250 arrivals/h, faster than
      // bench_largescale's smoke point (750/h), so that the backlog, and
      // with it the scheduler's work, persists whatever the seed.
      r.cluster.server_count = 550;
      r.cluster.total_gpus = 2474;
      r.trace.num_jobs = kPhillyJobs;
      r.trace.duration_hours = kPhillyHours;
      r.trace.max_gpu_request = 32;
      r.engine.seed = seed ^ 0xbeef;
      r.scheduler = "MLF-H";
      r.mlfs_config.heuristic_only = true;
      break;
    case Workload::RackContendedCassini:
      // Link contention on a racked fleet: racks of 4 behind 600 MB/s
      // uplinks, 800 MB/s NICs, duty cycles on, gangs of at most one rack,
      // at 0.75x the testbed's jobs-per-GPU density. (Overload, 120 MB/s
      // uplinks or 32-GPU gangs make cost and outcomes swing 2-4x from
      // seed to seed; see README.)
      r.cluster.server_count = 64;
      r.cluster.gpus_per_server = 4;
      r.cluster.servers_per_rack = 4;
      r.cluster.link_contention = true;
      r.cluster.nic_capacity_mbps = 800.0;
      r.cluster.rack_uplink_capacity_mbps = 600.0;
      r.cluster.duty_cycles = true;
      r.trace.num_jobs = kRackJobs;
      r.trace.duration_hours = kTwoWeeksHours;
      r.trace.max_gpu_request = 16;
      r.engine.seed = seed ^ 0xca55;
      r.scheduler = "Cassini";
      break;
    case Workload::StreamDurableMlfs:
      // The §4.1 80-GPU testbed at twice its base load.
      r.cluster.server_count = 20;
      r.cluster.gpus_per_server = 4;
      r.trace.num_jobs = kDurableJobs;
      r.trace.duration_hours = kTwoWeeksHours;
      r.engine.seed = seed ^ 0xfeed;
      r.scheduler = "MLFS";
      break;
  }
  return r;
}

Inputs generate_inputs(Workload w, std::uint64_t seed) {
  Inputs in;
  in.request = make_request(w, seed);
  in.request.workload = std::make_shared<const std::vector<mlfs::JobSpec>>(
      mlfs::PhillyTraceGenerator(in.request.trace).generate());
  if (w == Workload::StreamDurableMlfs) {
    in.script = mlfs::exp::split_streamed_tail(in.request, in.request.workload->size() / 2);
  }
  return in;
}

mlfs::exp::DurableConfig durable_config(const std::string& dir) {
  mlfs::exp::DurableConfig c;
  c.dir = dir;
  c.snapshot_stride = kSnapshotStride;
  c.snapshot_keep = 0;
  c.fsync = mlfs::FsyncPolicy::Off;
  return c;
}

}  // namespace perfbench
