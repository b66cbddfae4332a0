#include "sim/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/expect.hpp"
#include "workload/model_zoo.hpp"

namespace mlfs {

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  MLFS_EXPECT(config_.server_count >= 1);
  MLFS_EXPECT(config_.gpus_per_server >= 1);
  // Non-uniform fleets: distribute total_gpus as evenly as ids allow — the
  // first `extra` servers carry one more GPU than the base.
  std::size_t gpu_base = static_cast<std::size_t>(config_.gpus_per_server);
  std::size_t gpu_extra = 0;
  if (config_.total_gpus > 0) {
    gpu_base = config_.total_gpus / config_.server_count;
    gpu_extra = config_.total_gpus - gpu_base * config_.server_count;
    MLFS_EXPECT(gpu_base >= 1);
  }
  servers_.reserve(config_.server_count);
  const auto slow_from = static_cast<std::size_t>(std::lround(
      static_cast<double>(config_.server_count) * (1.0 - config_.slow_server_fraction)));
  for (std::size_t i = 0; i < config_.server_count; ++i) {
    const double speed = i >= slow_from ? config_.slow_server_speed : 1.0;
    const int gpus = static_cast<int>(gpu_base + (i < gpu_extra ? 1 : 0));
    servers_.emplace_back(static_cast<ServerId>(i), gpus, speed);
  }
  if (config_.link_contention) {
    links_.reset(config_.server_count, config_.servers_per_rack, config_.nic_capacity_mbps,
                 config_.rack_uplink_capacity_mbps);
  }
}

Server& Cluster::server(ServerId id) {
  MLFS_EXPECT(id < servers_.size());
  return servers_[id];
}

const Server& Cluster::server(ServerId id) const {
  MLFS_EXPECT(id < servers_.size());
  return servers_[id];
}

void Cluster::set_server_up(ServerId id, bool up) {
  Server& s = server(id);
  MLFS_EXPECT(s.up() != up);
  // A server may only go down empty: the engine evicts its tasks first,
  // so placement state never dangles onto dead hardware.
  if (!up) MLFS_EXPECT(s.task_count() == 0);
  s.up_ = up;
  touch_server(id);
}

void Cluster::set_placement_cap(ServerId id, int cap) {
  Server& s = server(id);
  MLFS_EXPECT(cap >= -1);
  if (s.placement_cap_ == cap) return;
  s.placement_cap_ = cap;
  touch_server(id);
}

// ------------------------------------------------------ load index

void Cluster::touch_server(ServerId id) const {
  if (!index_valid_ || index_dirty_[id]) return;
  index_dirty_[id] = 1;
  index_dirty_ids_.push_back(id);
}

int Cluster::server_slot_estimate(const Server& s, double hr) {
  int slots = 0;
  for (int g = 0; g < s.gpu_count(); ++g) {
    const double headroom = hr - s.gpu_load(g);
    if (headroom >= kTypicalWorkerDemand) {
      slots += static_cast<int>(headroom / kTypicalWorkerDemand);
    }
  }
  // Recovery-policy placement cap: a quarantined server (cap 0) offers no
  // admission slots, a probation server at most its remaining headcount.
  if (s.placement_cap() >= 0) {
    slots = std::min(slots,
                     std::max(0, s.placement_cap() - static_cast<int>(s.task_count())));
  }
  return slots;
}

void Cluster::refresh_load_index(double hr) const {
  // Sets a partition flag, moving the id into or out of its sorted vector
  // only when the flag flips.
  auto set_member = [](std::vector<char>& flags, std::vector<ServerId>& ids, ServerId id,
                       bool member) {
    if (member == (flags[id] != 0)) return;
    flags[id] = member ? 1 : 0;
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    if (member) {
      ids.insert(it, id);
    } else {
      MLFS_EXPECT(it != ids.end() && *it == id);
      ids.erase(it);
    }
  };

  if (!index_valid_ || hr != index_hr_) {
    // First query, first query after a restore, or a new threshold: start
    // from an empty index with every server dirty.
    const std::size_t n = servers_.size();
    index_hr_ = hr;
    index_dirty_.assign(n, 1);
    index_dirty_ids_.resize(n);
    std::iota(index_dirty_ids_.begin(), index_dirty_ids_.end(), ServerId{0});
    index_overloaded_.assign(n, 0);
    index_underloaded_.assign(n, 0);
    index_slots_.assign(n, 0);
    index_util_.assign(n, ResourceVector{});
    index_least_gpu_.assign(n, 0);
    index_least_load_.assign(n, 0.0);
    index_total_slots_ = 0;
    underloaded_ids_.clear();
    overloaded_ids_.clear();
    index_valid_ = true;
  }

  for (const ServerId id : index_dirty_ids_) {
    index_dirty_[id] = 0;
    const Server& s = servers_[id];
    const bool over = s.up() && s.overloaded(hr);
    set_member(index_overloaded_, overloaded_ids_, id, over);
    set_member(index_underloaded_, underloaded_ids_, id, s.accepts_placements() && !over);
    index_util_[id] = s.utilization();
    const int least = s.least_loaded_gpu();
    index_least_gpu_[id] = least;
    index_least_load_[id] = s.gpu_load(least);
    const int slots = s.up() ? server_slot_estimate(s, hr) : 0;
    index_total_slots_ += slots - index_slots_[id];
    index_slots_[id] = slots;
  }
  index_dirty_ids_.clear();
}

std::size_t Cluster::up_server_count() const {
  std::size_t n = 0;
  for (const Server& s : servers_) {
    if (s.up()) ++n;
  }
  return n;
}

const std::vector<ServerId>& Cluster::underloaded_servers(double hr) const {
  refresh_load_index(hr);
  return underloaded_ids_;
}

const std::vector<ServerId>& Cluster::overloaded_servers(double hr) const {
  refresh_load_index(hr);
  return overloaded_ids_;
}

double Cluster::overload_degree() const {
  double sum = 0.0;
  std::size_t up = 0;
  for (const Server& s : servers_) {
    if (!s.up()) continue;
    sum += s.utilization().norm();
    ++up;
  }
  return up > 0 ? sum / static_cast<double>(up) : 0.0;
}

int Cluster::estimate_free_worker_slots(double hr) const {
  refresh_load_index(hr);
  return static_cast<int>(index_total_slots_);
}

void Cluster::set_job_live(JobId id, bool live) {
  MLFS_EXPECT(id < jobs_.size());
  const auto it = std::lower_bound(live_jobs_.begin(), live_jobs_.end(), id);
  const bool present = it != live_jobs_.end() && *it == id;
  MLFS_EXPECT(present != live);
  if (live) {
    live_jobs_.insert(it, id);
  } else {
    live_jobs_.erase(it);
  }
}

void Cluster::assign_live_jobs(std::vector<JobId> ids) {
  MLFS_EXPECT(std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<>()) == ids.end());
  MLFS_EXPECT(ids.empty() || ids.back() < jobs_.size());
  live_jobs_ = std::move(ids);
}

void Cluster::register_job(Job job, std::vector<Task> tasks) {
  MLFS_EXPECT(job.id() == jobs_.size());  // dense sequential ids
  for (const Task& t : tasks) {
    MLFS_EXPECT(t.id == tasks_.size());
    tasks_.push_back(t);
  }
  if (config_.link_contention) {
    // Duty cycle is a pure function of the model; phase offsets start at 0
    // (fully aligned — the worst case a network-aware scheduler improves).
    links_.set_job_duty_cycle(
        job.id(), config_.duty_cycles ? comm_duty_cycle(job.spec().algorithm) : 1.0);
  }
  jobs_.push_back(std::move(job));
}

Task& Cluster::task(TaskId id) {
  MLFS_EXPECT(id < tasks_.size());
  return tasks_[id];
}

const Task& Cluster::task(TaskId id) const {
  MLFS_EXPECT(id < tasks_.size());
  return tasks_[id];
}

Job& Cluster::job(JobId id) {
  MLFS_EXPECT(id < jobs_.size());
  return jobs_[id];
}

const Job& Cluster::job(JobId id) const {
  MLFS_EXPECT(id < jobs_.size());
  return jobs_[id];
}

void Cluster::place_task(TaskId id, ServerId server_id, int gpu) {
  Task& t = task(id);
  MLFS_EXPECT(!t.placed());
  MLFS_EXPECT(t.state == TaskState::Queued);
  server(server_id).attach_task(t, gpu);
  t.server = server_id;
  t.gpu = gpu;
  t.state = TaskState::Running;
  touch_server(server_id);
  links_.bump_comm_version(t.job);
  refresh_job_flows(t.job);
}

void Cluster::unplace_task(TaskId id) {
  Task& t = task(id);
  MLFS_EXPECT(t.placed());
  server(t.server).detach_task(t, t.gpu);
  if (config_.debug_slot_leak && (++debug_unplace_count_ % 7) == 0) {
    // Self-test bug (see ClusterConfig::debug_slot_leak): re-add the usage
    // the detach just removed, leaving a phantom slot on the server.
    server(t.server).adjust_usage(t, 0.0, t.usage_factor);
  }
  touch_server(t.server);
  links_.bump_comm_version(t.job);
  t.server = kInvalidServer;
  t.gpu = kNoGpu;
  t.state = TaskState::Queued;
  t.usage_factor = 1.0;  // feasibility checks while queued use nominal demand
  refresh_job_flows(t.job);
}

void Cluster::move_task(TaskId id, ServerId to_server, int to_gpu) {
  Task& t = task(id);
  MLFS_EXPECT(t.placed());
  server(t.server).detach_task(t, t.gpu);
  server(to_server).attach_task(t, to_gpu);
  touch_server(t.server);
  touch_server(to_server);
  links_.bump_comm_version(t.job);
  t.server = to_server;
  t.gpu = to_gpu;
  ++t.migrations;
  refresh_job_flows(t.job);
}

bool Cluster::job_fully_placed(const Job& job) const {
  for (const TaskId id : job.tasks()) {
    const Task& t = task(id);
    if (t.state == TaskState::Removed || t.state == TaskState::Finished) continue;
    if (!t.placed()) return false;
  }
  return true;
}

void Cluster::validate() const {
  for (const Server& s : servers_) {
    // A down server must be fully evacuated — any task still attached (or
    // any residual usage) means the crash path leaked placement state.
    if (!s.up()) {
      MLFS_EXPECT(s.task_count() == 0);
      const ResourceVector idle = s.utilization();
      for (std::size_t r = 0; r < kNumResources; ++r) MLFS_EXPECT(idle.at(r) < 1e-9);
    }
    ResourceVector cpu_mem_net;
    std::vector<double> gpu_sums(static_cast<std::size_t>(s.gpu_count()), 0.0);
    std::size_t counted = 0;
    for (int g = 0; g < s.gpu_count(); ++g) {
      for (const TaskId tid : s.tasks_on_gpu(g)) {
        const Task& t = task(tid);
        MLFS_EXPECT(t.server == s.id());
        MLFS_EXPECT(t.gpu == g);
        MLFS_EXPECT(t.state == TaskState::Running);
        const ResourceVector usage = t.demand * t.usage_factor;
        cpu_mem_net[Resource::Cpu] += usage[Resource::Cpu];
        cpu_mem_net[Resource::Mem] += usage[Resource::Mem];
        cpu_mem_net[Resource::Net] += usage[Resource::Net];
        gpu_sums[static_cast<std::size_t>(g)] += usage[Resource::Gpu];
        ++counted;
      }
    }
    MLFS_EXPECT(counted == s.task_count());
    const ResourceVector cached = s.utilization();
    MLFS_EXPECT(std::abs(cached[Resource::Cpu] - cpu_mem_net[Resource::Cpu]) < 1e-6);
    MLFS_EXPECT(std::abs(cached[Resource::Mem] - cpu_mem_net[Resource::Mem]) < 1e-6);
    MLFS_EXPECT(std::abs(cached[Resource::Net] - cpu_mem_net[Resource::Net]) < 1e-6);
    for (int g = 0; g < s.gpu_count(); ++g) {
      MLFS_EXPECT(std::abs(s.gpu_load(g) - gpu_sums[static_cast<std::size_t>(g)]) < 1e-6);
    }
  }
  // Every placed task appears on its server, and that server is up.
  for (const Task& t : tasks_) {
    if (!t.placed()) continue;
    MLFS_EXPECT(server(t.server).up());
    const auto& on_gpu = server(t.server).tasks_on_gpu(t.gpu);
    MLFS_EXPECT(std::find(on_gpu.begin(), on_gpu.end(), t.id) != on_gpu.end());
  }
}

void Cluster::set_usage_factor(TaskId id, double factor) {
  Task& t = task(id);
  const double old_factor = t.usage_factor;
  t.usage_factor = factor;
  if (t.placed()) {
    server(t.server).adjust_usage(t, old_factor, factor);
    touch_server(t.server);
  }
}

void Cluster::record_transfer(ServerId a, ServerId b, double mb) {
  MLFS_EXPECT(mb >= 0.0);
  if (a == b) return;
  total_bandwidth_mb_ += mb;
  if (crosses_racks(a, b)) inter_rack_bandwidth_mb_ += mb;
  ++transfer_count_;
}

int Cluster::rack_of(ServerId id) const {
  MLFS_EXPECT(id < servers_.size());
  if (config_.servers_per_rack <= 0) return 0;
  return static_cast<int>(id) / config_.servers_per_rack;
}

bool Cluster::crosses_racks(ServerId a, ServerId b) const {
  if (config_.servers_per_rack <= 0) return false;
  return rack_of(a) != rack_of(b);
}

double Cluster::flow_bandwidth_between(ServerId a, ServerId b) const {
  return crosses_racks(a, b) ? config_.inter_rack_flow_bandwidth_mbps
                             : config_.effective_flow_bandwidth_mbps;
}

// ---------------------------------------------------- link contention

std::vector<LinkModel::Flow> Cluster::compute_job_flows(JobId id) const {
  MLFS_EXPECT(id < jobs_.size());
  std::vector<LinkModel::Flow> flows;
  const Job& j = jobs_[id];
  const Dag& dag = j.dag();
  // DAG edges whose endpoints sit on different servers — the same edges
  // SimEngine::iteration_duration charges cross-server communication for.
  for (std::size_t u = 0; u < dag.node_count(); ++u) {
    const Task& t = tasks_[j.task_at(u)];
    if (t.state == TaskState::Finished || t.state == TaskState::Removed || !t.placed()) continue;
    for (const std::size_t p : dag.parents(u)) {
      const Task& pt = tasks_[j.task_at(p)];
      if (pt.placed() && pt.server != t.server) flows.push_back({pt.server, t.server});
    }
  }
  if (j.spec().comm == CommStructure::AllReduce) {
    // Cross-server hops of the worker ring (iteration-end all-reduce).
    const std::size_t n = j.task_count();
    for (std::size_t i = 0; i < n; ++i) {
      const Task& a = tasks_[j.task_at(i)];
      const Task& b = tasks_[j.task_at((i + 1) % n)];
      if (a.placed() && b.placed() && a.server != b.server) {
        flows.push_back({a.server, b.server});
      }
    }
  }
  return flows;
}

void Cluster::refresh_job_flows(JobId id) {
  if (!config_.link_contention) return;
  links_.update_job_flows(id, compute_job_flows(id));
}

bool Cluster::set_phase_offset(JobId id, double offset) {
  if (!config_.link_contention) return false;
  MLFS_EXPECT(id < jobs_.size());
  return links_.set_phase_offset(id, offset);
}

// ------------------------------------------------------- snapshot

void Cluster::save_state(io::BinWriter& w) const {
  w.u64(servers_.size());
  for (const Server& s : servers_) s.save_state(w);

  w.u64(tasks_.size());
  for (const Task& t : tasks_) {
    w.u8(static_cast<std::uint8_t>(t.state));
    w.u64(t.server);
    w.i64(t.gpu);
    w.f64(t.queued_since);
    w.f64(t.total_waiting);
    w.i64(t.migrations);
    w.f64(t.usage_bias);
    w.f64(t.usage_factor);
    w.f64(t.pending_penalty_seconds);
  }

  w.u64(jobs_.size());
  for (const Job& j : jobs_) j.save_state(w);

  w.f64(total_bandwidth_mb_);
  w.f64(inter_rack_bandwidth_mb_);
  w.u64(transfer_count_);
  w.u64(debug_unplace_count_);
}

void Cluster::restore_state(io::BinReader& r, std::uint32_t version) {
  // The load index caches the state about to be overwritten; the first
  // query after the restore rebuilds it, even if the restore throws.
  index_valid_ = false;

  const std::uint64_t server_count = r.u64();
  MLFS_EXPECT(server_count == servers_.size());  // fingerprint-matched config
  for (Server& s : servers_) s.restore_state(r);

  const std::uint64_t task_count = r.u64();
  MLFS_EXPECT(task_count == tasks_.size());
  for (Task& t : tasks_) {
    t.state = io::read_enum<TaskState>(r);
    t.server = static_cast<ServerId>(r.u64());
    t.gpu = static_cast<int>(r.i64());
    t.queued_since = r.f64();
    t.total_waiting = r.f64();
    t.migrations = static_cast<int>(r.i64());
    t.usage_bias = r.f64();
    t.usage_factor = r.f64();
    t.pending_penalty_seconds = r.f64();
  }

  const std::uint64_t job_count = r.u64();
  MLFS_EXPECT(job_count == jobs_.size());
  for (Job& j : jobs_) {
    if (version == 5) {
      j.restore_v5_state(r);
    } else {
      j.restore_state(r);
    }
  }

  total_bandwidth_mb_ = r.f64();
  inter_rack_bandwidth_mb_ = r.f64();
  transfer_count_ = static_cast<std::size_t>(r.u64());
  if (version <= 6) (void)r.u64();  // the global placement epoch, dropped in v7
  if (version <= 9) (void)r.vec_u64();  // per-job placement epochs, dropped in v10
  debug_unplace_count_ = static_cast<std::size_t>(r.u64());
  // Up to v8 the load index followed, written wholesale (and before v8 the
  // removed placement index's five counters): derived state, skipped.
  if (version <= 8) (void)r.view(r.remaining());
  MLFS_EXPECT(r.at_end());
}

}  // namespace mlfs
