#include "sim/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

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

int Cluster::server_slot_estimate(const Server& s, double hr, double typical_demand) {
  int slots = 0;
  for (int g = 0; g < s.gpu_count(); ++g) {
    const double headroom = hr - s.gpu_load(g);
    if (headroom >= typical_demand) {
      slots += static_cast<int>(headroom / typical_demand);
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

void Cluster::refresh_load_index(double hr, double typical_demand) const {
  auto insert_sorted = [](std::vector<ServerId>& v, ServerId id) {
    v.insert(std::lower_bound(v.begin(), v.end(), id), id);
  };
  auto erase_sorted = [](std::vector<ServerId>& v, ServerId id) {
    const auto it = std::lower_bound(v.begin(), v.end(), id);
    MLFS_EXPECT(it != v.end() && *it == id);
    v.erase(it);
  };

  if (!index_valid_ || hr != index_hr_ || typical_demand != index_demand_) {
    // First query, or the query key changed: evaluate the whole fleet.
    ++index_stats_.full_rebuilds;
    index_stats_.servers_reindexed += servers_.size();
    index_hr_ = hr;
    index_demand_ = typical_demand;
    index_dirty_.assign(servers_.size(), 0);
    index_dirty_ids_.clear();
    index_overloaded_.assign(servers_.size(), 0);
    index_underloaded_.assign(servers_.size(), 0);
    index_slots_.assign(servers_.size(), 0);
    index_util_.assign(servers_.size(), ResourceVector{});
    index_least_gpu_.assign(servers_.size(), 0);
    index_least_load_.assign(servers_.size(), 0.0);
    index_total_slots_ = 0;
    underloaded_ids_.clear();
    overloaded_ids_.clear();
    for (const Server& s : servers_) {
      const bool over = s.up() && s.overloaded(hr);
      const bool under = s.accepts_placements() && !over;
      index_overloaded_[s.id()] = over ? 1 : 0;
      index_underloaded_[s.id()] = under ? 1 : 0;
      if (over) overloaded_ids_.push_back(s.id());
      if (under) underloaded_ids_.push_back(s.id());
      index_util_[s.id()] = s.utilization();
      const int least = s.least_loaded_gpu();
      index_least_gpu_[s.id()] = least;
      index_least_load_[s.id()] = s.gpu_load(least);
      const int slots = s.up() ? server_slot_estimate(s, hr, typical_demand) : 0;
      index_slots_[s.id()] = slots;
      index_total_slots_ += slots;
    }
    index_valid_ = true;
    return;
  }

  if (index_dirty_ids_.empty()) return;
  ++index_stats_.refreshes;
  for (const ServerId id : index_dirty_ids_) {
    index_dirty_[id] = 0;
    const Server& s = servers_[id];
    const bool over = s.up() && s.overloaded(hr);
    const bool under = s.accepts_placements() && !over;
    const ResourceVector util = s.utilization();
    const int least = s.least_loaded_gpu();
    const double least_load = s.gpu_load(least);
    const int slots = s.up() ? server_slot_estimate(s, hr, typical_demand) : 0;
    // Compare-and-skip: placement churn (e.g. a gang placed and rolled
    // back between refreshing queries) dirties servers whose state nets
    // back to the exact same doubles. Recomputing is unavoidable — the
    // dirty bit only says "maybe changed" — but identical state needs no
    // partition surgery, and counting it as a reindex made
    // `servers_reindexed` grow ~45x faster than scheduling rounds.
    if (over == (index_overloaded_[id] != 0) && under == (index_underloaded_[id] != 0) &&
        slots == index_slots_[id] && least == index_least_gpu_[id] &&
        least_load == index_least_load_[id] && util[Resource::Gpu] == index_util_[id][Resource::Gpu] &&
        util[Resource::Cpu] == index_util_[id][Resource::Cpu] &&
        util[Resource::Mem] == index_util_[id][Resource::Mem] &&
        util[Resource::Net] == index_util_[id][Resource::Net]) {
      ++index_stats_.noop_reindexes;
      continue;
    }
    ++index_stats_.servers_reindexed;
    index_util_[id] = util;
    index_least_gpu_[id] = least;
    index_least_load_[id] = least_load;
    index_total_slots_ += slots - index_slots_[id];
    index_slots_[id] = slots;
    if (over != (index_overloaded_[id] != 0)) {
      if (over) insert_sorted(overloaded_ids_, id);
      else erase_sorted(overloaded_ids_, id);
      index_overloaded_[id] = over ? 1 : 0;
    }
    if (under != (index_underloaded_[id] != 0)) {
      if (under) insert_sorted(underloaded_ids_, id);
      else erase_sorted(underloaded_ids_, id);
      index_underloaded_[id] = under ? 1 : 0;
    }
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
  refresh_load_index(hr, index_demand_);
  return underloaded_ids_;
}

const std::vector<ServerId>& Cluster::overloaded_servers(double hr) const {
  refresh_load_index(hr, index_demand_);
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

int Cluster::estimate_free_worker_slots(double hr, double typical_demand) const {
  refresh_load_index(hr, typical_demand);
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
  job_placement_epochs_.push_back(0);
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
  ++job_placement_epochs_[t.job];
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
  ++job_placement_epochs_[t.job];
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
  ++job_placement_epochs_[t.job];
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

namespace {

void write_resource_vector(io::BinWriter& w, const ResourceVector& v) {
  for (std::size_t r = 0; r < kNumResources; ++r) w.f64(v.at(r));
}

ResourceVector read_resource_vector(io::BinReader& r) {
  ResourceVector v;
  for (std::size_t i = 0; i < kNumResources; ++i) v.at(i) = r.f64();
  return v;
}

void write_id_vector(io::BinWriter& w, const std::vector<ServerId>& ids) {
  w.vec(ids, [&w](ServerId id) { w.u64(id); });
}

std::vector<ServerId> read_id_vector(io::BinReader& r) {
  return r.vec<ServerId>([&r] { return static_cast<ServerId>(r.u64()); });
}

}  // namespace

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
  w.vec(job_placement_epochs_, [&w](std::uint64_t e) { w.u64(e); });
  w.u64(debug_unplace_count_);

  // Lazy load index, wholesale: restoring "invalid, rebuild on first use"
  // instead would change the full_rebuilds/refreshes trajectory and break
  // bit-identical RunMetrics.
  w.boolean(index_valid_);
  w.f64(index_hr_);
  w.f64(index_demand_);
  w.vec(index_dirty_, [&w](char c) { w.u8(static_cast<std::uint8_t>(c)); });
  write_id_vector(w, index_dirty_ids_);
  w.vec(index_overloaded_, [&w](char c) { w.u8(static_cast<std::uint8_t>(c)); });
  w.vec(index_underloaded_, [&w](char c) { w.u8(static_cast<std::uint8_t>(c)); });
  w.vec(index_slots_, [&w](int v) { w.i64(v); });
  w.u64(index_util_.size());
  for (const ResourceVector& v : index_util_) write_resource_vector(w, v);
  w.vec(index_least_gpu_, [&w](int v) { w.i64(v); });
  w.vec_f64(index_least_load_);
  w.i64(index_total_slots_);
  write_id_vector(w, underloaded_ids_);
  write_id_vector(w, overloaded_ids_);
  io::write_fields(w, index_stats_);
}

void Cluster::restore_state(io::BinReader& r, std::uint32_t version) {
  const std::uint64_t server_count = r.u64();
  MLFS_EXPECT(server_count == servers_.size());  // fingerprint-matched config
  for (Server& s : servers_) s.restore_state(r);

  const std::uint64_t task_count = r.u64();
  MLFS_EXPECT(task_count == tasks_.size());
  for (Task& t : tasks_) {
    t.state = static_cast<TaskState>(r.u8());
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
    try {
      if (version == 5) {
        j.restore_v5_state(r);
      } else {
        j.restore_state(r);
      }
    } catch (const ContractViolation& e) {
      throw SnapshotError("cluster", r.pos(), e.what());
    }
  }

  total_bandwidth_mb_ = r.f64();
  inter_rack_bandwidth_mb_ = r.f64();
  transfer_count_ = static_cast<std::size_t>(r.u64());
  if (version <= 6) (void)r.u64();  // the global placement epoch, dropped in v7
  job_placement_epochs_ = r.vec<std::uint64_t>([&r] { return r.u64(); });
  MLFS_EXPECT(job_placement_epochs_.size() == jobs_.size());
  debug_unplace_count_ = static_cast<std::size_t>(r.u64());

  index_valid_ = r.boolean();
  index_hr_ = r.f64();
  index_demand_ = r.f64();
  index_dirty_ = r.vec<char>([&r] { return static_cast<char>(r.u8()); });
  index_dirty_ids_ = read_id_vector(r);
  index_overloaded_ = r.vec<char>([&r] { return static_cast<char>(r.u8()); });
  index_underloaded_ = r.vec<char>([&r] { return static_cast<char>(r.u8()); });
  index_slots_ = r.vec<int>([&r] { return static_cast<int>(r.i64()); });
  const std::uint64_t util_count = r.u64();
  index_util_.clear();
  index_util_.reserve(static_cast<std::size_t>(util_count));
  for (std::uint64_t i = 0; i < util_count; ++i) index_util_.push_back(read_resource_vector(r));
  index_least_gpu_ = r.vec<int>([&r] { return static_cast<int>(r.i64()); });
  index_least_load_ = r.vec_f64();
  index_total_slots_ = static_cast<long long>(r.i64());
  underloaded_ids_ = read_id_vector(r);
  overloaded_ids_ = read_id_vector(r);
  io::read_fields(r, index_stats_);
  // The placement index's five query counters, dropped in v8.
  if (version <= 7) (void)r.view(5 * sizeof(std::uint64_t));
}

}  // namespace mlfs
