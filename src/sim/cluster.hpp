// The cluster: the server fleet plus the global task and job pools, the
// placement API, and the bandwidth-cost ledger. Everything the schedulers
// read and mutate lives here; the engine drives time on top of it.
#pragma once

#include <span>
#include <vector>

#include "common/binio.hpp"
#include "sim/link_model.hpp"
#include "sim/server.hpp"
#include "sim/snapshot.hpp"
#include "workload/job.hpp"

namespace mlfs {

struct ClusterConfig {
  std::size_t server_count = 20;
  int gpus_per_server = 4;
  /// NIC line rate per server (MB/s); used for migration state transfers
  /// and the bandwidth ledger's accounting basis.
  double server_bandwidth_mbps = 1000.0;

  /// Effective per-flow share of the NIC under the contention of many
  /// concurrent training flows (MB/s); converts per-iteration
  /// communication volumes into critical-path seconds. The paper's
  /// premise — "communication overhead between GPUs is 970MB-3168MB per
  /// mini-batch" — is that this is a first-order cost, which is what
  /// makes communication-aware placement (§3.3.2) matter.
  double effective_flow_bandwidth_mbps = 500.0;

  // --- extensions beyond the paper (its §5 limitations / §6 future work) -

  /// Rack topology: servers_per_rack > 0 groups consecutive servers into
  /// racks; flows crossing racks traverse the oversubscribed core and get
  /// the slower share below. 0 = flat network (the paper's model).
  int servers_per_rack = 0;
  double inter_rack_flow_bandwidth_mbps = 150.0;

  /// GPU heterogeneity: fraction of servers equipped with older GPUs that
  /// run compute at `slow_server_speed` (< 1). Assignment is
  /// deterministic: the *last* ceil(fraction × N) servers are slow.
  double slow_server_fraction = 0.0;
  double slow_server_speed = 0.5;

  /// Deliberate slot-conservation bug for auditor self-tests: every 7th
  /// unplace leaks the departing task's usage back onto its server, so the
  /// cached usage sums drift from the task pool exactly the way a real
  /// bookkeeping bug would. The run still completes without auditing; with
  /// EngineConfig::audit on, SimAuditor must catch it ("server-usage") and
  /// the fuzz harness must shrink it (see tests/prop). Never enable
  /// outside tests.
  bool debug_slot_leak = false;

  /// Non-uniform fleets (e.g. the Philly footprint: 550 servers / 2474
  /// GPUs): when > 0, overrides `gpus_per_server` and distributes this many
  /// GPUs across the fleet — base = total/count everywhere, with the first
  /// total - base*count servers getting one extra. 0 = uniform fleet.
  /// (Kept after every pre-existing field so positional ClusterConfig
  /// initializers stay valid; append new fields below only.)
  std::size_t total_gpus = 0;

  // --- link-level contention (sim/link_model.hpp, DESIGN.md §5e) ---------

  /// Opt-in link-level bandwidth contention: per-server NIC links and
  /// per-rack uplinks divide capacity fairly among the flows concurrently
  /// active on them, so concurrent gangs sharing a link slow each other
  /// down. Default off: flow bandwidths stay the static per-flow values
  /// above and the link model is never consulted — runs are bitwise
  /// identical to a build without the feature.
  bool link_contention = false;
  /// Per-server NIC link capacity (MB/s); <= 0 = unconstrained NICs.
  double nic_capacity_mbps = 1000.0;
  /// Per-rack uplink capacity (MB/s); <= 0 = unconstrained uplinks. Only
  /// meaningful when `servers_per_rack` > 0 (a flat network has no
  /// uplinks). The default oversubscribes: one uplink carries what four
  /// uncontended inter-rack flows would ask for.
  double rack_uplink_capacity_mbps = 600.0;
  /// Opt-in compute/communicate duty cycles (requires `link_contention`):
  /// each job only occupies its links during its communication window —
  /// ModelZoo's per-model duty cycle, at a phase offset a network-aware
  /// scheduler may set — so anti-phased gangs stop contending. Off = flows
  /// count as always-on (phase offsets are ignored).
  bool duty_cycles = false;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  const ClusterConfig& config() const { return config_; }

  // -- servers --
  std::size_t server_count() const { return servers_.size(); }

  /// Rack index of a server (0 when the network is flat).
  int rack_of(ServerId id) const;
  /// True iff the two servers are in different racks (always false when
  /// the topology is flat).
  bool crosses_racks(ServerId a, ServerId b) const;
  /// Effective flow bandwidth between two distinct servers (MB/s),
  /// honoring the rack topology.
  double flow_bandwidth_between(ServerId a, ServerId b) const;
  Server& server(ServerId id);
  const Server& server(ServerId id) const;
  const std::vector<Server>& servers() const { return servers_; }

  /// Marks a server up or down (fault-injection subsystem). Taking a
  /// server down requires it to host no tasks — the engine evicts them
  /// first; bringing one up requires it to be down. A down server is
  /// excluded from every placement query below and rejects placements.
  void set_server_up(ServerId id, bool up);
  /// Servers currently up (== server_count() when faults are disabled).
  std::size_t up_server_count() const;

  /// Sets a server's recovery-policy placement cap (-1 = unrestricted,
  /// 0 = quarantined, k > 0 = probation; see sim/health.hpp). Existing
  /// tasks are unaffected — the cap only gates new admissions via
  /// Server::accepts_placements.
  void set_placement_cap(ServerId id, int cap);

  /// Placement-eligible (accepts_placements) server ids currently not
  /// overloaded w.r.t. `hr`, ascending. With all placement caps at the
  /// default -1 this is exactly "up and not overloaded". Served by
  /// reference from the incremental load index (see DESIGN.md, "Scheduler
  /// hot path"); valid until the next cluster mutation — copy it before
  /// placing, unplacing or moving tasks while iterating.
  const std::vector<ServerId>& underloaded_servers(double hr) const;
  /// Up server ids overloaded w.r.t. `hr`, ascending (quarantined servers
  /// stay visible here: overload relief must still drain them). Same
  /// reference semantics as underloaded_servers.
  const std::vector<ServerId>& overloaded_servers(double hr) const;

  /// Utilization of `id` as of the last index refresh — bit-identical to
  /// server(id).utilization() because every usage-sum mutation (attach/
  /// detach/adjust/up-down) marks the server dirty and the refresh
  /// recomputes it. Call only after a refreshing query in the same
  /// mutation-free window (underloaded_servers performs one).
  const ResourceVector& cached_utilization(ServerId id) const { return index_util_[id]; }

  /// Least-loaded GPU of `id` (and its load) as of the last index refresh —
  /// same argmin and first-wins tie-break as Server::least_loaded_gpu, so on
  /// a clean server these are bit-identical to the live computation. The
  /// placement hot path uses them for its common-case feasibility check.
  int cached_least_gpu(ServerId id) const { return index_least_gpu_[id]; }
  double cached_least_gpu_load(ServerId id) const { return index_least_load_[id]; }

  /// Per-job communication version: bumped on every place, unplace or move
  /// of one of the job's tasks and, with link contention on, whenever a
  /// link the job is registered on changes (see LinkModel). A plan of the
  /// job's communication built at one version holds until the next bump,
  /// and so does a placement comm-memo entry: a task's communication
  /// volumes depend only on where its own job's peers sit. Derived state:
  /// not saved, so it only compares within one process.
  std::uint64_t comm_version(JobId id) const { return links_.comm_version(id); }

  /// Cluster overload degree O_c = mean_s ||U_s|| over up servers (§3.5).
  double overload_degree() const;

  /// GPU demand of the typical worker task that estimate_free_worker_slots
  /// counts.
  static constexpr double kTypicalWorkerDemand = 0.45;
  /// Cheap upper-bound estimate of how many typical worker tasks (GPU
  /// demand ~kTypicalWorkerDemand) could still be placed under threshold
  /// `hr`. Used to fail doomed gang placements fast under sustained
  /// overload.
  int estimate_free_worker_slots(double hr) const;

  // -- task & job pools --
  /// Registers instantiated job + tasks; task ids must be contiguous and
  /// equal to the current pool size (ModelZoo::instantiate contract).
  void register_job(Job job, std::vector<Task> tasks);

  std::size_t task_count() const { return tasks_.size(); }
  Task& task(TaskId id);
  const Task& task(TaskId id) const;

  std::size_t job_count() const { return jobs_.size(); }
  Job& job(JobId id);
  const Job& job(JobId id) const;
  std::vector<Job>& jobs() { return jobs_; }
  const std::vector<Job>& jobs() const { return jobs_; }

  /// The live job set: jobs whose Arrival event has been handled and that
  /// are not terminal (Completed/Failed), ascending by id. Per-tick walks
  /// (engine, the RL reward, schedulers) read this instead of jobs(), so
  /// their cost tracks the jobs in the system, not every job ever
  /// submitted. Only the engine mutates it: set_job_live(id, true) on
  /// arrival, set_job_live(id, false) on completion or failure, and
  /// assign_live_jobs after a snapshot restore. The span is invalidated by
  /// the next mutation.
  std::span<const JobId> live_jobs() const { return live_jobs_; }
  /// Inserts (live) or erases (!live) `id`, keeping ascending order.
  void set_job_live(JobId id, bool live);
  /// Replaces the set wholesale; `ids` must be strictly ascending.
  void assign_live_jobs(std::vector<JobId> ids);

  // -- placement --
  /// Places a queued task; requires it unplaced and gpu valid.
  void place_task(TaskId id, ServerId server, int gpu);
  /// Removes a placed task from its server (state -> Queued).
  void unplace_task(TaskId id);
  /// Atomic move between GPUs/servers; keeps the task Running.
  void move_task(TaskId id, ServerId to_server, int to_gpu);

  /// True iff every task of the job is placed (gang condition for an
  /// iteration to run).
  bool job_fully_placed(const Job& job) const;

  /// Updates a task's usage fluctuation factor, keeping its host server's
  /// cached usage sums consistent when the task is placed.
  void set_usage_factor(TaskId id, double factor);

  /// Full consistency audit: recomputes every server's usage sums and
  /// task lists from the task pool and checks they match the incremental
  /// state (throws ContractViolation on divergence). O(tasks); meant for
  /// tests and debugging, not the hot path.
  void validate() const;

  // -- link contention (ClusterConfig::link_contention) --
  /// The link-level contention model. Flow sets track current placements
  /// (maintained by place/unplace/move); empty and never consulted when
  /// the feature is off, apart from the communication versions.
  const LinkModel& link_model() const { return links_; }

  /// `job`'s cross-server flows under current placements — DAG edges whose
  /// endpoints sit on different servers plus, for all-reduce jobs, the
  /// cross-server hops of the worker ring. Pure function of placement
  /// state; the auditor recomputes it from scratch to check the
  /// incremental link bookkeeping.
  std::vector<LinkModel::Flow> compute_job_flows(JobId id) const;

  /// Sets a job's communication-phase offset (CASSINI interleaving).
  /// Returns true iff the offset changed; no-op (false) with contention off.
  bool set_phase_offset(JobId id, double offset);

  // -- bandwidth ledger --
  /// Records `mb` transferred between two servers; intra-server transfers
  /// are free and not recorded.
  void record_transfer(ServerId a, ServerId b, double mb);

  /// Snapshot support (sim/snapshot.hpp): serializes/restores every
  /// dynamic field — per-server placement state, per-task dynamic fields,
  /// per-job progress, the bandwidth ledger and the unplace counter, which
  /// ends the section. The load index is derived state and is not written:
  /// restore leaves it invalid, and the first query rebuilds it from the
  /// restored servers. Static structure (configs, specs, DAGs) is not
  /// written; the restoring cluster must have been built from the same
  /// configuration. `version` is the snapshot file's: v5 job records carry
  /// the loss history, which is checked against each job's curve; a v5–v8
  /// section's load-index tail is skipped, and a v9 section must end at the
  /// unplace counter. A count, enum byte or record that fails its checks
  /// throws ContractViolation, which the engine reports as
  /// SnapshotError("cluster").
  void save_state(io::BinWriter& w) const;
  void restore_state(io::BinReader& r, std::uint32_t version = kSnapshotVersion);

  /// Snapshot hooks for the link-contention state (the snapshot's "links"
  /// section, written only when ClusterConfig::link_contention is on).
  void save_link_state(io::BinWriter& w) const { links_.save_state(w); }
  void restore_link_state(io::BinReader& r) { links_.restore_state(r); }

  double total_bandwidth_mb() const { return total_bandwidth_mb_; }
  /// Portion of the ledger that crossed rack boundaries (== 0 when flat).
  double inter_rack_bandwidth_mb() const { return inter_rack_bandwidth_mb_; }
  std::size_t transfer_count() const { return transfer_count_; }

 private:
  friend class SimAuditor;  // reads raw index state without refreshing it

  /// Marks a server's load-index entry stale. Every mutation that can move
  /// a server across the overload threshold or change its GPU headroom
  /// funnels through here (attach/detach/usage/up-down).
  void touch_server(ServerId id) const;
  /// Brings the index up to date for `hr`: re-evaluates only dirty
  /// servers, or the whole fleet when the index is invalid or `hr` changed.
  void refresh_load_index(double hr) const;
  /// Free-slot contribution of one up server.
  static int server_slot_estimate(const Server& s, double hr);
  /// Re-registers `job`'s flow set with the link model after a placement
  /// mutation touched one of its tasks (no-op when contention is off).
  void refresh_job_flows(JobId id);

  ClusterConfig config_;
  std::vector<Server> servers_;
  std::vector<Task> tasks_;
  std::vector<Job> jobs_;
  std::vector<JobId> live_jobs_;  ///< see live_jobs()
  double total_bandwidth_mb_ = 0.0;
  double inter_rack_bandwidth_mb_ = 0.0;
  std::size_t transfer_count_ = 0;
  std::size_t debug_unplace_count_ = 0;  ///< drives ClusterConfig::debug_slot_leak

  // --- incremental load index: a cache of live server state keyed by hr
  // (lazy, so mutable because queries are const; never snapshotted) ---
  mutable bool index_valid_ = false;
  mutable double index_hr_ = -1.0;
  mutable std::vector<char> index_dirty_;
  mutable std::vector<ServerId> index_dirty_ids_;
  mutable std::vector<char> index_overloaded_;   ///< up && overloaded(hr)
  mutable std::vector<char> index_underloaded_;  ///< accepts_placements && !overloaded(hr)
  mutable std::vector<int> index_slots_;
  mutable std::vector<ResourceVector> index_util_;  ///< utilization at last refresh
  mutable std::vector<int> index_least_gpu_;        ///< least_loaded_gpu at last refresh
  mutable std::vector<double> index_least_load_;    ///< its gpu_load at last refresh
  mutable long long index_total_slots_ = 0;
  mutable std::vector<ServerId> underloaded_ids_;  ///< sorted ascending
  mutable std::vector<ServerId> overloaded_ids_;   ///< sorted ascending
  /// Link-contention state (empty when ClusterConfig::link_contention off).
  LinkModel links_;
};

}  // namespace mlfs
