// RIAL-style host selection (§3.3.2, method of [47]): build the *ideal
// virtual host server* U_V — per-resource minimum utilization across the
// underloaded servers, the maximum task↔server communication volume (so
// chatty tasks co-locate with their peers), and zero movement degradation
// — then pick the feasible underloaded server whose vector is closest to
// U_V in Euclidean distance. The task lands on that server's best-fitting
// GPU (the least-loaded one whenever it fits).
//
// Hot path: candidates come from the cluster's bucketed placement index
// (sim/placement_index.hpp) — only buckets that could pass the
// feasibility check are examined — and the per-(task, server)
// communication volumes are memoized in a fixed-capacity arena keyed on
// the owning job's placement epoch (PlacementParams::comm_memo_slots). Both
// are bit-exact with the direct computation (see DESIGN.md, "Scheduler
// hot path").
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "sim/scheduler.hpp"

namespace mlfs::core {

struct HostChoice {
  ServerId server;
  int gpu;
};

class MlfPlacement {
 public:
  explicit MlfPlacement(const PlacementParams& params);

  /// Chooses the host for `task` among the currently underloaded servers.
  /// `migrating` adds the movement-degradation dimension q — the state-
  /// transfer time from the task's current server to *that* destination
  /// over the topology-aware flow bandwidth (0 for queue placements).
  /// Returns nullopt when no underloaded server fits the task under ctx.hr.
  ///
  /// Candidates come from the cluster's load index (the bucketed placement
  /// index when ClusterConfig::placement_bucket_index is on: only the
  /// unprunable buckets are exact-checked), utilizations from the
  /// refresh-time cache, comm volumes from the arena memo, scratch from
  /// reused vectors. Ties go to the lowest server id.
  std::optional<HostChoice> choose_host(const SchedulerContext& ctx, const Task& task,
                                        bool migrating) const;

  /// Hot-path counters accumulated across all choose_host calls.
  const SchedStats& stats() const { return stats_; }

  /// Snapshot support: the comm-memo arena (slot table, round-robin
  /// cursor, and the occupied slots' volume vectors, in slot order) and
  /// the hot-path counters. The memo must round-trip (not just be
  /// invalidated) so the hit/miss counters — and therefore SchedStats —
  /// stay bit-identical after restore. `feasible_` is per-call scratch and
  /// is not state.
  void save_state(io::BinWriter& w) const;
  void restore_state(io::BinReader& r);

  /// Total communication volume (MB per iteration) between `task` and the
  /// tasks currently placed on `server` — DAG parent/child edges plus
  /// all-reduce ring neighbours (public for tests).
  static double comm_volume_with_server(const Cluster& cluster, const Task& task,
                                        ServerId server);

  /// Topology-aware variant: same-server peers count fully, same-rack
  /// peers at `rack_affinity` weight (the use_topology extension).
  static double comm_volume_with_server_topology(const Cluster& cluster, const Task& task,
                                                 ServerId server, double rack_affinity);

 private:
  /// Per-server communication volumes of `task` (`server_count` doubles),
  /// memoized in the arena keyed on the owning job's placement epoch —
  /// peers are always same-job tasks, so placements elsewhere cannot
  /// invalidate the entry. Entry [s] is bit-identical to
  /// comm_volume_with_server[_topology](cluster, task, s): the
  /// accumulation visits peers in the same order and drops only
  /// exact-zero terms.
  const double* comm_vector(const Cluster& cluster, const Task& task) const;

  PlacementParams params_;

  /// Comm-memo arena: `comm_memo_slots` slots × server_count doubles, one
  /// slot per task, deterministic round-robin eviction (lazily sized on
  /// first use; the stride is fixed for the cluster's lifetime).
  struct MemoSlot {
    TaskId task = kInvalidTask;
    std::uint64_t epoch = 0;  ///< owning job's placement epoch at fill time
  };
  mutable std::size_t memo_stride_ = 0;  ///< doubles per slot == server_count
  mutable std::vector<MemoSlot> memo_slots_;
  mutable std::vector<double> memo_arena_;
  mutable std::unordered_map<TaskId, std::uint32_t> memo_index_;  ///< task -> slot
  mutable std::size_t memo_cursor_ = 0;

  mutable std::vector<ServerId> feasible_;  ///< choose_host scratch
  mutable SchedStats stats_;
};

}  // namespace mlfs::core
