// MLF-H: ML-feature-based heuristic task scheduling (§3.3).
// Every tick: (1) order the waiting queue by combined priority (Eqs. 2-6),
// (2) place tasks one by one onto the RIAL-matched underloaded server /
// least-loaded GPU until nothing fits, (3) relieve overloaded servers by
// moving out ideal-virtual-task victims (§3.3.3) — migrated directly when
// an underloaded host exists, otherwise preempted back to the queue.
#pragma once

#include <functional>
#include <unordered_map>

#include "core/migration.hpp"
#include "core/placement.hpp"
#include "core/priority.hpp"
#include "sim/scheduler.hpp"

namespace mlfs::core {

class MlfH : public Scheduler {
 public:
  explicit MlfH(const MlfsConfig& config);

  std::string name() const override { return "MLF-H"; }
  void schedule(SchedulerContext& ctx) override;

  /// Evicts the job's priority-cache entry — without this the cache grows
  /// without bound over a long run (one entry per job ever seen).
  void on_job_complete(const Job& job, SimTime now) override;

  /// Priority-cache consistency for SimAuditor: no entry for a completed
  /// or unknown job, no future timestamps, priority vector sized to the
  /// job's tasks with finite non-negative values; then "comm-memo".
  void audit_invariants(const Cluster& cluster, SimTime now) const override;

  /// Hot-path counters (candidate scans + comm-memo hit rate).
  SchedStats sched_stats() const override { return placement_.stats(); }

  /// Snapshot support: the placement's counters. Neither cache is state: a
  /// priority entry is read only in the tick that computed it (schedule
  /// runs once per tick), and the comm memo refills on demand.
  void save_state(std::ostream& os) const override;
  void restore_state(std::istream& is) override;
  /// v5–v9 payloads open with the priority cache and the comm-memo arena,
  /// which are skipped.
  void restore_legacy_state(std::istream& is, std::uint32_t version) override;
  /// The same in buffer form, for the MLFS facade that embeds this
  /// heuristic in its own payload.
  void save_state(io::BinWriter& w) const;
  void restore_state(io::BinReader& r, std::uint32_t version);

  /// Number of jobs currently held in the priority cache (for tests).
  std::size_t priority_cache_size() const { return cache_.size(); }

  /// Combined Eq. 6 priority of a task (cached per job per tick).
  double task_priority(const Cluster& cluster, TaskId task, SimTime now);

  /// Queue sorted by priority, highest first (live tasks only).
  std::vector<TaskId> ordered_queue(SchedulerContext& ctx);

  /// Called after every successful queue placement — lets the MLFS facade
  /// log (state, action) pairs for imitation while the heuristic drives.
  using PlacementObserver = std::function<void(SchedulerContext&, TaskId, ServerId)>;
  void set_placement_observer(PlacementObserver observer) {
    observer_ = std::move(observer);
  }

  /// Queue-placement pass only (used by the facade when the RL policy has
  /// taken over placement but the heuristic still handles overload).
  void place_queued_tasks(SchedulerContext& ctx);

  /// Overload-relief pass only (§3.3.3).
  void handle_overloaded_servers(SchedulerContext& ctx);

  const MlfPlacement& placement() const { return placement_; }
  const PriorityCalculator& priorities() const { return priority_calc_; }

 private:
  struct CacheEntry {
    SimTime computed_at = -1.0;
    std::vector<double> priorities;
  };
  const std::vector<double>& job_priority_vector(const Cluster& cluster, const Job& job,
                                                 SimTime now);
  /// Sorts task ids by priority, highest first, stable. Decorate-sort-
  /// undecorate: priorities are evaluated once per task instead of once per
  /// comparison; the permutation is identical to sorting with a
  /// priority-comparing comparator (same cached values, same stability).
  void sort_by_priority(std::vector<TaskId>& tasks, SchedulerContext& ctx);

  MlfsConfig config_;
  PriorityCalculator priority_calc_;
  MlfPlacement placement_;
  MigrationSelector migration_;
  std::unordered_map<JobId, CacheEntry> cache_;
  PlacementObserver observer_;
};

}  // namespace mlfs::core
