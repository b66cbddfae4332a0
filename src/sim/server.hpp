// A simulated multi-GPU server. Holds the placement of tasks onto GPUs and
// answers the utilization queries the schedulers make: per-resource server
// utilization U_s (CPU/MEM/NET as fractions of server capacity, GPU as mean
// GPU load), per-GPU load, and overload checks against the threshold h_r
// (§3.3.2).
//
// Task resource *usage* at time t is demand × usage_factor; the engine
// resamples usage_factor each tick (lognormal noise), which is what makes
// utilizations fluctuate and servers drift into overload the way real
// ML-cluster servers do. Usage sums are maintained incrementally so every
// scheduler query (utilization, gpu_load, feasibility) is O(1) — the
// placement loops call them once per server per queued task.
#pragma once

#include <vector>

#include "common/binio.hpp"
#include "workload/job.hpp"

namespace mlfs {

class Cluster;  // owns the task pool this server indexes into

class Server {
 public:
  Server(ServerId id, int gpu_count, double speed = 1.0);

  ServerId id() const { return id_; }
  int gpu_count() const { return gpu_count_; }

  /// Relative compute speed of this server's GPUs (1.0 = the reference
  /// tier; < 1 for the older tier under the heterogeneity extension).
  double speed() const { return speed_; }

  /// Liveness under the fault-injection model: a down (crashed) server
  /// hosts no tasks and accepts no placements until it recovers. Toggled
  /// only through Cluster::set_server_up so invariants stay centralized.
  bool up() const { return up_; }

  /// Recovery-policy placement cap (sim/health.hpp): -1 = unrestricted,
  /// 0 = quarantined (no new placements), k > 0 = probation (at most k
  /// hosted tasks). Existing tasks are never evicted by the cap; it only
  /// gates admission. Set only through Cluster::set_placement_cap.
  int placement_cap() const { return placement_cap_; }

  /// True iff the server may receive one more task: up, and under its
  /// placement cap. This — not up() — is the placement-eligibility gate
  /// every placement path funnels through; with the default cap of -1 it
  /// is exactly up().
  bool accepts_placements() const {
    return up_ && (placement_cap_ < 0 ||
                   static_cast<int>(tasks_.size()) < placement_cap_);
  }

  const std::vector<TaskId>& tasks() const { return tasks_; }
  const std::vector<TaskId>& tasks_on_gpu(int gpu) const;
  std::size_t task_count() const { return tasks_.size(); }

  /// Placement bookkeeping; called only by Cluster (which keeps the task's
  /// usage contribution in sync with these calls).
  void attach_task(const Task& task, int gpu);
  void detach_task(const Task& task, int gpu);
  /// Adjusts the cached sums when a placed task's usage_factor changes.
  void adjust_usage(const Task& task, double old_factor, double new_factor);

  /// Current utilization vector U_s: GPU component is the mean load across
  /// GPUs; CPU/MEM/NET are summed task usages (can exceed 1 = overload).
  ResourceVector utilization() const;

  /// Load of one GPU: sum of gpu-demand × usage_factor of its tasks.
  double gpu_load(int gpu) const;

  /// Index of the least-loaded GPU.
  int least_loaded_gpu() const;

  /// GPU the task should land on: the least-loaded GPU when it fits under
  /// `hr`, otherwise the least-loaded *fitting* GPU (guards placement
  /// against least-loaded-only probing when per-GPU feasibility diverges),
  /// or kNoGpu when no GPU fits.
  int best_fitting_gpu(const Task& task, double hr) const;

  /// True iff any resource utilization or any GPU load exceeds `hr`.
  bool overloaded(double hr) const;

  /// Snapshot support (sim/snapshot.hpp): serializes/restores the dynamic
  /// placement state — up/cap, the task and per-GPU lists *in insertion
  /// order* (resample_usage's RNG draw order and crash eviction order
  /// iterate them, so the order is semantically load-bearing), and the
  /// incremental usage sums bit-exactly (recomputing them would reorder
  /// the float accumulation history and break bit-identical resume).
  void save_state(io::BinWriter& w) const;
  void restore_state(io::BinReader& r);

  /// True iff the server is up and stays within `hr` on every resource
  /// and on the target GPU after hypothetically adding `task` to `gpu` —
  /// the placement feasibility check (§3.3.2: the chosen server "will not
  /// be overloaded (on each resource and its least-loaded GPU) by hosting
  /// the task"). Every placement path (baselines and MLF alike) funnels
  /// through this, which is what keeps down servers unplaceable without
  /// per-scheduler changes.
  bool fits_without_overload(const Task& task, int gpu, double hr) const;

 private:
  friend class Cluster;  // sole writer of up_ / placement_cap_

  /// fits_without_overload with the task's usage (demand × usage_factor)
  /// computed once by the caller.
  bool fits_usage_without_overload(const ResourceVector& usage, int gpu, double hr) const;

  ServerId id_;
  int gpu_count_;
  double speed_;
  bool up_ = true;
  int placement_cap_ = -1;
  std::vector<TaskId> tasks_;
  std::vector<std::vector<TaskId>> gpu_tasks_;
  // Incremental usage sums (see class comment).
  double cpu_sum_ = 0.0;
  double mem_sum_ = 0.0;
  double net_sum_ = 0.0;
  std::vector<double> gpu_sums_;
};

}  // namespace mlfs
