// The workload's central types: the static description of a submitted job
// (JobSpec), one schedulable unit (Task = one model partition × one
// mini-batch worker, §3.2), and the runtime Job object that tracks
// iteration progress, loss reductions, deadlines and stop policy.
#pragma once

#include <span>
#include <vector>

#include "common/binio.hpp"
#include "common/sim_time.hpp"
#include "workload/dag.hpp"
#include "workload/ids.hpp"
#include "workload/loss_curve.hpp"
#include "workload/resources.hpp"

namespace mlfs {

/// Everything known about a job at submission time. Produced by the trace
/// generator (or a trace file) and consumed by ModelZoo::instantiate.
struct JobSpec {
  JobId id = kInvalidJob;
  MlAlgorithm algorithm = MlAlgorithm::Mlp;
  CommStructure comm = CommStructure::ParameterServer;
  SimTime arrival = 0.0;
  double urgency = 1.0;      ///< L_J in [0, m] (§3.3.1); higher = more urgent
  int max_iterations = 50;   ///< I_max
  int gpu_request = 1;       ///< in {1,2,4,8,16,32}; also the model-partition count (§4.1)
  double train_data_mb = 500.0;
  double accuracy_requirement = 0.7;  ///< a^r_J
  double deadline_slack_hours = 4.0;  ///< t_r ~ U[0.5, 24] h (§4.1)
  LossCurve::Params curve;
  double comm_volume_ps_mb = 75.0;  ///< per-communication worker->PS volume (§4.1: U[50,100] MB)
  double comm_volume_ww_mb = 75.0;  ///< per-communication worker<->worker volume
  StopPolicy stop_policy = StopPolicy::FixedIterations;
  StopPolicy min_allowed_policy = StopPolicy::FixedIterations;  ///< MLF-C downgrade bound (§3.5)
  std::uint64_t seed = 0;  ///< per-job stream for task-level randomness

  /// Ingress check for specs from outside (trace files, injected and
  /// journal-replayed jobs): every real-valued field finite, arrival >= 0,
  /// data and communication volumes >= 0, accuracy requirement in (0, 1],
  /// deadline slack > 0, max_iterations >= 1, gpu_request >= 1. Throws
  /// ContractViolation("JobSpec <id>: <field> ...") naming the first
  /// offending field.
  void validate() const;

  /// Journal and config-fingerprint order (write_job_spec).
  static constexpr auto fields() {
    using S = JobSpec;
    return std::tuple{&S::id, &S::algorithm, &S::comm, &S::arrival, &S::urgency,
                      &S::max_iterations, &S::gpu_request, &S::train_data_mb,
                      &S::accuracy_requirement, &S::deadline_slack_hours, &S::curve,
                      &S::comm_volume_ps_mb, &S::comm_volume_ww_mb, &S::stop_policy,
                      &S::min_allowed_policy, &S::seed};
  }
};
static_assert(io::lists_every_field<JobSpec>);

/// One schedulable unit. Static fields are set once by ModelZoo; dynamic
/// fields are owned by the simulation (placement, waiting accounting).
struct Task {
  // -- static --
  TaskId id = kInvalidTask;
  JobId job = kInvalidJob;
  std::uint32_t local_index = 0;  ///< node index in the job's Dag
  bool is_parameter_server = false;
  double partition_params_m = 1.0;    ///< S_k, millions of parameters
  double state_size_mb = 100.0;       ///< migration payload (weights + activations)
  ResourceVector demand;              ///< GPU share of one GPU; CPU/MEM/NET share of a server
  double base_compute_seconds = 1.0;  ///< per-iteration compute on an unshared reference GPU

  // -- dynamic (simulation-owned) --
  TaskState state = TaskState::Queued;
  ServerId server = kInvalidServer;
  int gpu = kNoGpu;
  SimTime queued_since = 0.0;
  double total_waiting = 0.0;
  int migrations = 0;
  /// Persistent estimation error of the declared demand: actual usage
  /// centers on demand × usage_bias (users misdeclare; the scheduler's
  /// feasibility checks see only the declared demand).
  double usage_bias = 1.0;
  /// Multiplicative fluctuation applied on top, resampled by the engine
  /// each tick; actual usage at time t = demand × usage_factor where
  /// usage_factor ≈ usage_bias × tick noise (1.0 while queued).
  double usage_factor = 1.0;
  /// One-time extra seconds added to the next iteration (migration cost).
  double pending_penalty_seconds = 0.0;

  bool placed() const { return server != kInvalidServer; }
};

/// Runtime job: static spec + DAG + per-iteration progress. Task structs
/// live in a global pool owned by the cluster; the job stores their ids
/// (tasks()[local_index] is the global id of DAG node local_index).
class Job {
 public:
  /// `topological_order` is dag.topological_order(), passed in because the
  /// caller has already walked it (ModelZoo::instantiate's critical path).
  Job(JobSpec spec, Dag dag, std::vector<std::size_t> topological_order,
      std::vector<TaskId> task_ids, double total_params_m, double ideal_iteration_seconds);

  const JobSpec& spec() const { return spec_; }
  JobId id() const { return spec_.id; }
  const Dag& dag() const { return dag_; }
  /// dag().topological_order(), kept: the DAG never changes after
  /// construction.
  const std::vector<std::size_t>& topological_order() const { return topological_order_; }
  /// dag().depth_to_sink(), kept for the same reason (derived state: never
  /// snapshotted).
  const std::vector<std::size_t>& depth_to_sink() const { return depth_to_sink_; }
  std::span<const TaskId> tasks() const { return task_ids_; }
  TaskId task_at(std::size_t local_index) const { return task_ids_[local_index]; }
  std::size_t task_count() const { return task_ids_.size(); }
  double total_params_m() const { return total_params_m_; }

  /// Critical-path seconds of one iteration with no contention — the
  /// "sample run" estimate used for deadlines and runtime prediction.
  double ideal_iteration_seconds() const { return ideal_iteration_seconds_; }

  /// Estimated total execution time t_e (ideal, excluding queueing).
  double estimated_execution_seconds() const {
    return ideal_iteration_seconds_ * spec_.max_iterations;
  }

  /// Number of descendants of each DAG node (dag().descendant_counts()),
  /// computed on first use and kept: the DAG never changes after
  /// construction. The first call fills the cache, so a Job read from
  /// several threads needs it called once beforehand.
  const std::vector<std::size_t>& descendant_counts() const;

  // -- iteration progress --
  int completed_iterations() const { return completed_iterations_; }
  /// Records completion of the next iteration and its observed delta-loss.
  void complete_iteration();
  /// Discards the most recent `n` completed iterations (capped at the
  /// completed count) — failure recovery rolls a job back to its last
  /// checkpoint, and the lost iterations must be re-run. Re-running them
  /// reproduces the same observed delta-losses (the curve is a pure
  /// function of the iteration index), so accounting stays replayable.
  void rollback_iterations(int n);
  /// Observed delta-loss of the most recent completed iteration, δl_{I-1}
  /// (0 before the first one completes).
  double last_loss_reduction() const { return last_loss_reduction_; }
  /// Running sum Σδl over the completed iterations.
  double cumulative_loss_reduction() const { return cumulative_loss_reduction_; }
  /// Noise-free accuracy at the current iteration count.
  double current_accuracy() const { return curve_.accuracy_at(completed_iterations()); }
  const LossCurve& curve() const { return curve_; }

  // -- stop policy (mutated by MLF-C §3.5) --
  StopPolicy active_policy() const { return active_policy_; }
  /// Downgrades toward `policy` if the user's min_allowed_policy permits;
  /// returns true when the active policy actually changed.
  bool downgrade_policy(StopPolicy policy);
  /// Iterations the job will run under the current policy; engine/MLF-C
  /// recompute this when the policy or predictions change.
  int target_iterations() const { return target_iterations_; }
  void set_target_iterations(int n);

  // -- requirements & lifecycle --
  SimTime deadline() const { return deadline_; }
  void set_deadline(SimTime d) { deadline_ = d; }

  JobState state() const { return state_; }
  void set_state(JobState s) { state_ = s; }
  SimTime completion_time() const { return completion_time_; }
  void set_completion_time(SimTime t) { completion_time_ = t; }
  double waiting_time() const { return waiting_time_; }
  void add_waiting_time(double dt) { waiting_time_ += dt; }

  /// Iterations finished when the deadline passed (-1 until recorded).
  int iterations_at_deadline() const { return iterations_at_deadline_; }
  void record_deadline_progress() { iterations_at_deadline_ = completed_iterations(); }

  /// Accuracy achieved by min(deadline, completion) — the paper's
  /// "accuracy by job deadline" metric (§4.2.1, Figs. 4(e)/5(e)).
  double accuracy_by_deadline() const;

  /// Terminal: the job finished (Completed) or was abandoned after
  /// exhausting its fault-retry budget (Failed). Success-conditional
  /// metrics must test state() == JobState::Completed, not done().
  bool done() const {
    return state_ == JobState::Completed || state_ == JobState::Failed;
  }

  /// Snapshot support: serializes/restores the dynamic progress state
  /// (spec/DAG/curve are static and rebuilt by construction) as a
  /// constant-size record. The completed-iteration count and the
  /// cumulative loss reduction are stored; the last loss reduction is
  /// re-derived from the curve. The cumulative value is stored bit-exactly
  /// rather than re-summed — complete_iteration/rollback_iterations
  /// accumulate it add-then-subtract, so its float value depends on the
  /// history, not just the surviving iterations. Restore throws
  /// ContractViolation on a count outside [0, max_iterations] or a policy
  /// or state byte outside its enum.
  void save_state(io::BinWriter& w) const;
  void restore_state(io::BinReader& r);
  /// Reads the snapshot-v5 record, which carried the whole per-iteration
  /// loss history in place of the count. Every stored value must equal
  /// curve().observed_delta_loss(i) bit for bit; a mismatch throws
  /// ContractViolation rather than trusting the file.
  void restore_v5_state(io::BinReader& r);

 private:
  /// observed_delta_loss(iteration), or 0 for iteration 0.
  double loss_reduction_at(int iteration) const;
  /// The fields after the loss state, shared by both record versions.
  void restore_lifecycle(io::BinReader& r);

  JobSpec spec_;
  Dag dag_;
  std::vector<std::size_t> topological_order_;
  std::vector<std::size_t> depth_to_sink_;
  mutable std::vector<std::size_t> descendant_counts_;  ///< empty until first use
  std::vector<TaskId> task_ids_;
  double total_params_m_;
  double ideal_iteration_seconds_;
  LossCurve curve_;

  int completed_iterations_ = 0;
  double last_loss_reduction_ = 0.0;
  double cumulative_loss_reduction_ = 0.0;

  StopPolicy active_policy_;
  int target_iterations_;

  SimTime deadline_ = 0.0;
  JobState state_ = JobState::Waiting;
  SimTime completion_time_ = -1.0;
  double waiting_time_ = 0.0;
  int iterations_at_deadline_ = -1;
};

}  // namespace mlfs
