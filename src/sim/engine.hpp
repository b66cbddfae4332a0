// Discrete-event simulation engine. Drives job arrivals, per-iteration
// execution of each job's task DAG under contention, deadline bookkeeping,
// the periodic scheduler tick, stop-policy semantics (§3.5 options), and
// metric collection.
//
// Execution model (see DESIGN.md §5):
//  * A job runs iterations only while *all* of its unfinished tasks are
//    placed (gang execution across its dependency graph).
//  * Iteration duration = critical path over the DAG where each task costs
//    base_compute × contention slowdown, plus cross-server communication
//    time, plus any pending one-time migration penalty.
//  * Task usage fluctuates (lognormal factor resampled per tick), which is
//    what produces overload episodes for the schedulers to handle.
//  * The scheduler runs every tick_interval ("every minute", §4.1); its
//    wall-clock time per round is the overhead metric of Figs. 4(h)/5(h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "predict/service.hpp"
#include "sim/audit.hpp"
#include "sim/cluster.hpp"
#include "sim/engine_state.hpp"
#include "sim/event_log.hpp"
#include "sim/health.hpp"
#include "sim/metrics.hpp"
#include "sim/scheduler.hpp"

namespace mlfs {

/// Fault-injection model (robustness extension; the paper's §3.3.3 premise
/// that hardware fails is otherwise only visible as straggler slowdown).
/// Servers crash and recover under per-server exponential MTBF/MTTR;
/// racks suffer correlated outages (all up servers in the rack crash
/// together and repair together) when the cluster has a rack topology;
/// individual tasks die transiently with a per-tick probability. All
/// draws come from a dedicated RNG stream, so any all-zero-rate config is
/// bit-identical to a fault-free run.
struct FaultConfig {
  /// Mean time between crashes per server, hours; 0 disables crashes.
  double server_mtbf_hours = 0.0;
  /// Mean repair time, hours; 0 makes a crash permanent (negative is
  /// rejected by validate()).
  double server_mttr_hours = 0.5;
  /// Per running task, per tick: probability of a transient kill (process
  /// dies; server survives). 0 disables.
  double task_kill_probability = 0.0;
  /// Correlated outages per rack (requires ClusterConfig::servers_per_rack
  /// > 0 — validate() rejects the combination otherwise): mean time
  /// between outages per rack, hours; 0 disables.
  double rack_mtbf_hours = 0.0;
  double rack_mttr_hours = 0.25;
  /// Jobs checkpoint every k completed iterations; a fault rolls the job
  /// back to its last checkpoint, losing up to k-1 completed iterations
  /// plus any in-flight iteration fraction (with k = 1 only the in-flight
  /// work is lost). Voluntary aborts (preemption/migration) still keep
  /// their resume credit — only faults destroy un-checkpointed state.
  /// Overridden per job by RecoveryConfig::adaptive_checkpoint.
  int checkpoint_interval_iterations = 1;

  /// Flaky-server heterogeneity: the *last* lround(fraction × N) servers
  /// (mirroring ClusterConfig::slow_server_fraction's assignment) crash
  /// and kill tasks `flaky_rate_multiplier` times as often. 0 keeps the
  /// homogeneous failure process bit-identical (the multiplier is then
  /// 1 everywhere and no draw changes); > 0 gives the health tracker a
  /// real signal to find.
  double flaky_server_fraction = 0.0;
  double flaky_rate_multiplier = 8.0;

  bool any_faults() const {
    return server_mtbf_hours > 0.0 || task_kill_probability > 0.0 || rack_mtbf_hours > 0.0;
  }

  /// Failure-rate multiplier of one server (1 unless it is flaky).
  double rate_multiplier(ServerId id, std::size_t server_count) const;

  /// Throws ContractViolation on invalid values — negative rates/MTTRs,
  /// non-positive checkpoint interval, kill probability outside [0, 1],
  /// or rack outages requested on a flat cluster (previously silently
  /// disabled deep in the engine).
  void validate(int servers_per_rack) const;
};

struct EngineConfig {
  SimDuration tick_interval = minutes(1);
  double hr = 0.9;                 ///< per-server overload threshold (§3.3.2)
  double usage_noise_sigma = 0.08; ///< lognormal sigma of task usage fluctuation
  double migration_fixed_penalty_seconds = 5.0;  ///< restart cost on top of state transfer
  SimDuration max_sim_time = days(365);  ///< hard stop; unfinished jobs count as censored
  std::uint64_t seed = 7;

  // OptStop semantics (§3.5, via the learning-curve predictor [17]).
  int optstop_check_interval = 5;        ///< evaluate the stop rule every k iterations
  double optstop_near_max_fraction = 0.99;  ///< stop when acc >= frac × predicted max
  double optstop_confidence_threshold = 0.6;  ///< needed to stop a hopeless job early

  /// Opt-in observation coarsening in the prediction service
  /// (predict/service.hpp), which fits the OptStop learning curves
  /// incrementally: long observation tails are log-subsampled before each
  /// fit. Changes results (an approximation mode).
  bool coarsen_curve = false;

  /// Watchdog: if nothing runs for this many consecutive ticks while tasks
  /// wait, the most-incomplete partially-placed job is evicted to unwedge
  /// gang-placement fragmentation deadlocks.
  int stall_ticks_before_eviction = 10;

  // Straggler model + mitigation (§3.3.3 "Stragglers may occur due to
  // failing hardware, software bugs, misconfiguration..."; the replica
  // mechanism the paper sketches as future work). Each task-iteration
  // independently becomes a straggler with `straggler_probability`,
  // multiplying its compute by `straggler_slowdown`. With
  // `straggler_replicas` > 0 each task runs that many backup copies and
  // the fastest wins ("use the output of the task that completes first"),
  // at the cost of the replica's communication volume every iteration.
  double straggler_probability = 0.0;
  double straggler_slowdown = 4.0;
  int straggler_replicas = 0;

  /// Gang-placement guard: a job whose tasks are only partially placed
  /// does not run (gang execution), yet its placed tasks hold GPU slots.
  /// After this long in that state the idle placements are released back
  /// to the queue so capacity cannot leak into a cluster-wide deadlock;
  /// the job's grown waiting-time priority then lets it gang-place
  /// atomically once capacity frees.
  SimDuration partial_placement_timeout = minutes(5);

  /// Failure model (crashes, recoveries, transient kills); all rates
  /// default to zero = the historical fault-free simulation.
  FaultConfig fault;

  /// Failure-aware recovery policies (sim/health.hpp); default-off keeps
  /// the engine bitwise-identical to a recovery-naive run.
  RecoveryConfig recovery;

  /// Invariant auditing (see sim/audit.hpp): when enabled the engine
  /// re-validates the cluster-wide invariants after every processed event
  /// and throws AuditViolation on the first divergence. Pure observer —
  /// results are bit-identical to an unaudited run.
  AuditConfig audit;
};

/// One externally streamed job arrival: the submitted spec plus its
/// position in the arrival stream (assigned by the submitter, monotone).
struct StreamedArrival {
  std::uint64_t stream_seq = 0;
  JobSpec spec;
};

/// Streaming-ingestion seam (see DESIGN.md §6d): a source of job arrivals
/// the engine pulls from at the top of every step(), so injected jobs flow
/// through the same event queue, auditor, and metrics as trace-driven
/// ones. The source owns the "due" decision — it sees the simulated clock,
/// the event index, and whether the event queue has drained (a drained
/// queue with pending arrivals must force-inject or the run would end
/// early) — which is what lets crash recovery replay journaled arrivals at
/// their exact recorded event indices.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;

  /// True while arrivals remain to be injected.
  virtual bool pending() const = 0;

  /// If the head arrival is due at this instant, moves it into `out` and
  /// returns true (the engine then injects it and calls on_injected);
  /// returning false defers it to a later step.
  virtual bool pop_due(SimTime now, std::uint64_t event_index, bool queue_empty,
                       StreamedArrival& out) = 0;

  /// Notification after the engine registered the arrival: `spec` is the
  /// job as registered (id/arrival as assigned) and `event_index` the
  /// events-processed count at injection — exactly what the write-ahead
  /// journal records.
  virtual void on_injected(const JobSpec& spec, std::uint64_t stream_seq,
                           std::uint64_t event_index) {
    (void)spec;
    (void)stream_seq;
    (void)event_index;
  }
};

/// Hook for MLF-C (§3.5): invoked every tick before the scheduler so it can
/// downgrade job stop policies / retarget iterations under overload.
class LoadController {
 public:
  virtual ~LoadController() = default;
  virtual std::string name() const = 0;
  virtual void before_schedule(Cluster& cluster, const std::vector<TaskId>& queue,
                               SimTime now) = 0;

  /// Snapshot hooks, same contract as Scheduler::save_state/restore_state:
  /// controllers carrying state across ticks (MLF-C's overload hysteresis)
  /// must serialize it or a restored run diverges.
  virtual void save_state(std::ostream& os) const { (void)os; }
  virtual void restore_state(std::istream& is) { (void)is; }
};

/// What one iteration of a job costs in communication, as a function of
/// its placements and the link state (DESIGN.md §5e). SimEngine builds it
/// lazily and reuses it until the job's Cluster::comm_version moves; it is
/// derived state, never snapshotted, and dropped on restore and when the
/// job ends.
struct CommPlan {
  /// One (node, parent) DAG edge, in iteration_duration's walk order
  /// (topological node order, skipping finished and removed tasks, then
  /// each node's parents).
  struct Edge {
    double comm = 0.0;       ///< seconds charged on the critical path (fair share if contended)
    double base_comm = 0.0;  ///< the same transfer at the static per-flow bandwidth
    bool cross = false;      ///< endpoints on different servers
    friend bool operator==(const Edge&, const Edge&) = default;
  };
  /// One cross-server transfer account_iteration_bandwidth records.
  struct Transfer {
    ServerId a = kInvalidServer;
    ServerId b = kInvalidServer;
    double mb = 0.0;
    friend bool operator==(const Transfer&, const Transfer&) = default;
  };

  std::uint64_t version = 0;  ///< Cluster::comm_version when built
  std::vector<Edge> edges;
  /// All-reduce jobs only: whether the iteration-end ring round is paid,
  /// and its length at the static and at the fair-share bandwidth (equal
  /// with contention off).
  bool ring_cross = false;
  double base_round = 0.0;
  double shared_round = 0.0;
  std::vector<Transfer> transfers;
  friend bool operator==(const CommPlan&, const CommPlan&) = default;
};

class SimEngine final : private SchedulerOps {
 public:
  /// Every spec must pass JobSpec::validate (ContractViolation otherwise).
  SimEngine(const ClusterConfig& cluster_config, const EngineConfig& engine_config,
            std::vector<JobSpec> specs, Scheduler& scheduler,
            LoadController* load_controller = nullptr);

  /// Runs the whole trace to completion (or max_sim_time) and returns the
  /// collected metrics. Equivalent to `while (step()) {}` + finalize().
  RunMetrics run();

  /// Processes the next event. Returns false when the simulation is over:
  /// the event queue drained, the horizon was crossed, or every job
  /// reached a terminal state. Call finalize() afterwards for the metrics.
  /// The snapshot/crash harnesses drive the engine one event at a time
  /// through this instead of run().
  bool step();

  /// Censoring + metrics assembly (the tail of run()). Call once, after
  /// step() returned false.
  RunMetrics finalize();

  /// Events processed so far (accepted by step(); equals the auditor's
  /// events_seen()).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Running FNV-1a over every processed event's (time, seq, type, job,
  /// epoch) — the byte-identical-resume fingerprint of the whole event
  /// stream. Survives save_snapshot/restore_snapshot, so a restored run's
  /// final hash equals the uninterrupted run's.
  std::uint64_t event_stream_hash() const { return event_hash_; }

  /// FNV-1a over the canonical cluster/engine/workload configuration and
  /// the scheduler (+ controller) identity. Stamped into every snapshot;
  /// restore_snapshot rejects a file written under a different fingerprint
  /// (audit settings are deliberately excluded — the auditor is a pure
  /// observer and resyncs after restore). A pure function of the
  /// constructor arguments, computed on first use and kept, so engines
  /// that never snapshot never pay for it.
  std::uint64_t config_fingerprint() const;

  /// Serializes the engine's complete dynamic state (see DESIGN.md,
  /// "Snapshot & restore"): event queue, cluster/server/task/job state,
  /// all RNG streams, health tracker, predictor memory, counters, and the
  /// scheduler's opaque state.
  void save_snapshot(std::ostream& os) const;

  /// Restores a snapshot into this engine. The engine must have been
  /// constructed from the same configuration/workload/scheduler the
  /// snapshot was written under (enforced via config_fingerprint()). The
  /// whole file is validated before any state is touched — on
  /// SnapshotError the engine is unchanged. The one exception is a v5
  /// file whose stored loss history disagrees with the jobs' curves: that
  /// is found while the "cluster" section is read, and the partly
  /// restored engine must be discarded.
  void restore_snapshot(std::istream& is);

  /// `job`'s communication plan: the cached one while the job's
  /// Cluster::comm_version is unchanged, else a fresh build that replaces
  /// it. The job's unfinished tasks must be placed.
  const CommPlan& comm_plan(const Job& job);
  /// `job`'s communication plan computed from scratch under the current
  /// placements and link state (what comm_plan caches).
  CommPlan build_comm_plan(const Job& job) const;

  /// Health tracker view (non-null iff recovery policies are enabled).
  const ServerHealthTracker* health() const { return health_.get(); }

  Cluster& cluster() { return cluster_; }
  const Cluster& cluster() const { return cluster_; }
  SimTime now() const { return now_; }
  const std::vector<TaskId>& queue() const { return queue_; }
  const EngineConfig& config() const { return config_; }
  PredictionService& prediction_service() { return prediction_; }
  const PredictionService& prediction_service() const { return prediction_; }

  /// Attaches an observer notified on every state-changing event (see
  /// sim/event_log.hpp). Must outlive the engine; nullptr detaches.
  void set_observer(EngineObserver* observer) { observer_ = observer; }

  /// Attaches a streaming arrival source, drained at the top of every
  /// step(). Must outlive the engine; nullptr detaches.
  void set_arrival_source(ArrivalSource* source) { arrival_source_ = source; }

  /// Registers a job into the live engine mid-run: instantiates it, grows
  /// all per-job/per-task state, and pushes its Arrival (at
  /// max(now, spec.arrival)) and Deadline events through the normal event
  /// queue. spec.id is overwritten with the next dense job id. Injected
  /// jobs are excluded from config_fingerprint() (they are dynamic inputs,
  /// journaled and carried in the snapshot's "injected" section instead).
  /// Returns the assigned id. A spec failing JobSpec::validate throws
  /// ContractViolation before any engine state changes.
  JobId inject_job(JobSpec spec);

  /// Jobs injected after construction, in injection order (specs as
  /// registered). Snapshot restore replays these before any dynamic state.
  const std::vector<JobSpec>& injected_specs() const { return injected_specs_; }

  /// Jobs the engine was constructed with (fingerprint coverage).
  std::size_t base_job_count() const { return base_job_count_; }

  /// Schedules a crash of `server` at simulated time `at` (chaos/test
  /// hook; independent of the random MTBF process). The event is dropped
  /// if the server has already changed up/down state by then; repair
  /// follows FaultConfig::server_mttr_hours as usual.
  void inject_server_failure(ServerId server, SimTime at);

 private:
  friend class SimAuditor;  // reads raw engine state; mutates nothing

  // -- SchedulerOps --
  bool place(TaskId task, ServerId server, int gpu) override;
  void preempt_to_queue(TaskId task) override;
  bool migrate(TaskId task, ServerId server, int gpu) override;
  void release(TaskId task) override;
  bool set_phase_offset(JobId job, double offset) override;

  // -- events --
  enum class EventType { Arrival, IterationDone, Deadline, Tick, ServerDown, ServerUp,
                         RackOutage, RetryRelease };
  friend constexpr EventType enum_last(EventType) { return EventType::RetryRelease; }
  struct Event {
    SimTime time;
    std::uint64_t seq;  // FIFO tiebreak for equal times
    EventType type;
    JobId job;  // ServerId for ServerDown/Up, rack for RackOutage, TaskId for RetryRelease
    std::uint64_t epoch;  // abort guard for IterationDone / stale guard for ServerDown/Up
    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
    /// Snapshot order.
    static constexpr auto fields() {
      return std::tuple{&Event::time, &Event::seq, &Event::type, &Event::job, &Event::epoch};
    }
  };
  void push_event(SimTime time, EventType type, JobId job = kInvalidJob,
                  std::uint64_t epoch = 0);

  /// Pulls every due arrival from the attached source (step() preamble).
  void drain_arrival_source();

  void handle_arrival(JobId id);
  void handle_tick();
  void handle_iteration_done(JobId id, std::uint64_t epoch);
  void handle_deadline(JobId id);
  void handle_server_down(ServerId id, std::uint64_t epoch);
  void handle_server_up(ServerId id, std::uint64_t epoch);
  void handle_rack_outage(int rack);
  /// Re-admits a fault-killed task to the queue after its backoff delay.
  void handle_retry_release(TaskId tid);

  // -- execution --
  void try_start_jobs();
  void start_iteration(Job& job);
  double iteration_duration(const Job& job);
  void account_iteration_bandwidth(const Job& job);
  /// Non-const: OptStop checks advance the prediction service's
  /// incremental fit chains / memo.
  bool should_stop(const Job& job);
  void complete_job(Job& job);
  void abort_iteration(Job& job);
  void resample_usage();
  void compact_queue();
  void run_watchdog();
  void release_stale_partial_placements();
  JobId protected_job() const;
  /// Per job: 1 iff no Arrival event for it is pending. Used to re-derive
  /// the live job set after a restore (and by the auditor's resync).
  std::vector<char> arrived_flags() const;

  // -- fault injection --
  /// Pushes the next random ServerDown for `id` (MTBF exponential draw).
  void schedule_server_crash(ServerId id);
  /// Pushes the next random RackOutage for `rack`.
  void schedule_rack_outage(int rack);
  /// Crashes an up server: evicts and requeues its tasks, applies
  /// checkpoint-loss aborts to the affected jobs, marks the server down,
  /// and (when repair_after > 0) schedules its recovery. No-op on a down
  /// server. Returns true iff the server actually crashed.
  bool crash_server(ServerId id, SimDuration repair_after);
  /// Per-tick transient task kills (Bernoulli per running task).
  void kill_random_tasks();
  /// Fault-caused abort: unlike abort_iteration, progress since the last
  /// checkpoint — in-flight fraction, resume credit, and completed
  /// iterations past the checkpoint — is destroyed and accounted as lost.
  /// Under a retry budget the rollback may exhaust it and fail the job.
  void fault_abort(Job& job);
  /// Requeues a task evicted by a fault (immediately, or after a jittered
  /// exponential backoff under the recovery policies) and notifies the
  /// observer.
  void evict_task_for_fault(TaskId tid);

  // -- recovery policies (sim/health.hpp; all no-ops while disabled) --
  /// Marks a job failed-permanent: releases its placements, removes its
  /// live tasks, and records the terminal state (JobState::Failed).
  void fail_job(Job& job);
  /// The job's effective checkpoint interval: Young/Daly from the live
  /// MTBF estimate when adaptive checkpointing is on, else the validated
  /// FaultConfig::checkpoint_interval_iterations.
  int checkpoint_interval_for(const Job& job) const;
  /// The value config_fingerprint() returns, computed from scratch.
  std::uint64_t compute_config_fingerprint() const;
  /// Applies the tracker's pending quarantine/probation cap transitions.
  void apply_health_transitions();
  /// Quarantine decision for one server; applies the placement cap.
  void consider_quarantine(ServerId id);

  ClusterConfig cluster_config_;
  EngineConfig config_;
  Cluster cluster_;
  Scheduler& scheduler_;
  LoadController* load_controller_;
  EngineObserver* observer_ = nullptr;
  ArrivalSource* arrival_source_ = nullptr;
  /// Jobs registered at construction; specs beyond this are injections.
  std::size_t base_job_count_ = 0;
  mutable std::optional<std::uint64_t> config_fingerprint_;  ///< set by the first call
  std::vector<JobSpec> injected_specs_;
  Rng rng_;
  /// Dedicated stream for every fault draw: fault injection must not
  /// perturb the usage/straggler streams, or a zero-rate FaultConfig
  /// would change unrelated results.
  Rng fault_rng_;
  /// Dedicated stream for recovery-policy draws (backoff jitter); only
  /// consumed while RecoveryConfig::enabled, so default-off runs remain
  /// bit-identical.
  Rng recovery_rng_;
  /// Non-null iff config_.recovery.enabled.
  std::unique_ptr<ServerHealthTracker> health_;
  /// Unified prediction subsystem: runtime estimates + incremental
  /// learning-curve fits (see predict/service.hpp).
  PredictionService prediction_;
  std::unique_ptr<SimAuditor> auditor_;  ///< non-null iff config_.audit.enabled

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::uint64_t event_seq_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t event_hash_ = 1469598103934665603ull;  ///< FNV-1a offset basis

  std::vector<TaskId> queue_;
  std::vector<char> queue_seen_;     // compact_queue scratch, all-zero between calls
  std::vector<JobId> live_scratch_;  // copy of the live set for walks that complete jobs
  std::vector<double> finish_scratch_;  // iteration_duration's per-node finish times
  std::vector<JobRuntime> job_runtime_;  // per job
  /// Per job: the cached communication plan (see comm_plan); null until
  /// first use and again once the job ends. Held by pointer so the slots
  /// of jobs without a plan cost one word each.
  std::vector<std::unique_ptr<CommPlan>> comm_plans_;

  // Per-server up/down transition counter: stale ServerDown/Up events
  // carry the epoch they were scheduled under and are dropped when it no
  // longer matches.
  std::vector<std::uint64_t> server_epoch_;
  // Per task: held out of the queue by a retry-backoff window (its
  // RetryRelease event re-admits it).
  std::vector<char> task_in_backoff_;

  EngineCounters counters_;
  double run_wall_ms_ = 0.0;  ///< wall-clock of run()'s event loop (0 if manually stepped)
};

}  // namespace mlfs
