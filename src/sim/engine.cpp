#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <cmath>

#include "common/expect.hpp"
#include "common/log.hpp"
#include "sim/snapshot.hpp"
#include "workload/model_zoo.hpp"

namespace mlfs {

double FaultConfig::rate_multiplier(ServerId id, std::size_t server_count) const {
  if (flaky_server_fraction <= 0.0) return 1.0;
  // Same assignment rule as ClusterConfig::slow_server_fraction: the last
  // lround(fraction × N) servers are the flaky ones.
  const auto flaky_from = static_cast<std::size_t>(std::lround(
      static_cast<double>(server_count) * (1.0 - flaky_server_fraction)));
  return id >= flaky_from ? flaky_rate_multiplier : 1.0;
}

void FaultConfig::validate(int servers_per_rack) const {
  if (server_mtbf_hours < 0.0) {
    throw ContractViolation("FaultConfig: server_mtbf_hours must be >= 0");
  }
  if (server_mttr_hours < 0.0) {
    throw ContractViolation(
        "FaultConfig: server_mttr_hours must be >= 0 (0 = crashes are permanent)");
  }
  if (task_kill_probability < 0.0 || task_kill_probability > 1.0) {
    throw ContractViolation("FaultConfig: task_kill_probability must be in [0, 1]");
  }
  if (rack_mtbf_hours < 0.0) {
    throw ContractViolation("FaultConfig: rack_mtbf_hours must be >= 0");
  }
  if (rack_mtbf_hours > 0.0 && servers_per_rack <= 0) {
    throw ContractViolation(
        "FaultConfig: rack_mtbf_hours > 0 requires ClusterConfig::servers_per_rack > 0 "
        "(rack outages on a flat cluster would be silently disabled)");
  }
  if (rack_mttr_hours < 0.0) {
    throw ContractViolation("FaultConfig: rack_mttr_hours must be >= 0");
  }
  if (checkpoint_interval_iterations < 1) {
    throw ContractViolation("FaultConfig: checkpoint_interval_iterations must be >= 1");
  }
  if (flaky_server_fraction < 0.0 || flaky_server_fraction > 1.0) {
    throw ContractViolation("FaultConfig: flaky_server_fraction must be in [0, 1]");
  }
  if (flaky_server_fraction > 0.0 && flaky_rate_multiplier < 1.0) {
    throw ContractViolation("FaultConfig: flaky_rate_multiplier must be >= 1");
  }
}

SimEngine::SimEngine(const ClusterConfig& cluster_config, const EngineConfig& engine_config,
                     std::vector<JobSpec> specs, Scheduler& scheduler,
                     LoadController* load_controller)
    : cluster_config_(cluster_config),
      config_(engine_config),
      cluster_(cluster_config),
      scheduler_(scheduler),
      load_controller_(load_controller),
      rng_(engine_config.seed),
      fault_rng_(engine_config.seed ^ 0xfa17f5eedULL),
      recovery_rng_(engine_config.seed ^ 0x4ec0fe41eadULL),
      prediction_(engine_config.optstop_check_interval, engine_config.coarsen_curve) {
  config_.fault.validate(cluster_config_.servers_per_rack);
  config_.recovery.validate();
  for (const JobSpec& spec : specs) spec.validate();
  if (config_.recovery.enabled) {
    health_ = std::make_unique<ServerHealthTracker>(config_.recovery,
                                                    cluster_config_.server_count);
  }
  // Instantiate the whole trace up front; arrival events release jobs into
  // the queue at their trace times.
  std::sort(specs.begin(), specs.end(),
            [](const JobSpec& a, const JobSpec& b) { return a.id < b.id; });
  TaskId next_task = 0;
  for (const JobSpec& spec : specs) {
    auto inst = ModelZoo::instantiate(spec, next_task);
    next_task += static_cast<TaskId>(inst.tasks.size());
    cluster_.register_job(std::move(inst.job), std::move(inst.tasks));
  }
  base_job_count_ = cluster_.job_count();
  job_runtime_.resize(cluster_.job_count());
  server_epoch_.assign(cluster_.server_count(), 0);
  task_in_backoff_.assign(cluster_.task_count(), 0);
  for (const Job& job : cluster_.jobs()) {
    push_event(job.spec().arrival, EventType::Arrival, job.id());
    push_event(job.deadline(), EventType::Deadline, job.id());
  }
  // Seed the crash processes. Draws only happen for nonzero rates, so a
  // zero-rate config consumes no fault randomness at all.
  if (config_.fault.server_mtbf_hours > 0.0) {
    for (ServerId s = 0; s < cluster_.server_count(); ++s) schedule_server_crash(s);
  }
  if (config_.fault.rack_mtbf_hours > 0.0) {
    // validate() guaranteed servers_per_rack > 0.
    const int racks = cluster_.rack_of(static_cast<ServerId>(cluster_.server_count() - 1)) + 1;
    for (int r = 0; r < racks; ++r) schedule_rack_outage(r);
  }
  if (config_.audit.enabled) {
    auditor_ = std::make_unique<SimAuditor>(*this);
    auditor_->on_sim_start();
  }
}

void SimEngine::push_event(SimTime time, EventType type, JobId job, std::uint64_t epoch) {
  events_.push(Event{time, event_seq_++, type, job, epoch});
}

// --------------------------------------------------------------- ops

bool SimEngine::place(TaskId task_id, ServerId server, int gpu) {
  if (server >= cluster_.server_count()) return false;
  if (!cluster_.server(server).accepts_placements()) return false;
  if (gpu < 0 || gpu >= cluster_.server(server).gpu_count()) return false;
  Task& t = cluster_.task(task_id);
  if (t.state != TaskState::Queued) return false;
  // A task parked in a retry-backoff window is queued but not admissible:
  // its pending RetryRelease event owns re-admission (schedulers may still
  // try via gang placement over a job's task list — refuse, don't assert).
  if (task_id < task_in_backoff_.size() && task_in_backoff_[task_id]) return false;
  const Job& job = cluster_.job(t.job);
  if (job.done()) return false;
  t.total_waiting += now_ - t.queued_since;
  cluster_.place_task(task_id, server, gpu);
  if (observer_ != nullptr) observer_->on_task_placed(now_, task_id, server, gpu);
  return true;
}

void SimEngine::preempt_to_queue(TaskId task_id) {
  Task& t = cluster_.task(task_id);
  MLFS_EXPECT(t.state == TaskState::Running);
  cluster_.unplace_task(task_id);
  t.queued_since = now_;
  queue_.push_back(task_id);
  ++counters_.preemptions;
  if (observer_ != nullptr) observer_->on_task_preempted(now_, task_id);
  Job& job = cluster_.job(t.job);
  if (job.state() == JobState::Running) {
    abort_iteration(job);
    job.set_state(JobState::Waiting);
    job_runtime_[job.id()].waiting_since = now_;
  }
}

bool SimEngine::migrate(TaskId task_id, ServerId server, int gpu) {
  if (server >= cluster_.server_count()) return false;
  if (!cluster_.server(server).accepts_placements()) return false;
  if (gpu < 0 || gpu >= cluster_.server(server).gpu_count()) return false;
  Task& t = cluster_.task(task_id);
  if (t.state != TaskState::Running) return false;
  const ServerId from = t.server;
  if (from == server && t.gpu == gpu) return false;
  cluster_.move_task(task_id, server, gpu);
  if (observer_ != nullptr) observer_->on_task_migrated(now_, task_id, from, server);
  if (from != server) {
    cluster_.record_transfer(from, server, t.state_size_mb);
    t.pending_penalty_seconds += t.state_size_mb / cluster_config_.server_bandwidth_mbps +
                                 config_.migration_fixed_penalty_seconds;
  }
  ++counters_.migrations;
  return true;
}

void SimEngine::release(TaskId task_id) {
  Task& t = cluster_.task(task_id);
  MLFS_EXPECT(t.state == TaskState::Running);
  MLFS_EXPECT(cluster_.job(t.job).state() != JobState::Running);
  cluster_.unplace_task(task_id);
  t.queued_since = now_;
  if (observer_ != nullptr) observer_->on_task_released(now_, task_id);
  // No queue_.push_back: release() is only legal within the round that
  // placed the task, and queue compaction runs before the round — the
  // task's original queue entry is still present.
}

bool SimEngine::set_phase_offset(JobId job, double offset) {
  // Cluster makes this a no-op while link contention is off, so a
  // network-aware scheduler run with the feature disabled stays
  // bit-identical to one that never calls it.
  const bool changed = cluster_.set_phase_offset(job, offset);
  if (changed) ++counters_.phase_offset_hits;
  return changed;
}

// --------------------------------------------------------------- events

JobId SimEngine::inject_job(JobSpec spec) {
  const auto id = static_cast<JobId>(cluster_.job_count());
  spec.id = id;
  spec.validate();
  auto inst = ModelZoo::instantiate(spec, static_cast<TaskId>(cluster_.task_count()));
  cluster_.register_job(std::move(inst.job), std::move(inst.tasks));
  job_runtime_.emplace_back();
  task_in_backoff_.resize(cluster_.task_count(), 0);
  const Job& job = cluster_.job(id);
  // The arrival flows through the normal event queue (same dispatch, hash
  // mixing, auditing as trace-driven arrivals); a spec submitted with an
  // arrival time already in the past lands at the current instant.
  push_event(std::max(now_, job.spec().arrival), EventType::Arrival, id);
  push_event(std::max(now_, job.deadline()), EventType::Deadline, id);
  injected_specs_.push_back(job.spec());
  if (auditor_) auditor_->on_job_injected();
  return id;
}

void SimEngine::drain_arrival_source() {
  if (arrival_source_ == nullptr) return;
  StreamedArrival next;
  while (arrival_source_->pop_due(now_, events_processed_, events_.empty(), next)) {
    const std::uint64_t at = events_processed_;
    const JobId id = inject_job(std::move(next.spec));
    arrival_source_->on_injected(cluster_.job(id).spec(), next.stream_seq, at);
  }
}

void SimEngine::handle_arrival(JobId id) {
  Job& job = cluster_.job(id);
  job.set_state(JobState::Waiting);
  cluster_.set_job_live(id, true);
  job_runtime_[id].waiting_since = now_;
  for (const TaskId tid : job.tasks()) {
    Task& t = cluster_.task(tid);
    t.queued_since = now_;
    queue_.push_back(tid);
  }
  scheduler_.on_job_arrival(job, now_);
  if (observer_ != nullptr) observer_->on_job_arrival(now_, id);
  if (!counters_.tick_armed) {
    counters_.tick_armed = true;
    push_event(now_, EventType::Tick);
  }
}

void SimEngine::resample_usage() {
  for (const Server& s : cluster_.servers()) {
    for (const TaskId tid : s.tasks()) {
      const Task& t = cluster_.task(tid);
      cluster_.set_usage_factor(
          tid, std::clamp(t.usage_bias * rng_.lognormal(0.0, config_.usage_noise_sigma),
                          0.6, 1.8));
    }
  }
}

void SimEngine::compact_queue() {
  // Drop entries whose task left the queue, and any duplicates (a task
  // must appear at most once or gang placement would retry it per copy).
  // The seen-marks live in a reused buffer; exactly the surviving entries
  // were marked, so clearing those leaves it all-zero for the next call.
  queue_seen_.resize(cluster_.task_count(), 0);
  std::erase_if(queue_, [this](TaskId tid) {
    const Task& t = cluster_.task(tid);
    if (t.state != TaskState::Queued || cluster_.job(t.job).done()) return true;
    if (queue_seen_[tid]) return true;
    queue_seen_[tid] = 1;
    return false;
  });
  for (const TaskId tid : queue_) queue_seen_[tid] = 0;
}

void SimEngine::run_watchdog() {
  const std::span<const JobId> live_ids = cluster_.live_jobs();
  const bool any_running = std::any_of(live_ids.begin(), live_ids.end(), [this](JobId id) {
    return cluster_.job(id).state() == JobState::Running;
  });
  if (any_running || queue_.empty()) {
    counters_.stall_ticks = 0;
    return;
  }
  if (++counters_.stall_ticks < config_.stall_ticks_before_eviction) return;
  counters_.stall_ticks = 0;
  // Fragmentation deadlock: every waiting job is partially placed and no
  // placement can complete any of them. Evict the placed tasks of the
  // least-complete partial job so its resources unblock the others.
  const JobId protected_id = protected_job();
  JobId victim = kInvalidJob;
  double lowest_placed_fraction = 2.0;
  for (const JobId id : live_ids) {
    const Job& job = cluster_.job(id);
    if (job.state() != JobState::Waiting || id == protected_id) continue;
    std::size_t placed = 0;
    std::size_t live = 0;
    for (const TaskId tid : job.tasks()) {
      const Task& t = cluster_.task(tid);
      if (t.state == TaskState::Finished || t.state == TaskState::Removed) continue;
      ++live;
      if (t.placed()) ++placed;
    }
    if (live == 0 || placed == 0) continue;
    const double fraction = static_cast<double>(placed) / static_cast<double>(live);
    if (fraction < lowest_placed_fraction) {
      lowest_placed_fraction = fraction;
      victim = job.id();
    }
  }
  if (victim == kInvalidJob) return;
  MLFS_DEBUG("watchdog evicting partial job " << victim);
  ++counters_.watchdog_evictions;
  const Job& job = cluster_.job(victim);
  for (const TaskId tid : job.tasks()) {
    Task& t = cluster_.task(tid);
    if (t.state == TaskState::Running) {
      cluster_.unplace_task(tid);
      t.queued_since = now_;
      queue_.push_back(tid);
      ++counters_.preemptions;
    }
  }
}

// --------------------------------------------------------------- faults

void SimEngine::inject_server_failure(ServerId server, SimTime at) {
  MLFS_EXPECT(server < cluster_.server_count());
  MLFS_EXPECT(at >= now_);
  push_event(at, EventType::ServerDown, server, server_epoch_[server]);
}

void SimEngine::schedule_server_crash(ServerId id) {
  // Flaky servers crash `rate_multiplier` times as often; the default
  // multiplier of 1 leaves every draw value unchanged.
  const double rate = config_.fault.rate_multiplier(id, cluster_.server_count()) /
                      hours(config_.fault.server_mtbf_hours);
  const double dt = fault_rng_.exponential(rate);
  push_event(now_ + dt, EventType::ServerDown, id, server_epoch_[id]);
}

void SimEngine::schedule_rack_outage(int rack) {
  const double dt = fault_rng_.exponential(1.0 / hours(config_.fault.rack_mtbf_hours));
  push_event(now_ + dt, EventType::RackOutage, static_cast<JobId>(rack));
}

void SimEngine::evict_task_for_fault(TaskId tid) {
  Task& t = cluster_.task(tid);
  MLFS_EXPECT(t.state == TaskState::Running);
  cluster_.unplace_task(tid);
  t.queued_since = now_;
  if (health_ && config_.recovery.retry_backoff_enabled) {
    // Held out of the queue for a jittered exponential backoff (retry k
    // waits base·factor^k); waiting-time priority still accrues from
    // queued_since, so backoff does not starve the job.
    task_in_backoff_[tid] = 1;
    const double delay = backoff_delay_seconds(config_.recovery, job_runtime_[t.job].retries_used,
                                               recovery_rng_.uniform());
    counters_.backoff_delay_seconds_total += delay;
    ++counters_.retry_backoffs;
    push_event(now_ + delay, EventType::RetryRelease, static_cast<JobId>(tid));
  } else {
    queue_.push_back(tid);
  }
  if (observer_ != nullptr) observer_->on_task_killed(now_, tid);
}

void SimEngine::handle_retry_release(TaskId tid) {
  if (!task_in_backoff_[tid]) return;  // job completed/failed meanwhile
  task_in_backoff_[tid] = 0;
  Task& t = cluster_.task(tid);
  MLFS_EXPECT(t.state == TaskState::Queued);
  MLFS_EXPECT(!cluster_.job(t.job).done());
  queue_.push_back(tid);
}

void SimEngine::fault_abort(Job& job) {
  const JobId id = job.id();
  JobRuntime& rt = job_runtime_[id];
  // Everything since the last checkpoint is destroyed: any preserved
  // resume credit, the in-flight fraction, and completed iterations past
  // the latest checkpoint-interval boundary.
  double lost_fraction = rt.resume_credit;
  if (job.state() == JobState::Running && rt.iter_duration > 0.0) {
    const double elapsed =
        std::clamp((now_ - rt.iter_started) / rt.iter_duration, 0.0, 1.0);
    lost_fraction = std::clamp(lost_fraction + (1.0 - lost_fraction) * elapsed, 0.0, 1.0);
  }
  rt.resume_credit = 0.0;
  const int interval = checkpoint_interval_for(job);
  const int lost_iters = job.completed_iterations() % interval;
  job.rollback_iterations(lost_iters);
  counters_.iterations_rolled_back += static_cast<std::size_t>(lost_iters);
  counters_.inflight_work_lost_iterations += lost_fraction;
  counters_.work_lost_gpu_seconds += (static_cast<double>(lost_iters) + lost_fraction) *
                                     job.ideal_iteration_seconds() *
                                     static_cast<double>(job.spec().gpu_request);
  rt.iter_duration = 0.0;
  ++rt.epoch;  // any in-flight IterationDone is now stale
  if (rt.fault_stopped_since < 0.0) rt.fault_stopped_since = now_;
  if (job.state() == JobState::Running) {
    job.set_state(JobState::Waiting);
    rt.waiting_since = now_;
  }
  if (health_ && config_.recovery.retry_backoff_enabled) {
    ++rt.retries_used;
    const int budget = config_.recovery.retry_budget;
    if (budget > 0 && rt.retries_used > budget) fail_job(job);
  }
}

int SimEngine::checkpoint_interval_for(const Job& job) const {
  const int fixed = config_.fault.checkpoint_interval_iterations;
  if (!health_ || !config_.recovery.adaptive_checkpoint) return std::max(1, fixed);
  const double server_mtbf =
      health_->observed_mtbf_seconds(config_.fault.server_mtbf_hours);
  if (server_mtbf <= 0.0) return std::max(1, fixed);
  // A gang fails when any of its hosts does: the job-level MTBF shrinks
  // with the task count.
  const double job_mtbf =
      server_mtbf / static_cast<double>(std::max<std::size_t>(1, job.task_count()));
  return young_daly_checkpoint_iterations(job_mtbf, config_.recovery.checkpoint_cost_seconds,
                                          job.ideal_iteration_seconds(),
                                          config_.recovery.max_checkpoint_interval);
}

void SimEngine::fail_job(Job& job) {
  MLFS_EXPECT(!job.done());
  const JobId id = job.id();
  JobRuntime& rt = job_runtime_[id];
  abort_iteration(job);
  rt.resume_credit = 0.0;
  if (job.state() == JobState::Waiting) {
    job.add_waiting_time(now_ - rt.waiting_since);
  }
  for (const TaskId tid : job.tasks()) {
    Task& t = cluster_.task(tid);
    if (t.state == TaskState::Running) cluster_.unplace_task(tid);
    if (t.state != TaskState::Finished) t.state = TaskState::Removed;
    task_in_backoff_[tid] = 0;  // pending RetryRelease events become stale
  }
  job.set_state(JobState::Failed);
  job.set_completion_time(now_);
  ++counters_.jobs_failed;
  prediction_.on_job_failed(job);
  rt.fault_stopped_since = -1.0;
  rt.partial_since = -1.0;
  cluster_.set_job_live(id, false);
  // Schedulers treat this like a completion: caches are evicted, service
  // accounting closes. The runtime predictor is *not* fed — a truncated
  // run would poison its duration estimates.
  scheduler_.on_job_complete(job, now_);
  if (observer_ != nullptr) observer_->on_job_failed(now_, id);
}

bool SimEngine::crash_server(ServerId id, SimDuration repair_after) {
  Server& server = cluster_.server(id);
  if (!server.up()) return false;
  ++counters_.server_failures;
  if (health_) {
    health_->record_crash(id, now_);
    // A capped (quarantined/probation) server crashing empty is the
    // policy working: the crash destroyed no work.
    if (server.task_count() == 0 && server.placement_cap() >= 0) ++counters_.crashes_absorbed;
  }
  if (server.task_count() > 0) ++counters_.victimful_crashes;
  // Evict every hosted task first (requeued with accumulated waiting-time
  // priority intact), then apply one checkpoint-loss abort per affected
  // job — a job with several tasks on the dead server rolls back once.
  const std::vector<TaskId> victims = server.tasks();
  std::vector<JobId> affected;
  for (const TaskId tid : victims) {
    const JobId jid = cluster_.task(tid).job;
    evict_task_for_fault(tid);
    ++counters_.crash_evictions;
    if (std::find(affected.begin(), affected.end(), jid) == affected.end()) {
      affected.push_back(jid);
    }
  }
  for (const JobId jid : affected) {
    Job& job = cluster_.job(jid);
    if (!job.done()) fault_abort(job);
  }
  cluster_.set_server_up(id, false);
  ++server_epoch_[id];  // invalidates any pending ServerDown for this server
  if (observer_ != nullptr) observer_->on_server_down(now_, id);
  if (repair_after > 0.0) {
    push_event(now_ + repair_after, EventType::ServerUp, id, server_epoch_[id]);
  }
  return true;
}

void SimEngine::handle_server_down(ServerId id, std::uint64_t epoch) {
  if (epoch != server_epoch_[id]) return;  // scheduled under an older up-period
  const double mttr = config_.fault.server_mttr_hours;
  crash_server(id, mttr > 0.0 ? fault_rng_.exponential(1.0 / hours(mttr)) : -1.0);
}

void SimEngine::handle_server_up(ServerId id, std::uint64_t epoch) {
  if (epoch != server_epoch_[id]) return;
  MLFS_EXPECT(!cluster_.server(id).up());
  cluster_.set_server_up(id, true);
  ++server_epoch_[id];
  if (health_) {
    // Re-admission decision: a server with a bad recent record comes back
    // quarantined (excluded from placements) instead of healthy.
    health_->record_recovery(id, now_);
    consider_quarantine(id);
  }
  if (observer_ != nullptr) observer_->on_server_up(now_, id);
  // The repaired server re-enters the individual crash process.
  if (config_.fault.server_mtbf_hours > 0.0) schedule_server_crash(id);
}

void SimEngine::consider_quarantine(ServerId id) {
  health_->try_quarantine(id, now_);
  cluster_.set_placement_cap(id, health_->placement_cap_for(id));
}

void SimEngine::apply_health_transitions() {
  for (const ServerHealthTracker::CapChange& change : health_->advance(now_)) {
    cluster_.set_placement_cap(change.server, change.cap);
  }
}

void SimEngine::handle_rack_outage(int rack) {
  ++counters_.rack_outages;
  // One repair draw for the whole rack: its servers fail together and
  // come back together (correlated failure domain).
  const double mttr = config_.fault.rack_mttr_hours;
  const SimDuration repair = mttr > 0.0 ? fault_rng_.exponential(1.0 / hours(mttr)) : -1.0;
  for (ServerId s = 0; s < cluster_.server_count(); ++s) {
    if (cluster_.rack_of(s) == rack) crash_server(s, repair);
  }
  schedule_rack_outage(rack);
}

void SimEngine::kill_random_tasks() {
  if (config_.fault.task_kill_probability <= 0.0) return;
  // Draw victims first: evictions mutate the server task lists. The
  // per-server rate multiplier is 1.0 unless flaky servers are configured,
  // in which case their tasks die proportionally more often.
  std::vector<TaskId> victims;
  std::vector<ServerId> victim_hosts;
  for (const Server& s : cluster_.servers()) {
    const double p = config_.fault.task_kill_probability *
                     config_.fault.rate_multiplier(s.id(), cluster_.server_count());
    for (const TaskId tid : s.tasks()) {
      if (fault_rng_.bernoulli(p)) {
        victims.push_back(tid);
        victim_hosts.push_back(s.id());
      }
    }
  }
  std::vector<JobId> affected;
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const TaskId tid = victims[i];
    const JobId jid = cluster_.task(tid).job;
    if (health_) health_->record_task_kill(victim_hosts[i], now_);
    evict_task_for_fault(tid);
    ++counters_.task_kills;
    if (std::find(affected.begin(), affected.end(), jid) == affected.end()) {
      affected.push_back(jid);
    }
  }
  for (const JobId jid : affected) {
    Job& job = cluster_.job(jid);
    if (!job.done()) fault_abort(job);
  }
  if (health_) {
    // A burst of kills can push a live server over the quarantine
    // threshold without a crash; evaluate each struck host once.
    std::vector<ServerId> hosts = victim_hosts;
    std::sort(hosts.begin(), hosts.end());
    hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
    for (const ServerId host : hosts) consider_quarantine(host);
  }
}

// --------------------------------------------------------------- tick

void SimEngine::handle_tick() {
  if (health_) apply_health_transitions();
  resample_usage();
  kill_random_tasks();
  counters_.overload_occurrences += cluster_.overloaded_servers(config_.hr).size();
  compact_queue();

  if (load_controller_ != nullptr) {
    load_controller_->before_schedule(cluster_, queue_, now_);
    // The controller may have lowered targets below completed counts;
    // stop any job that now satisfies its (possibly downgraded) policy.
    // complete_job shrinks the live set, so walk a copy of it.
    const std::span<const JobId> live = cluster_.live_jobs();
    live_scratch_.assign(live.begin(), live.end());
    for (const JobId id : live_scratch_) {
      Job& job = cluster_.job(id);
      if (job.state() == JobState::Waiting) continue;
      if (job.completed_iterations() > 0 && should_stop(job)) complete_job(job);
    }
    compact_queue();
  }

  SchedulerContext ctx{cluster_,   queue_, *this, now_, config_.hr, &prediction_,
                       protected_job()};
  const auto wall_start = std::chrono::steady_clock::now();
  scheduler_.schedule(ctx);
  const auto wall_end = std::chrono::steady_clock::now();
  counters_.sched_wall_ms_total +=
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  ++counters_.sched_rounds;

  compact_queue();
  try_start_jobs();
  release_stale_partial_placements();
  run_watchdog();

  // Keep ticking while there is anything left to drive.
  if (counters_.jobs_completed + counters_.jobs_failed < cluster_.job_count() &&
      now_ < config_.max_sim_time) {
    push_event(now_ + config_.tick_interval, EventType::Tick);
  } else {
    counters_.tick_armed = false;
  }
}

void SimEngine::try_start_jobs() {
  for (const JobId id : cluster_.live_jobs()) {
    Job& job = cluster_.job(id);
    if (job.state() != JobState::Waiting) continue;
    if (!cluster_.job_fully_placed(job)) continue;
    JobRuntime& rt = job_runtime_[id];
    // All live tasks placed: accumulate waiting, start the next iteration.
    job.add_waiting_time(now_ - rt.waiting_since);
    job.set_state(JobState::Running);
    rt.partial_since = -1.0;
    if (rt.fault_stopped_since >= 0.0) {
      // The job is running again after a fault knocked it out: close the
      // recovery interval for the mean-recovery-time metric.
      counters_.recovery_seconds_sum += now_ - rt.fault_stopped_since;
      ++counters_.recoveries;
      rt.fault_stopped_since = -1.0;
    }
    if (observer_ != nullptr) observer_->on_job_started(now_, job.id());
    start_iteration(job);
  }
}

JobId SimEngine::protected_job() const {
  // The arrived, unfinished job that has waited longest. Its partial
  // placements are never released or evicted, so it monotonically
  // approaches a full gang — the global progress guarantee.
  JobId best = kInvalidJob;
  double best_wait = -1.0;
  for (const JobId id : cluster_.live_jobs()) {
    const Job& job = cluster_.job(id);
    if (job.state() != JobState::Waiting) continue;
    const double wait = job.waiting_time() + (now_ - job_runtime_[id].waiting_since);
    if (wait > best_wait) {
      best_wait = wait;
      best = id;
    }
  }
  return best;
}

void SimEngine::release_stale_partial_placements() {
  const JobId protected_id = protected_job();
  for (const JobId id : cluster_.live_jobs()) {
    if (id == protected_id) continue;
    SimTime& partial_since = job_runtime_[id].partial_since;
    const Job& job = cluster_.job(id);
    if (job.state() != JobState::Waiting) {
      partial_since = -1.0;
      continue;
    }
    bool any_placed = false;
    for (const TaskId tid : job.tasks()) {
      if (cluster_.task(tid).state == TaskState::Running) {
        any_placed = true;
        break;
      }
    }
    if (!any_placed) {
      partial_since = -1.0;
      continue;
    }
    if (partial_since < 0.0) {
      partial_since = now_;
      continue;
    }
    if (now_ - partial_since < config_.partial_placement_timeout) continue;
    // Idle placements held too long: give the capacity back (the job is
    // not running, so nothing is aborted) and retry as one gang later.
    for (const TaskId tid : job.tasks()) {
      Task& t = cluster_.task(tid);
      if (t.state == TaskState::Running) {
        cluster_.unplace_task(tid);
        t.queued_since = now_;
        queue_.push_back(tid);
      }
    }
    partial_since = -1.0;
    ++counters_.partial_releases;
  }
}

double SimEngine::iteration_duration(const Job& job) {
  const Dag& dag = job.dag();
  std::vector<double>& finish = finish_scratch_;
  finish.assign(dag.node_count(), 0.0);
  double critical = 0.0;
  bool any_cross_server = false;
  // Link-level contention (opt-in): cross-server flows get the link
  // model's fair share instead of the static per-flow bandwidth. The
  // static path is untouched when the feature is off — no extra reads, no
  // arithmetic reordering — preserving byte-identical runs.
  const bool contended = cluster_config_.link_contention;
  for (const std::size_t u : job.topological_order()) {
    Task& t = cluster_.task(job.task_at(u));
    if (t.state == TaskState::Finished || t.state == TaskState::Removed) continue;
    MLFS_EXPECT(t.placed());
    const Server& server = cluster_.server(t.server);

    double start = 0.0;
    for (const std::size_t p : dag.parents(u)) {
      const Task& pt = cluster_.task(job.task_at(p));
      double comm = 0.0;
      if (pt.placed() && pt.server != t.server) {
        const double volume =
            t.is_parameter_server ? job.spec().comm_volume_ps_mb : job.spec().comm_volume_ww_mb;
        const double base_bw = cluster_.flow_bandwidth_between(pt.server, t.server);
        comm = volume / base_bw;
        if (contended) {
          const double shared_bw =
              cluster_.link_model().flow_bandwidth(job.id(), pt.server, t.server, base_bw);
          const double shared_comm = volume / shared_bw;
          counters_.link_busy_seconds += shared_comm;
          counters_.contention_slowdown_seconds += shared_comm - comm;
          comm = shared_comm;
        }
        any_cross_server = true;
      }
      start = std::max(start, finish[p] + comm);
    }

    // Contention: sharing within capacity is free; past saturation the
    // slowdown is quadratic (thrashing, cache and PCIe/NIC congestion are
    // superlinear), which is what makes overload worth handling (§3.3.3).
    const double hr = config_.hr;
    const auto congestion = [hr](double load) {
      // Interference begins at the overload threshold and grows
      // quadratically (thrashing / congestion are superlinear).
      if (load <= hr) return 1.0;
      const double x = load / hr;
      return x * x * x;
    };
    const double gpu_slow = congestion(server.gpu_load(t.gpu));
    const ResourceVector u_s = server.utilization();
    const double res_slow = std::max(
        {congestion(u_s[Resource::Cpu]), congestion(u_s[Resource::Mem]),
         congestion(u_s[Resource::Net])});
    double compute = t.base_compute_seconds * gpu_slow * res_slow / server.speed();
    if (config_.straggler_probability > 0.0) {
      // Deterministic per (task, iteration) draws so replays agree. The
      // effective slowdown is the minimum across the primary and its
      // replicas — the paper's first-copy-wins mitigation.
      const auto draws = 1 + std::max(0, config_.straggler_replicas);
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < draws; ++r) {
        Rng draw(job.spec().seed ^ (0x9e3779b97f4a7c15ULL * (t.id + 1)) ^
                 (0xc2b2ae3d27d4eb4fULL * static_cast<std::uint64_t>(
                                             job.completed_iterations() * draws + r + 1)));
        const double factor = draw.bernoulli(config_.straggler_probability)
                                  ? config_.straggler_slowdown
                                  : 1.0;
        best = std::min(best, factor);
      }
      compute *= best;
    }
    compute += t.pending_penalty_seconds;
    t.pending_penalty_seconds = 0.0;

    finish[u] = start + compute;
    critical = std::max(critical, finish[u]);
  }
  if (job.spec().comm == CommStructure::AllReduce) {
    // Ring all-reduce at the iteration end; pipelined, so ~2 volumes when
    // any hop crosses servers.
    bool cross = any_cross_server;
    if (!cross) {
      for (std::size_t i = 0; i + 1 < job.task_count(); ++i) {
        if (cluster_.task(job.task_at(i)).server != cluster_.task(job.task_at(i + 1)).server) {
          cross = true;
          break;
        }
      }
    }
    if (cross) {
      // Worst hop in the ring bounds the all-reduce round.
      double ring_bw = cluster_config_.effective_flow_bandwidth_mbps;
      double shared_ring_bw = ring_bw;
      for (std::size_t i = 0; i < job.task_count(); ++i) {
        const Task& a = cluster_.task(job.task_at(i));
        const Task& b = cluster_.task(job.task_at((i + 1) % job.task_count()));
        if (a.placed() && b.placed() && a.server != b.server) {
          const double base_bw = cluster_.flow_bandwidth_between(a.server, b.server);
          ring_bw = std::min(ring_bw, base_bw);
          if (contended) {
            shared_ring_bw = std::min(
                shared_ring_bw,
                cluster_.link_model().flow_bandwidth(job.id(), a.server, b.server, base_bw));
          }
        }
      }
      const double base_round = 2.0 * job.spec().comm_volume_ww_mb / ring_bw;
      if (contended) {
        const double shared_round = 2.0 * job.spec().comm_volume_ww_mb / shared_ring_bw;
        counters_.link_busy_seconds += shared_round;
        counters_.contention_slowdown_seconds += shared_round - base_round;
        critical += shared_round;
      } else {
        critical += base_round;
      }
    }
  }
  return std::max(critical, 1e-3);
}

void SimEngine::start_iteration(Job& job) {
  MLFS_EXPECT(job.state() == JobState::Running);
  JobRuntime& rt = job_runtime_[job.id()];
  // Resume credit from a previously aborted iteration (checkpointing):
  // only the unfinished remainder must be recomputed.
  double duration = iteration_duration(job) * (1.0 - rt.resume_credit);
  rt.resume_credit = 0.0;
  duration = std::max(duration, 1e-3);
  if (health_ && config_.recovery.adaptive_checkpoint && config_.fault.any_faults()) {
    // Checkpointing is no longer free under the adaptive policy: the
    // iteration that writes a checkpoint pays its cost. This is what the
    // Young/Daly interval is trading off against the rollback loss.
    if ((job.completed_iterations() + 1) % checkpoint_interval_for(job) == 0) {
      duration += config_.recovery.checkpoint_cost_seconds;
    }
  }
  const std::uint64_t epoch = ++rt.epoch;
  rt.iter_started = now_;
  rt.iter_duration = duration;
  push_event(now_ + duration, EventType::IterationDone, job.id(), epoch);
}

void SimEngine::abort_iteration(Job& job) {
  JobRuntime& rt = job_runtime_[job.id()];
  if (job.state() == JobState::Running && rt.iter_duration > 0.0) {
    const double fraction = (now_ - rt.iter_started) / rt.iter_duration;
    // Combine with any prior credit: progress accumulates across aborts.
    const double prior = rt.resume_credit;
    rt.resume_credit =
        std::clamp(prior + (1.0 - prior) * std::clamp(fraction, 0.0, 1.0), 0.0, 0.95);
  }
  rt.iter_duration = 0.0;
  ++rt.epoch;
}

void SimEngine::account_iteration_bandwidth(const Job& job) {
  const Dag& dag = job.dag();
  for (std::size_t u = 0; u < dag.node_count(); ++u) {
    const Task& t = cluster_.task(job.task_at(u));
    for (const std::size_t c : dag.children(u)) {
      const Task& ct = cluster_.task(job.task_at(c));
      if (!t.placed() || !ct.placed()) continue;
      const double volume =
          ct.is_parameter_server ? job.spec().comm_volume_ps_mb : job.spec().comm_volume_ww_mb;
      cluster_.record_transfer(t.server, ct.server, volume);
    }
  }
  if (job.spec().comm == CommStructure::AllReduce) {
    for (std::size_t i = 0; i < job.task_count(); ++i) {
      const Task& a = cluster_.task(job.task_at(i));
      const Task& b = cluster_.task(job.task_at((i + 1) % job.task_count()));
      if (a.placed() && b.placed()) {
        cluster_.record_transfer(a.server, b.server, job.spec().comm_volume_ww_mb);
      }
    }
  }
  if (config_.straggler_replicas > 0) {
    // Each replica ships its copy of the task's per-iteration output; we
    // charge it as cross-server traffic (replicas are placed elsewhere by
    // construction — co-locating them would not mitigate anything).
    const double volume = job.spec().comm == CommStructure::ParameterServer
                              ? job.spec().comm_volume_ps_mb
                              : job.spec().comm_volume_ww_mb;
    const double replica_mb =
        volume * static_cast<double>(config_.straggler_replicas) *
        static_cast<double>(job.task_count());
    // Account against an arbitrary distinct server pair (ledger is scalar).
    if (cluster_.server_count() > 1) cluster_.record_transfer(0, 1, replica_mb);
  }
}

bool SimEngine::should_stop(const Job& job) {
  const int done = job.completed_iterations();
  if (done >= job.target_iterations()) return true;
  switch (job.active_policy()) {
    case StopPolicy::FixedIterations:
      return false;
    case StopPolicy::AccuracyOnly:
      return job.current_accuracy() >= job.spec().accuracy_requirement;
    case StopPolicy::OptStop: {
      if (done < 3 || done % config_.optstop_check_interval != 0) return false;
      const CurvePrediction at_max = prediction_.predict_at_max(job);
      // §3.5: a job predicted to miss its requirement stops once the
      // prediction is confident; otherwise it stops when it is within
      // near_max_fraction of everything it could ever reach.
      if (at_max.accuracy < job.spec().accuracy_requirement &&
          at_max.confidence > config_.optstop_confidence_threshold) {
        return true;
      }
      return job.current_accuracy() >= config_.optstop_near_max_fraction * at_max.accuracy;
    }
  }
  return false;
}

void SimEngine::complete_job(Job& job) {
  MLFS_EXPECT(!job.done());
  abort_iteration(job);
  if (job.state() == JobState::Waiting) {
    job.add_waiting_time(now_ - job_runtime_[job.id()].waiting_since);
  }
  for (const TaskId tid : job.tasks()) {
    Task& t = cluster_.task(tid);
    if (t.state == TaskState::Running) cluster_.unplace_task(tid);
    t.state = TaskState::Finished;
    task_in_backoff_[tid] = 0;  // pending RetryRelease events become stale
  }
  job.set_state(JobState::Completed);
  job.set_completion_time(now_);
  ++counters_.jobs_completed;
  job_runtime_[job.id()].partial_since = -1.0;
  cluster_.set_job_live(job.id(), false);
  prediction_.on_job_complete(job);
  scheduler_.on_job_complete(job, now_);
  if (observer_ != nullptr) observer_->on_job_complete(now_, job.id());
}

void SimEngine::handle_iteration_done(JobId id, std::uint64_t epoch) {
  Job& job = cluster_.job(id);
  if (job.done() || epoch != job_runtime_[id].epoch) return;  // aborted iteration
  MLFS_EXPECT(job.state() == JobState::Running);
  job.complete_iteration();
  ++counters_.iterations_run;
  prediction_.on_iteration_complete(job);
  if (observer_ != nullptr) {
    observer_->on_iteration_complete(now_, id, job.completed_iterations());
  }
  account_iteration_bandwidth(job);
  if (should_stop(job)) {
    complete_job(job);
  } else {
    start_iteration(job);
  }
}

void SimEngine::handle_deadline(JobId id) {
  Job& job = cluster_.job(id);
  bool& recorded = job_runtime_[id].deadline_recorded;
  if (recorded) return;
  recorded = true;
  if (!job.done()) job.record_deadline_progress();
}

// --------------------------------------------------------------- run

RunMetrics SimEngine::run() {
  const auto wall_start = std::chrono::steady_clock::now();
  while (step()) {
  }
  run_wall_ms_ += std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
  return finalize();
}

bool SimEngine::step() {
  // Streamed arrivals are pulled before the next event pops, keyed to the
  // current (now, event-index) instant — the same instant a journal replay
  // reproduces, so injection points are deterministic across crashes.
  drain_arrival_source();
  if (events_.empty()) return false;
  const Event ev = events_.top();
  events_.pop();
  if (ev.time > config_.max_sim_time) return false;
  MLFS_EXPECT(ev.time + 1e-9 >= now_);
  now_ = std::max(now_, ev.time);
  // Event-stream hash: chained over every accepted event's identity before
  // dispatch, so two runs agree iff they processed the same events in the
  // same order — the byte-identical-resume contract.
  event_hash_ = fnv1a_mix(event_hash_, std::bit_cast<std::uint64_t>(ev.time));
  event_hash_ = fnv1a_mix(event_hash_, ev.seq);
  event_hash_ = fnv1a_mix(event_hash_, static_cast<std::uint64_t>(ev.type));
  event_hash_ = fnv1a_mix(event_hash_, static_cast<std::uint64_t>(ev.job));
  event_hash_ = fnv1a_mix(event_hash_, ev.epoch);
  ++events_processed_;
  const char* name = "";
  switch (ev.type) {
    case EventType::Arrival: name = "arrival"; handle_arrival(ev.job); break;
    case EventType::Tick: name = "tick"; handle_tick(); break;
    case EventType::IterationDone:
      name = "iteration-done";
      handle_iteration_done(ev.job, ev.epoch);
      break;
    case EventType::Deadline: name = "deadline"; handle_deadline(ev.job); break;
    case EventType::ServerDown:
      name = "server-down";
      handle_server_down(ev.job, ev.epoch);
      break;
    case EventType::ServerUp: name = "server-up"; handle_server_up(ev.job, ev.epoch); break;
    case EventType::RackOutage:
      name = "rack-outage";
      handle_rack_outage(static_cast<int>(ev.job));
      break;
    case EventType::RetryRelease:
      name = "retry-release";
      handle_retry_release(static_cast<TaskId>(ev.job));
      break;
  }
  if (auditor_) auditor_->after_event(name, ev.job);
  return counters_.jobs_completed + counters_.jobs_failed != cluster_.job_count();
}

RunMetrics SimEngine::finalize() {
  const EngineCounters& c = counters_;
  if (c.jobs_completed + c.jobs_failed < cluster_.job_count()) {
    MLFS_WARN("simulation hit max_sim_time with "
              << (cluster_.job_count() - c.jobs_completed - c.jobs_failed)
              << " jobs incomplete (censored)");
  }

  RunMetrics m;
  m.scheduler = scheduler_.name();
  m.job_count = cluster_.job_count();
  m.jobs_injected = injected_specs_.size();
  m.events_processed = events_processed_;
  m.event_stream_hash = event_hash_;
  double first_arrival = std::numeric_limits<double>::infinity();
  double last_completion = 0.0;
  std::size_t deadline_met = 0;
  std::size_t accuracy_met = 0;
  std::size_t urgent_total = 0;
  std::size_t urgent_met = 0;
  double accuracy_sum = 0.0;
  std::size_t iterations_saved = 0;
  for (Job& job : cluster_.jobs()) {
    if (!job.done()) {
      // Censored job: charge it the full horizon so it cannot improve a
      // scheduler's numbers by never finishing.
      job.set_completion_time(std::max(now_, config_.max_sim_time));
      if (job.iterations_at_deadline() < 0 && now_ > job.deadline()) {
        job.record_deadline_progress();
      }
    }
    const double jct = job.completion_time() - job.spec().arrival;
    m.jct_minutes.add(to_minutes(jct));
    m.waiting_seconds.add(job.waiting_time());
    first_arrival = std::min(first_arrival, job.spec().arrival);
    last_completion = std::max(last_completion, job.completion_time());
    // A failed-permanent job is done() but never "meets" its deadline.
    const bool met_deadline =
        job.state() == JobState::Completed && job.completion_time() <= job.deadline();
    if (met_deadline) ++deadline_met;
    if (job.spec().urgency > 8.0) {
      ++urgent_total;
      if (met_deadline) ++urgent_met;
    }
    const double acc = job.accuracy_by_deadline();
    accuracy_sum += acc;
    if (acc >= job.spec().accuracy_requirement) ++accuracy_met;
    iterations_saved += static_cast<std::size_t>(
        std::max(0, job.spec().max_iterations - job.completed_iterations()));
  }
  const auto n = static_cast<double>(cluster_.job_count());
  m.makespan_hours = to_hours(last_completion - first_arrival);
  m.deadline_ratio = static_cast<double>(deadline_met) / n;
  m.accuracy_ratio = static_cast<double>(accuracy_met) / n;
  m.average_accuracy = accuracy_sum / n;
  m.bandwidth_tb = cluster_.total_bandwidth_mb() / 1e6;
  m.inter_rack_tb = cluster_.inter_rack_bandwidth_mb() / 1e6;
  m.sched_overhead_ms = c.sched_rounds > 0 ? c.sched_wall_ms_total / c.sched_rounds : 0.0;
  m.sched_rounds = c.sched_rounds;
  const SchedStats sstats = scheduler_.sched_stats();
  m.candidates_scanned = sstats.candidates_scanned;
  m.candidates_linear = sstats.candidates_linear;
  m.comm_cache_hits = sstats.comm_cache_hits;
  m.comm_cache_misses = sstats.comm_cache_misses;
  const LoadIndexStats& lstats = cluster_.load_index_stats();
  m.load_index_rebuilds = lstats.full_rebuilds;
  m.load_index_refreshes = lstats.refreshes;
  m.servers_reindexed = lstats.servers_reindexed;
  m.noop_reindexes = lstats.noop_reindexes;
  m.link_busy_seconds = c.link_busy_seconds;
  m.contention_slowdown_seconds = c.contention_slowdown_seconds;
  m.phase_offset_hits = static_cast<std::size_t>(c.phase_offset_hits);
  const PredictStats& predict_stats = prediction_.stats();
  m.fits_cold = predict_stats.fits_cold;
  m.fits_warm = predict_stats.fits_warm;
  m.prediction_cache_hits = predict_stats.cache_hits;
  m.nm_objective_evals = predict_stats.nm_objective_evals;
  m.fit_wall_ms = predict_stats.fit_wall_ms;
  m.run_wall_ms = run_wall_ms_;
  m.overload_occurrences = c.overload_occurrences;
  m.migrations = c.migrations;
  m.preemptions = c.preemptions;
  m.partial_releases = c.partial_releases;
  m.watchdog_evictions = c.watchdog_evictions;
  m.iterations_run = c.iterations_run;
  m.iterations_saved = iterations_saved;
  m.urgent_deadline_ratio =
      urgent_total > 0 ? static_cast<double>(urgent_met) / urgent_total : 0.0;
  m.server_failures = c.server_failures;
  m.rack_outages = c.rack_outages;
  m.task_kills = c.task_kills;
  m.crash_evictions = c.crash_evictions;
  m.iterations_rolled_back = c.iterations_rolled_back;
  m.work_lost_gpu_seconds = c.work_lost_gpu_seconds;
  m.mean_recovery_seconds =
      c.recoveries > 0 ? c.recovery_seconds_sum / static_cast<double>(c.recoveries) : 0.0;
  m.quarantines = health_ ? health_->quarantines() : 0;
  m.quarantine_valve_saves = health_ ? health_->valve_saves() : 0;
  m.task_retries = c.retry_backoffs;
  m.backoff_delay_seconds = c.backoff_delay_seconds_total;
  m.jobs_failed_permanent = c.jobs_failed;
  m.crashes_absorbed = c.crashes_absorbed;
  // Estimated wasted work the quarantine avoided: each crash absorbed by
  // an empty capped server would, on average, have cost what a victimful
  // crash cost in this run.
  m.wasted_work_avoided_gpu_seconds =
      c.victimful_crashes > 0
          ? static_cast<double>(c.crashes_absorbed) *
                (c.work_lost_gpu_seconds / static_cast<double>(c.victimful_crashes))
          : 0.0;
  // Goodput: rolled-back iterations were executed (counted in
  // iterations_run) but not useful; discarded in-flight fractions were
  // executed but never counted.
  const double useful = static_cast<double>(c.iterations_run) -
                        static_cast<double>(c.iterations_rolled_back);
  const double executed =
      static_cast<double>(c.iterations_run) + c.inflight_work_lost_iterations;
  m.goodput = executed > 0.0 ? useful / executed : 1.0;
  if (auditor_) {
    auditor_->check_now("end-of-run");
    auditor_->check_metrics(m);
  }
  return m;
}

}  // namespace mlfs
