// SimEngine snapshot/restore (see DESIGN.md, "Snapshot & restore").
//
// The restore protocol: construct a fresh SimEngine from the *same*
// (ClusterConfig, EngineConfig, specs, scheduler) arguments the snapshot
// was written under — that rebuilds all static structure (specs, DAGs,
// curves, server shapes) — then call restore_snapshot(), which overwrites
// every piece of dynamic state. config_fingerprint() guards the "same
// arguments" precondition; the SnapshotReader validates the whole file
// (magic, version, framing, checksum, fingerprint) before a single engine
// field is touched, so a rejected file leaves the engine unchanged.

#include <bit>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/binio.hpp"
#include "sim/engine.hpp"
#include "sim/journal.hpp"
#include "sim/snapshot.hpp"
#include "workload/model_zoo.hpp"

namespace mlfs {

namespace {

void write_rng(io::BinWriter& w, const Rng& rng) {
  for (const std::uint64_t word : rng.state()) w.u64(word);
}

void read_rng(io::BinReader& r, Rng& rng) {
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) word = r.u64();
  rng.set_state(state);
}

void write_char_vec(io::BinWriter& w, const std::vector<char>& v) {
  w.vec(v, [&w](char c) { w.u8(static_cast<std::uint8_t>(c)); });
}

std::vector<char> read_char_vec(io::BinReader& r) {
  return r.vec<char>([&r] { return static_cast<char>(r.u8()); });
}

// The public Scheduler / LoadController hooks speak streams; these two
// adapters are where a section's bytes cross to and from them.
template <typename Component>
void save_stream_section(SnapshotWriter& snap, const std::string& name,
                         const Component& component) {
  std::ostringstream os(std::ios::binary);
  component.save_state(os);
  const std::string_view payload = os.view();
  snap.section(name).bytes(payload.data(), payload.size());
}

std::istringstream section_stream(const SnapshotReader& snap, const std::string& name) {
  io::BinReader r = snap.section(name);
  return std::istringstream(std::string(r.view(r.remaining())), std::ios::binary);
}

}  // namespace

std::uint64_t SimEngine::config_fingerprint() const {
  if (!config_fingerprint_) config_fingerprint_ = compute_config_fingerprint();
  return *config_fingerprint_;
}

std::uint64_t SimEngine::compute_config_fingerprint() const {
  // Canonical little-endian serialization of everything that determines
  // the simulation's static structure and its random streams; AuditConfig
  // is deliberately excluded (the auditor is a pure observer — restoring
  // under different audit settings is legitimate and resyncs cleanly).
  std::string bytes;
  io::BinWriter w(bytes);

  w.u64(cluster_config_.server_count);
  w.i64(cluster_config_.gpus_per_server);
  w.u64(cluster_config_.total_gpus);
  w.f64(cluster_config_.server_bandwidth_mbps);
  w.f64(cluster_config_.effective_flow_bandwidth_mbps);
  w.i64(cluster_config_.servers_per_rack);
  w.f64(cluster_config_.inter_rack_flow_bandwidth_mbps);
  w.f64(cluster_config_.slow_server_fraction);
  w.f64(cluster_config_.slow_server_speed);
  // Historical byte of the removed full-scan load-index switch, always on
  // then as the index is now: keeps fingerprints (and the golden_v5/v6
  // snapshot fixtures) stable.
  w.boolean(true);
  w.boolean(cluster_config_.placement_bucket_index);
  w.i64(cluster_config_.placement_index_buckets);
  w.boolean(cluster_config_.debug_slot_leak);
  w.boolean(cluster_config_.link_contention);
  w.f64(cluster_config_.nic_capacity_mbps);
  w.f64(cluster_config_.rack_uplink_capacity_mbps);
  w.boolean(cluster_config_.duty_cycles);

  w.f64(config_.tick_interval);
  w.f64(config_.hr);
  w.f64(config_.usage_noise_sigma);
  w.f64(config_.migration_fixed_penalty_seconds);
  w.f64(config_.max_sim_time);
  w.u64(config_.seed);
  w.i64(config_.optstop_check_interval);
  w.f64(config_.optstop_near_max_fraction);
  w.f64(config_.optstop_confidence_threshold);
  w.i64(config_.stall_ticks_before_eviction);
  w.f64(config_.straggler_probability);
  w.f64(config_.straggler_slowdown);
  w.i64(config_.straggler_replicas);
  w.f64(config_.partial_placement_timeout);

  const FaultConfig& f = config_.fault;
  w.f64(f.server_mtbf_hours);
  w.f64(f.server_mttr_hours);
  w.f64(f.task_kill_probability);
  w.f64(f.rack_mtbf_hours);
  w.f64(f.rack_mttr_hours);
  w.i64(f.checkpoint_interval_iterations);
  w.f64(f.flaky_server_fraction);
  w.f64(f.flaky_rate_multiplier);

  const RecoveryConfig& rc = config_.recovery;
  w.boolean(rc.enabled);
  w.f64(rc.kill_weight);
  w.f64(rc.score_halflife_hours);
  w.boolean(rc.quarantine_enabled);
  w.f64(rc.quarantine_score_threshold);
  w.f64(rc.quarantine_base_minutes);
  w.f64(rc.quarantine_backoff_factor);
  w.f64(rc.quarantine_max_minutes);
  w.f64(rc.probation_minutes);
  w.i64(rc.probation_task_cap);
  w.f64(rc.min_active_fraction);
  w.boolean(rc.retry_backoff_enabled);
  w.i64(rc.retry_budget);
  w.f64(rc.backoff_base_seconds);
  w.f64(rc.backoff_factor);
  w.f64(rc.backoff_max_seconds);
  w.f64(rc.backoff_jitter);
  w.boolean(rc.adaptive_checkpoint);
  w.f64(rc.checkpoint_cost_seconds);
  w.i64(rc.max_checkpoint_interval);
  w.boolean(rc.spread_placement);

  // Prediction service. The fit-chain tuning used to be settable and was
  // fingerprinted here; its constants (and a true byte where the removed
  // service on/off switch stood) keep the bytes, and so the fingerprints of
  // older snapshots, unchanged. Coarsening changes results outright.
  using PS = PredictionService;
  w.boolean(true);
  w.f64(PS::kWarmStepScale);
  w.f64(PS::kWarmStepFloor);
  w.i64(PS::kRestartBudget);
  w.f64(PS::kRegressionFactor);
  w.f64(PS::kRegressionEpsilon);
  w.f64(PS::kSettleFactor);
  w.f64(PS::kSettleEpsilon);
  w.f64(PS::kFreezeWeightThreshold);
  w.i64(PS::kFreezeStreak);
  w.i64(PS::kFreezeMinLinks);
  w.boolean(config_.coarsen_curve);
  w.i64(PS::kCoarsenHead);
  w.i64(PS::kCoarsenPerOctave);

  w.str(scheduler_.name());
  w.str(load_controller_ != nullptr ? load_controller_->name() : std::string());

  // Base workload only: jobs streamed in after construction are dynamic
  // inputs (journaled, and carried in the snapshot's "injected" section),
  // so they must not invalidate the fingerprint — a recovering engine is
  // constructed injection-free and must still match. write_job_spec's
  // field order is this fingerprint's historical order, so non-streaming
  // runs keep the exact pre-v5 value.
  w.u64(static_cast<std::uint64_t>(base_job_count_));
  for (std::size_t i = 0; i < base_job_count_; ++i) {
    write_job_spec(w, cluster_.job(static_cast<JobId>(i)).spec());
  }

  return fnv1a(bytes.data(), bytes.size());
}

void SimEngine::save_snapshot(std::ostream& os) const {
  SnapshotWriter snap(config_fingerprint());

  {
    io::BinWriter& w = snap.section("engine");
    w.f64(now_);
    w.u64(event_seq_);
    w.u64(events_processed_);
    w.u64(event_hash_);
    write_rng(w, rng_);
    write_rng(w, fault_rng_);
    write_rng(w, recovery_rng_);
    w.vec(queue_, [&w](TaskId t) { w.u64(t); });
    w.vec_u64(job_epoch_);
    w.vec_f64(waiting_since_);
    w.vec_f64(partial_since_);
    write_char_vec(w, deadline_recorded_);
    w.vec_f64(iter_started_);
    w.vec_f64(iter_duration_);
    w.vec_f64(resume_credit_);
    w.vec_u64(server_epoch_);
    w.vec_f64(fault_stopped_since_);
    write_char_vec(w, task_in_backoff_);
    w.vec(retries_used_, [&w](int v) { w.i64(v); });
    w.u64(jobs_completed_);
    w.u64(jobs_failed_);
    w.u64(overload_occurrences_);
    w.u64(migrations_);
    w.u64(preemptions_);
    w.u64(partial_releases_);
    w.u64(watchdog_evictions_);
    w.u64(iterations_run_);
    w.u64(server_failures_);
    w.u64(rack_outages_);
    w.u64(task_kills_);
    w.u64(crash_evictions_);
    w.u64(retry_backoffs_);
    w.f64(backoff_delay_seconds_total_);
    w.u64(crashes_absorbed_);
    w.u64(victimful_crashes_);
    w.u64(iterations_rolled_back_);
    w.f64(inflight_work_lost_iterations_);
    w.f64(work_lost_gpu_seconds_);
    w.f64(recovery_seconds_sum_);
    w.u64(recoveries_);
    w.f64(sched_wall_ms_total_);
    w.u64(sched_rounds_);
    w.f64(link_busy_seconds_);
    w.f64(contention_slowdown_seconds_);
    w.u64(phase_offset_hits_);
    w.i64(stall_ticks_);
    w.boolean(tick_armed_);
  }

  {
    // The pending event queue, drained from a copy in priority order.
    // Event ordering is a total order (seq is a unique FIFO tiebreak), so
    // re-pushing on restore reproduces the identical pop sequence.
    io::BinWriter& w = snap.section("events");
    auto pending = events_;
    w.u64(pending.size());
    while (!pending.empty()) {
      const Event& ev = pending.top();
      w.f64(ev.time);
      w.u64(ev.seq);
      w.u8(static_cast<std::uint8_t>(ev.type));
      w.u64(ev.job);
      w.u64(ev.epoch);
      pending.pop();
    }
  }

  {
    // Jobs streamed in after construction. Restore replays this section
    // before any dynamic state so every per-job container regains the
    // grown size the other sections were serialized under.
    io::BinWriter& w = snap.section("injected");
    w.u64(injected_specs_.size());
    for (const JobSpec& spec : injected_specs_) write_job_spec(w, spec);
  }

  cluster_.save_state(snap.section("cluster"));
  if (cluster_config_.link_contention) cluster_.save_link_state(snap.section("links"));
  if (health_) health_->save_state(snap.section("health"));
  prediction_.runtime().save_state(snap.section("predictor"));
  prediction_.save_state(snap.section("predict"));

  // Opaque per-component payloads: each component alone interprets its
  // bytes (Scheduler::save_state contract).
  save_stream_section(snap, "scheduler", scheduler_);
  if (load_controller_ != nullptr) save_stream_section(snap, "controller", *load_controller_);

  snap.write(os);
}

std::vector<char> SimEngine::arrived_flags() const {
  // Job state alone is ambiguous (pre-arrival jobs are also Waiting): a job
  // has arrived iff no Arrival event for it is still pending.
  std::vector<char> arrived(cluster_.job_count(), 1);
  auto pending = events_;  // priority_queue: drain a copy to iterate
  while (!pending.empty()) {
    const Event& ev = pending.top();
    if (ev.type == EventType::Arrival && ev.job < arrived.size()) arrived[ev.job] = 0;
    pending.pop();
  }
  return arrived;
}

void SimEngine::restore_snapshot(std::istream& is) {
  // Validates the whole file — throws SnapshotError before any engine
  // state is touched.
  SnapshotReader snap(is, config_fingerprint());

  // The fingerprint covers recovery.enabled and the controller identity,
  // so these can only diverge on a hand-crafted file; still never let a
  // mismatch silently drop state.
  if (snap.has_section("health") != (health_ != nullptr)) {
    throw SnapshotError("health", 0,
                        "health section presence does not match the engine's recovery config");
  }
  if (snap.has_section("controller") != (load_controller_ != nullptr)) {
    throw SnapshotError("controller", 0,
                        "controller section presence does not match the engine");
  }
  if (snap.has_section("links") != cluster_config_.link_contention) {
    throw SnapshotError("links", 0,
                        "links section presence does not match the link-contention config");
  }
  // Decoded (and checked) up front, installed in section order below.
  PredictionService::SavedState predict_state;
  {
    io::BinReader r = snap.section("predict");
    try {
      predict_state = prediction_.read_state(r);
    } catch (const ContractViolation& e) {
      throw SnapshotError("predict", r.pos(), e.what());
    }
  }

  {
    // Injected jobs first: registering them re-grows the cluster/engine to
    // the size every following section was serialized under. The target
    // engine must be injection-free (freshly constructed from the base
    // workload) — re-registering on top of live injections would duplicate
    // jobs.
    io::BinReader r = snap.section("injected");
    const std::uint64_t count = r.u64();
    if (!injected_specs_.empty()) {
      throw SnapshotError("injected", 0,
                          "restore target already has injected jobs; restore requires a "
                          "freshly constructed engine");
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      JobSpec spec = read_job_spec(r);
      MLFS_EXPECT(spec.id == static_cast<JobId>(cluster_.job_count()));
      auto inst = ModelZoo::instantiate(spec, static_cast<TaskId>(cluster_.task_count()));
      cluster_.register_job(std::move(inst.job), std::move(inst.tasks));
      injected_specs_.push_back(spec);
    }
  }

  {
    io::BinReader r = snap.section("engine");
    now_ = r.f64();
    event_seq_ = r.u64();
    events_processed_ = r.u64();
    event_hash_ = r.u64();
    read_rng(r, rng_);
    read_rng(r, fault_rng_);
    read_rng(r, recovery_rng_);
    queue_ = r.vec<TaskId>([&r] { return static_cast<TaskId>(r.u64()); });
    job_epoch_ = r.vec_u64();
    waiting_since_ = r.vec_f64();
    partial_since_ = r.vec_f64();
    deadline_recorded_ = read_char_vec(r);
    iter_started_ = r.vec_f64();
    iter_duration_ = r.vec_f64();
    resume_credit_ = r.vec_f64();
    server_epoch_ = r.vec_u64();
    fault_stopped_since_ = r.vec_f64();
    task_in_backoff_ = read_char_vec(r);
    retries_used_ = r.vec<int>([&r] { return static_cast<int>(r.i64()); });
    jobs_completed_ = static_cast<std::size_t>(r.u64());
    jobs_failed_ = static_cast<std::size_t>(r.u64());
    overload_occurrences_ = static_cast<std::size_t>(r.u64());
    migrations_ = static_cast<std::size_t>(r.u64());
    preemptions_ = static_cast<std::size_t>(r.u64());
    partial_releases_ = static_cast<std::size_t>(r.u64());
    watchdog_evictions_ = static_cast<std::size_t>(r.u64());
    iterations_run_ = static_cast<std::size_t>(r.u64());
    server_failures_ = static_cast<std::size_t>(r.u64());
    rack_outages_ = static_cast<std::size_t>(r.u64());
    task_kills_ = static_cast<std::size_t>(r.u64());
    crash_evictions_ = static_cast<std::size_t>(r.u64());
    retry_backoffs_ = static_cast<std::size_t>(r.u64());
    backoff_delay_seconds_total_ = r.f64();
    crashes_absorbed_ = static_cast<std::size_t>(r.u64());
    victimful_crashes_ = static_cast<std::size_t>(r.u64());
    iterations_rolled_back_ = static_cast<std::size_t>(r.u64());
    inflight_work_lost_iterations_ = r.f64();
    work_lost_gpu_seconds_ = r.f64();
    recovery_seconds_sum_ = r.f64();
    recoveries_ = static_cast<std::size_t>(r.u64());
    sched_wall_ms_total_ = r.f64();
    sched_rounds_ = static_cast<std::size_t>(r.u64());
    link_busy_seconds_ = r.f64();
    contention_slowdown_seconds_ = r.f64();
    phase_offset_hits_ = r.u64();
    stall_ticks_ = static_cast<int>(r.i64());
    tick_armed_ = r.boolean();
    MLFS_EXPECT(job_epoch_.size() == cluster_.job_count());
    MLFS_EXPECT(server_epoch_.size() == cluster_.server_count());
    MLFS_EXPECT(task_in_backoff_.size() == cluster_.task_count());
  }

  {
    io::BinReader r = snap.section("events");
    events_ = {};  // drop the fresh-constructor arrivals/crash seeds
    const std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      Event ev;
      ev.time = r.f64();
      ev.seq = r.u64();
      ev.type = static_cast<EventType>(r.u8());
      ev.job = static_cast<JobId>(r.u64());
      ev.epoch = r.u64();
      events_.push(ev);
    }
  }

  {
    io::BinReader r = snap.section("cluster");
    cluster_.restore_state(r, snap.version());
  }
  {
    // The live job set is derived state, not serialized.
    const std::vector<char> arrived = arrived_flags();
    std::vector<JobId> live;
    for (JobId id = 0; id < cluster_.job_count(); ++id) {
      if (arrived[id] && !cluster_.job(id).done()) live.push_back(id);
    }
    cluster_.assign_live_jobs(std::move(live));
  }
  if (cluster_config_.link_contention) {
    io::BinReader r = snap.section("links");
    cluster_.restore_link_state(r);
  }
  if (health_) {
    io::BinReader r = snap.section("health");
    health_->restore_state(r);
  }
  {
    io::BinReader r = snap.section("predictor");
    prediction_.runtime().restore_state(r);
  }
  prediction_.restore_state(std::move(predict_state));

  {
    std::istringstream payload = section_stream(snap, "scheduler");
    // Scheduler payloads last changed in v6.
    if (snap.version() >= 6) {
      scheduler_.restore_state(payload);
    } else {
      scheduler_.restore_legacy_state(payload, snap.version());
    }
  }
  if (load_controller_ != nullptr) {
    std::istringstream payload = section_stream(snap, "controller");
    load_controller_->restore_state(payload);
  }

  // The auditor is never serialized: it re-derives its observational state
  // from the restored engine (keeping the stride phase aligned) and
  // immediately sweeps the full invariant catalog.
  if (auditor_) auditor_->resync_after_restore();
}

}  // namespace mlfs
