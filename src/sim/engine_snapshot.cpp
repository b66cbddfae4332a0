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

#include <array>
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
  // Historical bytes of removed switches at their old defaults — the
  // full-scan load-index switch (on), and the bucketed placement index's
  // placement_bucket_index (on) and placement_index_buckets (512): keeps
  // fingerprints (and the golden_v5–v7 snapshot fixtures) stable.
  w.boolean(true);
  w.boolean(true);
  w.i64(512);
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
    // JobRuntime's columns in their historical order, around the
    // per-server and per-task ones.
    io::write_columns<0, 7>(w, job_runtime_);
    w.vec_u64(server_epoch_);
    io::write_columns<7, 8>(w, job_runtime_);
    w.vec(task_in_backoff_, [&w](char c) { w.u8(static_cast<std::uint8_t>(c)); });
    io::write_columns<8, 9>(w, job_runtime_);
    io::write_fields(w, counters_);
  }

  {
    // The pending event queue, drained from a copy in priority order.
    // Event ordering is a total order (seq is a unique FIFO tiebreak), so
    // rebuilding the heap on restore reproduces the identical pop sequence.
    static_assert(io::lists_every_field<Event>);
    io::BinWriter& w = snap.section("events");
    auto pending = events_;
    w.u64(pending.size());
    for (; !pending.empty(); pending.pop()) io::write_fields(w, pending.top());
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

  // Injected jobs: decoded and checked here, registered at commit.
  // The target engine must be injection-free (freshly constructed from the
  // base workload) — re-registering on top of live injections would
  // duplicate jobs.
  if (!injected_specs_.empty()) {
    throw SnapshotError("injected", 0,
                        "restore target already has injected jobs; restore requires a "
                        "freshly constructed engine");
  }
  std::vector<JobSpec> injected;
  std::size_t task_count = cluster_.task_count();
  {
    io::BinReader r = snap.section("injected");
    try {
      for (std::uint64_t i = 0, count = r.u64(); i < count; ++i) {
        const JobSpec& spec = injected.emplace_back(read_job_spec(r));
        MLFS_EXPECT(spec.id == base_job_count_ + i);
        spec.validate();
        task_count += ModelZoo::task_count(spec);
      }
    } catch (const ContractViolation& e) {
      throw SnapshotError("injected", r.pos(), e.what());
    }
  }

  // The engine and events sections, decoded whole. Every per-job,
  // per-server and per-task column must match the grown engine's counts.
  const std::size_t job_count = base_job_count_ + injected.size();
  std::array<std::array<std::uint64_t, 4>, 3> rng_states;
  SimTime now = 0.0;
  std::uint64_t event_seq = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t event_hash = 0;
  std::vector<TaskId> queue;
  std::vector<JobRuntime> job_runtime(job_count);
  std::vector<std::uint64_t> server_epoch;
  std::vector<char> task_in_backoff;
  EngineCounters counters;
  {
    io::BinReader r = snap.section("engine");
    try {
      now = r.f64();
      event_seq = r.u64();
      events_processed = r.u64();
      event_hash = r.u64();
      for (auto& state : rng_states) {
        for (std::uint64_t& word : state) word = r.u64();
      }
      queue = r.vec<TaskId>([&r] { return static_cast<TaskId>(r.u64()); });
      for (const TaskId t : queue) MLFS_EXPECT(t < task_count);
      io::read_columns<0, 7>(r, job_runtime);
      server_epoch = r.vec_u64();
      MLFS_EXPECT(server_epoch.size() == cluster_.server_count());
      io::read_columns<7, 8>(r, job_runtime);
      task_in_backoff = r.vec<char>([&r] { return static_cast<char>(r.u8()); });
      MLFS_EXPECT(task_in_backoff.size() == task_count);
      io::read_columns<8, 9>(r, job_runtime);
      io::read_fields(r, counters);
      MLFS_EXPECT(r.at_end());
    } catch (const ContractViolation& e) {
      throw SnapshotError("engine", r.pos(), e.what());
    }
  }
  std::vector<Event> events;
  {
    io::BinReader r = snap.section("events");
    try {
      events = r.vec<Event>([&] {
        Event ev;
        io::read_fields(r, ev);
        switch (ev.type) {
          case EventType::Arrival:
          case EventType::IterationDone:
          case EventType::Deadline: MLFS_EXPECT(ev.job < job_count); break;
          case EventType::ServerDown:
          case EventType::ServerUp: MLFS_EXPECT(ev.job < cluster_.server_count()); break;
          case EventType::RetryRelease: MLFS_EXPECT(ev.job < task_count); break;
          case EventType::Tick:
          case EventType::RackOutage: break;
          default: throw ContractViolation("unknown event type");
        }
        return ev;
      });
    } catch (const ContractViolation& e) {
      throw SnapshotError("events", r.pos(), e.what());
    }
  }

  // Commit. Registering the injected jobs re-grows the cluster to the size
  // every following section was serialized under.
  for (const JobSpec& spec : injected) {
    auto inst = ModelZoo::instantiate(spec, static_cast<TaskId>(cluster_.task_count()));
    cluster_.register_job(std::move(inst.job), std::move(inst.tasks));
  }
  injected_specs_ = std::move(injected);
  now_ = now;
  event_seq_ = event_seq;
  events_processed_ = events_processed;
  event_hash_ = event_hash;
  rng_.set_state(rng_states[0]);
  fault_rng_.set_state(rng_states[1]);
  recovery_rng_.set_state(rng_states[2]);
  queue_ = std::move(queue);
  job_runtime_ = std::move(job_runtime);
  server_epoch_ = std::move(server_epoch);
  task_in_backoff_ = std::move(task_in_backoff);
  counters_ = counters;
  // Replaces the fresh-constructor arrivals/crash seeds. The event order is
  // total (seq is a unique tiebreak), so heapifying pops the same sequence.
  events_ = decltype(events_)(std::greater<>(), std::move(events));

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
