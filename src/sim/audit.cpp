#include "sim/audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "sim/engine.hpp"
#include "sim/metrics.hpp"

namespace mlfs {

namespace {

/// Tolerance for incrementally-maintained usage sums vs a full recompute:
/// detach clamps at zero, so sums can carry float rounding from the
/// attach/detach history (same bound Cluster::validate uses). Real leaks —
/// a whole task's usage — are orders of magnitude larger.
constexpr double kUsageTol = 1e-6;
/// Relative tolerance for end-of-run mean reconciliation (the metrics and
/// the auditor may sum in different orders).
constexpr double kMeanTol = 1e-9;

bool close(double a, double b, double tol) { return std::abs(a - b) < tol; }

}  // namespace

std::string AuditReport::to_string() const {
  std::ostringstream out;
  out << "invariant violated: " << invariant << "\n  at sim_time=" << sim_time
      << "s event=" << event << " (event #" << event_index << ")\n  " << detail;
  return out.str();
}

AuditViolation::AuditViolation(AuditReport report)
    : ContractViolation(report.to_string()), report_(std::move(report)) {}

SimAuditor::SimAuditor(const SimEngine& engine)
    : engine_(engine), arrived_(engine.cluster_.job_count(), 0) {}

void SimAuditor::fail(const char* invariant, const std::string& detail) const {
  throw AuditViolation(AuditReport{invariant, detail, current_event_, engine_.now_,
                                   events_seen_});
}

void SimAuditor::on_sim_start() {
  current_event_ = "sim-start";
  check_dag_structure();
  check_now("sim-start");
}

void SimAuditor::after_event(const char* event, JobId subject) {
  ++events_seen_;
  // Arrival tracking must see every event (the queue-coverage invariant
  // only applies to jobs whose arrival has actually been processed; the
  // spec's arrival time alone is ambiguous at equal-time event ties).
  if (std::strcmp(event, "arrival") == 0 && subject < arrived_.size()) arrived_[subject] = 1;
  const int stride = std::max(1, engine_.config_.audit.stride);
  if (events_seen_ % static_cast<std::uint64_t>(stride) != 0) return;
  check_now(event);
}

void SimAuditor::on_job_injected() {
  // The streamed job was just registered; its Arrival event is pending,
  // so it has not arrived yet.
  arrived_.resize(engine_.cluster_.job_count(), 0);
}

void SimAuditor::resync_after_restore() {
  current_event_ = "restore";
  events_seen_ = engine_.events_processed_;
  // Arrival tracking from the restored event queue (the same derivation
  // the engine's restore uses for the live job set; restore may also have
  // registered injected jobs, which it covers).
  arrived_ = engine_.arrived_flags();
  last_now_ = engine_.now_;
  last_counters_ = engine_.counters_;
  last_bandwidth_mb_ = engine_.cluster_.total_bandwidth_mb();
  last_inter_rack_mb_ = engine_.cluster_.inter_rack_bandwidth_mb();
  check_now("restore");
}

void SimAuditor::check_now(const char* context) {
  current_event_ = context;
  ++audits_;
  check_servers_and_tasks();
  check_load_index();
  check_queue();
  check_link_model();
  check_comm_plans();
  check_jobs();
  check_live_set();
  check_prediction_service();
  check_accounting();
  engine_.scheduler_.audit_invariants(engine_.cluster_, engine_.now_);
}

// ------------------------------------------------------------ DAG

void SimAuditor::check_dag_structure() const {
  const Cluster& cluster = engine_.cluster_;
  for (const Job& job : cluster.jobs()) {
    const Dag& dag = job.dag();
    if (dag.node_count() != job.task_count()) {
      fail("dag-structure", "job " + std::to_string(job.id()) + ": dag has " +
                                std::to_string(dag.node_count()) + " nodes but " +
                                std::to_string(job.task_count()) + " tasks");
    }
    if (!dag.is_acyclic()) {
      fail("dag-structure", "job " + std::to_string(job.id()) + ": dag is cyclic");
    }
    // The order the engine walks covers every node once, parents strictly
    // first.
    const std::vector<std::size_t>& order = job.topological_order();
    std::vector<std::size_t> position(dag.node_count(), dag.node_count());
    if (order.size() != dag.node_count()) {
      fail("dag-structure",
           "job " + std::to_string(job.id()) + ": topological order has " +
               std::to_string(order.size()) + " of " + std::to_string(dag.node_count()) +
               " nodes");
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] >= dag.node_count() || position[order[i]] != dag.node_count()) {
        fail("dag-structure", "job " + std::to_string(job.id()) +
                                  ": topological order repeats or exceeds node ids");
      }
      position[order[i]] = i;
    }
    for (std::size_t u = 0; u < dag.node_count(); ++u) {
      for (const std::size_t v : dag.children(u)) {
        if (v >= dag.node_count() || position[u] >= position[v]) {
          fail("dag-structure", "job " + std::to_string(job.id()) + ": edge " +
                                    std::to_string(u) + "->" + std::to_string(v) +
                                    " violates topological order");
        }
        // Adjacency mirrors: every child edge has the matching parent edge.
        const auto& ps = dag.parents(v);
        if (std::find(ps.begin(), ps.end(), u) == ps.end()) {
          fail("dag-structure", "job " + std::to_string(job.id()) + ": edge " +
                                    std::to_string(u) + "->" + std::to_string(v) +
                                    " missing from parents list");
        }
      }
    }
    // Static spec sanity used throughout the engine's arithmetic.
    if (job.deadline() < job.spec().arrival) {
      fail("dag-structure",
           "job " + std::to_string(job.id()) + ": deadline precedes arrival");
    }
    for (const TaskId tid : job.tasks()) {
      if (tid >= cluster.task_count() || cluster.task(tid).job != job.id()) {
        fail("dag-structure", "job " + std::to_string(job.id()) + ": task id " +
                                  std::to_string(tid) + " invalid or owned by another job");
      }
    }
  }
}

// --------------------------------------------- servers & placement

void SimAuditor::check_servers_and_tasks() const {
  const Cluster& cluster = engine_.cluster_;
  std::vector<char> placed_somewhere(cluster.task_count(), 0);
  for (const Server& s : cluster.servers()) {
    if (!s.up()) {
      if (s.task_count() != 0) {
        fail("task-on-down-server", "server " + std::to_string(s.id()) + " is down but hosts " +
                                        std::to_string(s.task_count()) + " tasks");
      }
      const ResourceVector idle = s.utilization();
      for (std::size_t r = 0; r < kNumResources; ++r) {
        if (idle.at(r) >= 1e-9) {
          fail("server-usage", "down server " + std::to_string(s.id()) +
                                   " has residual utilization " + std::to_string(idle.at(r)) +
                                   " on resource " + std::to_string(r));
        }
      }
    }
    // GPU slot conservation: the per-GPU lists partition the server's task
    // list, and the incremental usage sums match a recompute from the task
    // pool (a mismatch is exactly a leaked / double-counted slot).
    ResourceVector recomputed;
    std::vector<double> gpu_sums(static_cast<std::size_t>(s.gpu_count()), 0.0);
    std::size_t counted = 0;
    for (int g = 0; g < s.gpu_count(); ++g) {
      for (const TaskId tid : s.tasks_on_gpu(g)) {
        const Task& t = cluster.task(tid);
        if (t.server != s.id() || t.gpu != g || t.state != TaskState::Running) {
          fail("slot-conservation",
               "task " + std::to_string(tid) + " listed on server " + std::to_string(s.id()) +
                   " gpu " + std::to_string(g) + " but records server=" +
                   std::to_string(t.server) + " gpu=" + std::to_string(t.gpu));
        }
        if (placed_somewhere[tid]) {
          fail("slot-conservation",
               "task " + std::to_string(tid) + " appears on more than one GPU slot");
        }
        placed_somewhere[tid] = 1;
        const ResourceVector usage = t.demand * t.usage_factor;
        recomputed[Resource::Cpu] += usage[Resource::Cpu];
        recomputed[Resource::Mem] += usage[Resource::Mem];
        recomputed[Resource::Net] += usage[Resource::Net];
        gpu_sums[static_cast<std::size_t>(g)] += usage[Resource::Gpu];
        ++counted;
      }
    }
    if (counted != s.task_count()) {
      fail("slot-conservation", "server " + std::to_string(s.id()) + ": gpu lists hold " +
                                    std::to_string(counted) + " tasks but task list holds " +
                                    std::to_string(s.task_count()));
    }
    const ResourceVector cached = s.utilization();
    for (const Resource r : {Resource::Cpu, Resource::Mem, Resource::Net}) {
      if (!close(cached[r], recomputed[r], kUsageTol)) {
        std::ostringstream out;
        out << "server " << s.id() << " resource " << static_cast<int>(r)
            << ": cached usage sum " << cached[r] << " != recomputed " << recomputed[r]
            << " (leaked or double-counted slot)";
        fail("server-usage", out.str());
      }
    }
    for (int g = 0; g < s.gpu_count(); ++g) {
      if (!close(s.gpu_load(g), gpu_sums[static_cast<std::size_t>(g)], kUsageTol)) {
        std::ostringstream out;
        out << "server " << s.id() << " gpu " << g << ": cached load " << s.gpu_load(g)
            << " != recomputed " << gpu_sums[static_cast<std::size_t>(g)]
            << " (leaked or double-counted slot)";
        fail("server-usage", out.str());
      }
    }
  }
  for (TaskId tid = 0; tid < cluster.task_count(); ++tid) {
    const Task& t = cluster.task(tid);
    if (t.placed() != (t.state == TaskState::Running)) {
      fail("task-state", "task " + std::to_string(tid) + ": placed=" +
                             std::to_string(t.placed()) + " inconsistent with state " +
                             std::to_string(static_cast<int>(t.state)));
    }
    if (t.placed()) {
      if (t.server >= cluster.server_count()) {
        fail("task-state",
             "task " + std::to_string(tid) + " placed on invalid server " +
                 std::to_string(t.server));
      }
      if (!cluster.server(t.server).up()) {
        fail("task-on-down-server", "task " + std::to_string(tid) + " resident on down server " +
                                        std::to_string(t.server));
      }
      if (!placed_somewhere[tid]) {
        fail("slot-conservation", "task " + std::to_string(tid) + " records server " +
                                      std::to_string(t.server) +
                                      " but is missing from its GPU lists");
      }
    } else if (placed_somewhere[tid]) {
      fail("slot-conservation",
           "task " + std::to_string(tid) + " is unplaced but still on a server task list");
    }
    if (t.state == TaskState::Finished && !cluster.job(t.job).done()) {
      fail("task-state", "task " + std::to_string(tid) + " finished but job " +
                             std::to_string(t.job) + " is not done");
    }
  }
}

// ----------------------------------------------------- load index

void SimAuditor::check_load_index() const {
  const Cluster& cluster = engine_.cluster_;
  if (!cluster.index_valid_) return;
  const std::size_t n = cluster.server_count();
  if (cluster.index_overloaded_.size() != n || cluster.index_underloaded_.size() != n ||
      cluster.index_slots_.size() != n || cluster.index_dirty_.size() != n) {
    fail("load-index", "index arrays not sized to the fleet");
  }
  // Partition id vectors: sorted ascending, mirror the flag arrays.
  for (const auto* ids : {&cluster.underloaded_ids_, &cluster.overloaded_ids_}) {
    for (std::size_t i = 0; i + 1 < ids->size(); ++i) {
      if ((*ids)[i] >= (*ids)[i + 1]) {
        fail("load-index", "partition id vector not strictly ascending");
      }
    }
  }
  std::vector<char> in_under(n, 0);
  std::vector<char> in_over(n, 0);
  for (const ServerId id : cluster.underloaded_ids_) {
    if (id >= n) fail("load-index", "underloaded id out of range");
    in_under[id] = 1;
  }
  for (const ServerId id : cluster.overloaded_ids_) {
    if (id >= n) fail("load-index", "overloaded id out of range");
    in_over[id] = 1;
  }
  long long total_slots = 0;
  std::vector<char> dirty_listed(n, 0);
  for (const ServerId id : cluster.index_dirty_ids_) {
    if (id >= n) fail("load-index", "dirty id out of range");
    if (dirty_listed[id] != 0) {
      fail("load-index",
           "server " + std::to_string(id) + " listed twice in the dirty set (dedupe broken)");
    }
    dirty_listed[id] = 1;
  }
  for (ServerId id = 0; id < n; ++id) {
    const bool flag_over = cluster.index_overloaded_[id] != 0;
    const bool flag_under = cluster.index_underloaded_[id] != 0;
    if (flag_over != (in_over[id] != 0) || flag_under != (in_under[id] != 0)) {
      fail("load-index", "server " + std::to_string(id) +
                             ": partition flags disagree with the sorted id vectors");
    }
    if (flag_over && flag_under) {
      fail("load-index",
           "server " + std::to_string(id) + " is both overloaded and underloaded");
    }
    if ((cluster.index_dirty_[id] != 0) != (dirty_listed[id] != 0)) {
      fail("load-index", "server " + std::to_string(id) +
                             ": dirty flag disagrees with the dirty id list");
    }
    total_slots += cluster.index_slots_[id];
    if (cluster.index_dirty_[id] != 0) continue;  // stale by design until next refresh
    // Clean server: every cached quantity must equal a live recompute.
    // This is the incremental-index == full-rescan ground-truth oracle; it
    // reads the index as the engine left it and must NOT go through the
    // refreshing query API, which would clear the dirty set under test.
    const Server& s = cluster.server(id);
    const bool over = s.up() && s.overloaded(cluster.index_hr_);
    const bool under = s.accepts_placements() && !over;
    if (over != flag_over || under != flag_under) {
      std::ostringstream out;
      out << "server " << id << " is clean but cached partition (over=" << flag_over
          << ", under=" << flag_under << ") != rescan (over=" << over << ", under=" << under
          << ") at hr=" << cluster.index_hr_;
      fail("load-index", out.str());
    }
    const int slots = s.up() ? Cluster::server_slot_estimate(s, cluster.index_hr_) : 0;
    if (slots != cluster.index_slots_[id]) {
      fail("load-index", "server " + std::to_string(id) + ": cached slot estimate " +
                             std::to_string(cluster.index_slots_[id]) + " != rescan " +
                             std::to_string(slots));
    }
    const ResourceVector live = s.utilization();
    for (std::size_t r = 0; r < kNumResources; ++r) {
      if (live.at(r) != cluster.index_util_[id].at(r)) {
        fail("load-index", "server " + std::to_string(id) +
                               ": cached utilization diverged from live on clean server");
      }
    }
    const int least = s.least_loaded_gpu();
    if (least != cluster.index_least_gpu_[id] ||
        s.gpu_load(least) != cluster.index_least_load_[id]) {
      fail("load-index", "server " + std::to_string(id) +
                             ": cached least-loaded GPU diverged from live on clean server");
    }
  }
  if (total_slots != cluster.index_total_slots_) {
    fail("load-index", "free-slot aggregate " + std::to_string(cluster.index_total_slots_) +
                           " != sum of per-server estimates " + std::to_string(total_slots));
  }
}

// ---------------------------------------------------------- queue

void SimAuditor::check_queue() const {
  const Cluster& cluster = engine_.cluster_;
  std::vector<char> in_queue(cluster.task_count(), 0);
  for (const TaskId tid : engine_.queue_) {
    if (tid >= cluster.task_count()) {
      fail("queue-consistency", "queue holds invalid task id " + std::to_string(tid));
    }
    const Task& t = cluster.task(tid);
    if (t.state == TaskState::Running) {
      fail("queue-consistency",
           "task " + std::to_string(tid) + " is running but still has a queue entry");
    }
    // Entries for finished tasks of completed jobs are tolerated until the
    // next compaction; anything else non-queued is a leak.
    if (t.state != TaskState::Queued && !cluster.job(t.job).done()) {
      fail("queue-consistency", "queue entry for task " + std::to_string(tid) +
                                    " in state " + std::to_string(static_cast<int>(t.state)) +
                                    " of an unfinished job");
    }
    in_queue[tid] = 1;
    if (tid < engine_.task_in_backoff_.size() && engine_.task_in_backoff_[tid]) {
      fail("queue-consistency", "task " + std::to_string(tid) +
                                    " is in retry backoff but still has a queue entry");
    }
  }
  // Coverage: every queued task of an arrived, unfinished job must be
  // reachable by the scheduler (gang placement cannot complete otherwise)
  // — unless it is parked in a retry-backoff window, in which case a
  // pending RetryRelease event owns its re-admission instead.
  for (TaskId tid = 0; tid < cluster.task_count(); ++tid) {
    const Task& t = cluster.task(tid);
    const bool in_backoff =
        tid < engine_.task_in_backoff_.size() && engine_.task_in_backoff_[tid] != 0;
    if (in_backoff && t.state != TaskState::Queued) {
      fail("queue-consistency", "task " + std::to_string(tid) + " is in retry backoff but in state " +
                                    std::to_string(static_cast<int>(t.state)));
    }
    if (t.state != TaskState::Queued || in_queue[tid] || in_backoff) continue;
    const Job& job = cluster.job(t.job);
    if (job.done() || t.job >= arrived_.size() || !arrived_[t.job]) continue;
    fail("queue-consistency", "task " + std::to_string(tid) + " of arrived job " +
                                  std::to_string(t.job) +
                                  " is queued but missing from the scheduler queue");
  }
}

// ----------------------------------------------------- link model

void SimAuditor::check_link_model() const {
  const Cluster& cluster = engine_.cluster_;
  if (!cluster.config().link_contention) return;
  const LinkModel& live = cluster.link_model();
  // Flow-set conservation: the incrementally maintained registrations must
  // equal registering every job's placement-derived flow set from scratch
  // (the ground-truth oracle — flows are a pure function of placements).
  LinkModel rebuilt;
  rebuilt.reset(cluster.server_count(), cluster.config().servers_per_rack,
                cluster.config().nic_capacity_mbps,
                cluster.config().rack_uplink_capacity_mbps);
  for (const Job& job : cluster.jobs()) {
    rebuilt.set_job_duty_cycle(job.id(), live.job_duty_cycle(job.id()));
    rebuilt.set_phase_offset(job.id(), live.phase_offset(job.id()));
    rebuilt.update_job_flows(job.id(), cluster.compute_job_flows(job.id()));
  }
  if (!live.equals(rebuilt)) {
    fail("link-model",
         "incremental link registrations diverge from a from-scratch rebuild "
         "of every job's placement-derived flow set");
  }
  // Per-job profile bounds the fair-share arithmetic relies on.
  for (const Job& job : cluster.jobs()) {
    const double d = live.job_duty_cycle(job.id());
    const double phi = live.phase_offset(job.id());
    if (!(d > 0.0) || d > 1.0 || phi < 0.0 || phi >= 1.0) {
      fail("link-model", "job " + std::to_string(job.id()) + " has duty cycle " +
                             std::to_string(d) + " / phase offset " + std::to_string(phi) +
                             " outside (0,1] x [0,1)");
    }
  }
  // Share-sum: the time-averaged capacity fraction a link hands out across
  // all registered flows never exceeds the link's own (== 1.0 exactly on a
  // saturated link with duty cycles off; see LinkModel::share_sum).
  for (std::size_t link = 0; link < live.link_count(); ++link) {
    const double s = live.share_sum(link);
    if (s > 1.0 + 1e-9) {
      fail("link-share", "link " + std::to_string(link) + " hands out share sum " +
                             std::to_string(s) + " > 1 across " +
                             std::to_string(live.link_entries(link).size()) + " jobs");
    }
  }
}

// ---------------------------------------------------- comm plans

void SimAuditor::check_comm_plans() const {
  // A cached plan is reused while its job's communication version stands
  // still, so a current one must equal a from-scratch build bit for bit
  // (== on the doubles). A mismatch means a change to placements or link
  // state that the plan depends on missed its version bump.
  const Cluster& cluster = engine_.cluster_;
  for (const JobId id : cluster.live_jobs()) {
    if (id >= engine_.comm_plans_.size()) break;
    const CommPlan* cached = engine_.comm_plans_[id].get();
    if (!cached || cached->version != cluster.comm_version(id)) continue;
    if (!(*cached == engine_.build_comm_plan(cluster.job(id)))) {
      fail("comm-plan", "job " + std::to_string(id) + ": cached communication plan (version " +
                            std::to_string(cached->version) +
                            ") differs from a from-scratch build");
    }
  }
}

// ------------------------------------------------------- live set

void SimAuditor::check_live_set() const {
  // Re-derived from scratch: exactly the arrived, non-terminal jobs, in
  // ascending id order, each once.
  const Cluster& cluster = engine_.cluster_;
  const std::span<const JobId> live = cluster.live_jobs();
  std::size_t k = 0;
  for (JobId id = 0; id < cluster.job_count(); ++id) {
    const bool arrived = id < arrived_.size() && arrived_[id] != 0;
    if (!arrived || cluster.job(id).done()) continue;
    if (k >= live.size() || live[k] != id) {
      fail("live-set", "job " + std::to_string(id) +
                           " is arrived and not terminal but missing from the live set "
                           "(or out of order)");
    }
    ++k;
  }
  if (k != live.size()) {
    fail("live-set", "live set holds " + std::to_string(live.size()) + " jobs, expected " +
                         std::to_string(k) + " (a stale, pre-arrival or duplicate entry)");
  }
}

// ----------------------------------------------------------- jobs

void SimAuditor::check_jobs() const {
  const Cluster& cluster = engine_.cluster_;
  const SimTime now = engine_.now_;
  for (const Job& job : cluster.jobs()) {
    const JobId id = job.id();
    const JobRuntime& rt = engine_.job_runtime_[id];
    const bool arrived = id < arrived_.size() && arrived_[id] != 0;
    const bool terminal =
        job.state() == JobState::Completed || job.state() == JobState::Failed;
    if (terminal != job.done()) {
      fail("job-state", "job " + std::to_string(id) + ": state/done() disagree");
    }
    if (!arrived) {
      // Nothing may touch a job before its arrival event.
      if (job.state() != JobState::Waiting || job.completed_iterations() != 0) {
        fail("job-state",
             "job " + std::to_string(id) + " progressed before its arrival event");
      }
      for (const TaskId tid : job.tasks()) {
        if (cluster.task(tid).placed()) {
          fail("job-state", "task " + std::to_string(tid) + " of job " + std::to_string(id) +
                                " placed before arrival");
        }
      }
      continue;
    }
    switch (job.state()) {
      case JobState::Running: {
        // Gang execution: a running job has every live task resident — no
        // task iterates before its DAG parents are placed alongside it.
        if (!cluster.job_fully_placed(job)) {
          fail("gang-execution",
               "job " + std::to_string(id) + " is running but not fully placed");
        }
        if (rt.iter_duration <= 0.0) {
          fail("job-state", "job " + std::to_string(id) +
                                " is running with no in-flight iteration");
        }
        if (rt.iter_started > now + 1e-9) {
          fail("job-state",
               "job " + std::to_string(id) + " iteration started in the future");
        }
        break;
      }
      case JobState::Completed: {
        for (const TaskId tid : job.tasks()) {
          const Task& t = cluster.task(tid);
          if (t.state != TaskState::Finished || t.placed()) {
            fail("job-state", "completed job " + std::to_string(id) + " still owns task " +
                                  std::to_string(tid) + " in state " +
                                  std::to_string(static_cast<int>(t.state)));
          }
        }
        if (job.completion_time() < job.spec().arrival) {
          fail("job-state",
               "job " + std::to_string(id) + " completed before it arrived");
        }
        break;
      }
      case JobState::Failed: {
        // Failed-permanent: every task is terminal and off the fleet
        // (already-finished tasks stay Finished, the rest were removed),
        // and the failure instant is recorded like a completion.
        for (const TaskId tid : job.tasks()) {
          const Task& t = cluster.task(tid);
          if ((t.state != TaskState::Removed && t.state != TaskState::Finished) || t.placed()) {
            fail("job-state", "failed job " + std::to_string(id) + " still owns task " +
                                  std::to_string(tid) + " in state " +
                                  std::to_string(static_cast<int>(t.state)));
          }
          if (tid < engine_.task_in_backoff_.size() && engine_.task_in_backoff_[tid]) {
            fail("job-state", "failed job " + std::to_string(id) + " still has task " +
                                  std::to_string(tid) + " in retry backoff");
          }
        }
        if (job.completion_time() < job.spec().arrival) {
          fail("job-state", "job " + std::to_string(id) + " failed before it arrived");
        }
        break;
      }
      case JobState::Waiting: {
        if (rt.waiting_since > now + 1e-9) {
          fail("job-state", "job " + std::to_string(id) + " waiting_since in the future");
        }
        break;
      }
    }
    if (rt.resume_credit < 0.0 || rt.resume_credit > 0.95 + 1e-12) {
      fail("job-state", "job " + std::to_string(id) + " resume credit " +
                            std::to_string(rt.resume_credit) + " outside [0, 0.95]");
    }
    if (rt.partial_since >= 0.0 && rt.partial_since > now + 1e-9) {
      fail("job-state", "job " + std::to_string(id) + " partial_since in the future");
    }
    if (rt.fault_stopped_since >= 0.0 &&
        rt.fault_stopped_since > now + 1e-9) {
      fail("job-state", "job " + std::to_string(id) + " fault_stopped_since in the future");
    }
  }
}

// ----------------------------------------------- prediction service

void SimAuditor::check_prediction_service() const {
  const PredictionService& svc = engine_.prediction_;
  const Cluster& cluster = engine_.cluster_;
  const std::size_t basis_count = curve_detail::bases().size();
  for (const auto& [id, st] : svc.cached_states()) {
    if (id >= cluster.job_count()) {
      fail("prediction-cache", "cached state for unknown job " + std::to_string(id));
    }
    const Job& job = cluster.job(id);
    if (job.state() == JobState::Completed || job.state() == JobState::Failed) {
      fail("prediction-cache",
           "terminal job " + std::to_string(id) + " still has cached curve-fit state");
    }
    const int n = static_cast<int>(st.observed.size());
    if (n > job.spec().max_iterations) {
      fail("prediction-cache", "job " + std::to_string(id) + " has " + std::to_string(n) +
                                   " observations but max_iterations is " +
                                   std::to_string(job.spec().max_iterations));
    }
    // Observations are pure functions of the index (rollbacks never
    // truncate them) — spot-check both ends against the ground truth.
    if (n > 0 && (st.observed.front() != job.curve().accuracy_at(1) ||
                  st.observed.back() != job.curve().accuracy_at(n))) {
      fail("prediction-cache",
           "job " + std::to_string(id) + " observation buffer diverges from its loss curve");
    }
    int prev_done = 0;
    for (const auto& rec : st.links) {
      if (rec.done <= prev_done || rec.done % svc.check_interval() != 0 ||
          rec.done < svc.first_link() || rec.done > n) {
        fail("prediction-cache", "job " + std::to_string(id) + " chain link at done=" +
                                     std::to_string(rec.done) + " is not a canonical " +
                                     "check point covered by its observations");
      }
      prev_done = rec.done;
      if (rec.basis.size() != basis_count) {
        fail("prediction-cache", "job " + std::to_string(id) + " link at done=" +
                                     std::to_string(rec.done) + " has " +
                                     std::to_string(rec.basis.size()) + " basis fits, want " +
                                     std::to_string(basis_count));
      }
      for (const auto& b : rec.basis) {
        for (const double p : b.params) {
          if (!std::isfinite(p)) {
            fail("prediction-cache", "job " + std::to_string(id) +
                                         " has a non-finite fitted parameter at done=" +
                                         std::to_string(rec.done));
          }
        }
        if (!(b.rmse >= 0.0) || b.restarts < 0 ||
            b.restarts > PredictionService::kRestartBudget || b.low_streak < 0) {
          fail("prediction-cache", "job " + std::to_string(id) + " basis fit at done=" +
                                       std::to_string(rec.done) +
                                       " violates rmse/restart/streak bounds");
        }
      }
    }
    if (st.memo_valid) {
      const bool have_link =
          std::any_of(st.links.begin(), st.links.end(),
                      [&](const auto& rec) { return rec.done == st.memo_done; });
      if (!have_link) {
        fail("prediction-cache", "job " + std::to_string(id) + " memoizes done=" +
                                     std::to_string(st.memo_done) +
                                     " with no matching chain link");
      }
    }
  }
}

// ----------------------------------------------------- accounting

void SimAuditor::check_accounting() {
  const Cluster& cluster = engine_.cluster_;
  std::size_t completed = 0;
  std::size_t failed = 0;
  long long completed_iterations = 0;
  long long task_migrations = 0;
  for (const Job& job : cluster.jobs()) {
    if (job.state() == JobState::Completed) ++completed;
    if (job.state() == JobState::Failed) ++failed;
    completed_iterations += job.completed_iterations();
  }
  for (TaskId tid = 0; tid < cluster.task_count(); ++tid) {
    task_migrations += cluster.task(tid).migrations;
  }
  const EngineCounters& c = engine_.counters_;
  if (completed != c.jobs_completed) {
    fail("accounting", "jobs_completed counter " + std::to_string(c.jobs_completed) +
                           " != completed jobs " + std::to_string(completed));
  }
  if (failed != c.jobs_failed) {
    fail("accounting", "jobs_failed counter " + std::to_string(c.jobs_failed) +
                           " != failed-permanent jobs " + std::to_string(failed));
  }
  if (task_migrations != static_cast<long long>(c.migrations)) {
    fail("accounting", "migration counter " + std::to_string(c.migrations) +
                           " != sum of per-task migrations " + std::to_string(task_migrations));
  }
  // Iteration ledger: every completed iteration was executed, and every
  // rolled-back iteration was both executed and popped from its job.
  const long long net = static_cast<long long>(c.iterations_run) -
                        static_cast<long long>(c.iterations_rolled_back);
  if (completed_iterations != net) {
    fail("accounting", "sum of per-job completed iterations " +
                           std::to_string(completed_iterations) + " != iterations_run - rolled_back = " +
                           std::to_string(net));
  }
  if (c.inflight_work_lost_iterations < -1e-12 || c.work_lost_gpu_seconds < -1e-9) {
    fail("accounting", "negative lost-work accumulators");
  }
  // Monotonicity vs the previous sweep (counters and ledgers only grow).
  const EngineCounters& last = last_counters_;
  if (engine_.now_ + 1e-9 < last_now_ || c.iterations_run < last.iterations_run ||
      c.migrations < last.migrations || c.preemptions < last.preemptions ||
      c.jobs_completed < last.jobs_completed || c.jobs_failed < last.jobs_failed ||
      c.retry_backoffs < last.retry_backoffs || c.server_failures < last.server_failures ||
      c.task_kills < last.task_kills ||
      cluster.total_bandwidth_mb() + 1e-9 < last_bandwidth_mb_ ||
      cluster.inter_rack_bandwidth_mb() + 1e-9 < last_inter_rack_mb_) {
    fail("accounting", "a monotone counter decreased since the previous audit");
  }
  if (cluster.inter_rack_bandwidth_mb() > cluster.total_bandwidth_mb() + 1e-6) {
    fail("accounting", "inter-rack bandwidth exceeds the total ledger");
  }
  last_now_ = engine_.now_;
  last_counters_ = engine_.counters_;
  last_bandwidth_mb_ = cluster.total_bandwidth_mb();
  last_inter_rack_mb_ = cluster.inter_rack_bandwidth_mb();
}

// -------------------------------------------------------- metrics

void SimAuditor::check_metrics(const RunMetrics& m) const {
  const Cluster& cluster = engine_.cluster_;
  const auto fail_m = [this](const std::string& detail) {
    throw AuditViolation(
        AuditReport{"metrics-accounting", detail, "end-of-run", engine_.now_, events_seen_});
  };
  const std::size_t n = cluster.job_count();
  if (m.job_count != n || m.jct_minutes.count() != n || m.waiting_seconds.count() != n) {
    fail_m("per-job sample counts do not cover every job");
  }
  // Streamed-ingestion ledger: every job is either part of the base
  // workload or an injection the engine recorded; zero injections for
  // pure trace-driven runs.
  if (m.jobs_injected != engine_.injected_specs_.size() ||
      engine_.base_job_count_ + engine_.injected_specs_.size() != n) {
    fail_m("jobs_injected " + std::to_string(m.jobs_injected) +
           " does not reconcile with the engine's injection ledger (" +
           std::to_string(engine_.injected_specs_.size()) + " injected over " +
           std::to_string(engine_.base_job_count_) + " base jobs)");
  }
  double jct_sum_minutes = 0.0;
  std::size_t deadline_met = 0;
  std::size_t accuracy_met = 0;
  std::size_t migrations = 0;
  std::size_t failed_permanent = 0;
  for (const Job& job : cluster.jobs()) {
    jct_sum_minutes += to_minutes(job.completion_time() - job.spec().arrival);
    // Failed-permanent jobs never meet their deadline, whatever instant
    // they were abandoned at — success is conditional on Completed.
    if (job.state() == JobState::Completed && job.completion_time() <= job.deadline()) {
      ++deadline_met;
    }
    if (job.state() == JobState::Failed) ++failed_permanent;
    if (job.accuracy_by_deadline() >= job.spec().accuracy_requirement) ++accuracy_met;
  }
  for (TaskId tid = 0; tid < cluster.task_count(); ++tid) {
    migrations += static_cast<std::size_t>(cluster.task(tid).migrations);
  }
  const double dn = static_cast<double>(n);
  const double mean_jct = n > 0 ? jct_sum_minutes / dn : 0.0;
  if (!close(m.average_jct_minutes(), mean_jct,
             kMeanTol * std::max(1.0, std::abs(mean_jct)))) {
    fail_m("average JCT " + std::to_string(m.average_jct_minutes()) +
           " does not reconcile with per-job completion times (expected " +
           std::to_string(mean_jct) + ")");
  }
  if (n > 0 && m.deadline_ratio != static_cast<double>(deadline_met) / dn) {
    fail_m("deadline ratio does not reconcile with per-job deadlines");
  }
  if (n > 0 && m.accuracy_ratio != static_cast<double>(accuracy_met) / dn) {
    fail_m("accuracy ratio does not reconcile with per-job accuracy");
  }
  if (m.bandwidth_tb != cluster.total_bandwidth_mb() / 1e6 ||
      m.inter_rack_tb != cluster.inter_rack_bandwidth_mb() / 1e6) {
    fail_m("bandwidth metrics do not reconcile with the cluster ledger");
  }
  if (m.inter_rack_tb > m.bandwidth_tb + 1e-12) {
    fail_m("inter-rack traffic exceeds total traffic");
  }
  const EngineCounters& c = engine_.counters_;
  if (m.iterations_run != c.iterations_run || m.migrations != migrations ||
      m.preemptions != c.preemptions || m.sched_rounds != c.sched_rounds) {
    fail_m("engine counters do not reconcile with RunMetrics");
  }
  if (m.goodput < 0.0 || m.goodput > 1.0 + 1e-12) {
    fail_m("goodput " + std::to_string(m.goodput) + " outside [0, 1]");
  }
  // Recovery-policy ledger: the failed-permanent count must match both the
  // engine counter and the per-job terminal states, and the retry/quarantine
  // counters must match the engine's accumulators (all zero when disabled).
  if (m.jobs_failed_permanent != c.jobs_failed ||
      m.jobs_failed_permanent != failed_permanent) {
    fail_m("jobs_failed_permanent " + std::to_string(m.jobs_failed_permanent) +
           " does not reconcile with engine counter " + std::to_string(c.jobs_failed) +
           " / per-job states " + std::to_string(failed_permanent));
  }
  if (m.task_retries != c.retry_backoffs ||
      m.backoff_delay_seconds != c.backoff_delay_seconds_total ||
      m.crashes_absorbed != c.crashes_absorbed) {
    fail_m("retry/backoff counters do not reconcile with RunMetrics");
  }
  if (!engine_.health_ &&
      (m.quarantines != 0 || m.quarantine_valve_saves != 0 || m.task_retries != 0 ||
       m.jobs_failed_permanent != 0 || m.crashes_absorbed != 0)) {
    fail_m("recovery metrics are nonzero but recovery policies are disabled");
  }
  // Link-contention ledger: RunMetrics mirrors the engine accumulators,
  // which must stay exactly zero while the feature is off (the byte-
  // identity contract: contention-off runs never touch the link model).
  if (m.link_busy_seconds != c.link_busy_seconds ||
      m.contention_slowdown_seconds != c.contention_slowdown_seconds ||
      m.phase_offset_hits != static_cast<std::size_t>(c.phase_offset_hits)) {
    fail_m("link-contention counters do not reconcile with RunMetrics");
  }
  if (!cluster.config().link_contention &&
      (m.link_busy_seconds != 0.0 || m.contention_slowdown_seconds != 0.0 ||
       m.phase_offset_hits != 0)) {
    fail_m("link-contention metrics are nonzero but link contention is disabled");
  }
  if (m.contention_slowdown_seconds < -1e-9 ||
      m.contention_slowdown_seconds > m.link_busy_seconds + 1e-9) {
    fail_m("contention slowdown " + std::to_string(m.contention_slowdown_seconds) +
           " outside [0, link_busy_seconds]");
  }
  // Prediction-service ledger: RunMetrics mirrors the service counters.
  const PredictStats& ps = engine_.prediction_.stats();
  if (m.fits_cold != ps.fits_cold || m.fits_warm != ps.fits_warm ||
      m.prediction_cache_hits != ps.cache_hits ||
      m.nm_objective_evals != ps.nm_objective_evals) {
    fail_m("prediction counters do not reconcile with the service's stats");
  }
}

}  // namespace mlfs
