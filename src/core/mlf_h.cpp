#include "core/mlf_h.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/binio.hpp"
#include "sim/audit.hpp"
#include "sim/snapshot.hpp"

namespace mlfs::core {

MlfH::MlfH(const MlfsConfig& config)
    : config_(config),
      priority_calc_(config.priority),
      placement_(config.placement),
      migration_(config.migration) {}

const std::vector<double>& MlfH::job_priority_vector(const Cluster& cluster, const Job& job,
                                                     SimTime now) {
  CacheEntry& entry = cache_[job.id()];
  if (entry.computed_at != now) {
    entry.priorities = priority_calc_.job_priorities(cluster, job, now);
    entry.computed_at = now;
  }
  return entry.priorities;
}

double MlfH::task_priority(const Cluster& cluster, TaskId task, SimTime now) {
  const Task& t = cluster.task(task);
  const Job& job = cluster.job(t.job);
  return job_priority_vector(cluster, job, now)[t.local_index];
}

void MlfH::sort_by_priority(std::vector<TaskId>& tasks, SchedulerContext& ctx) {
  std::vector<std::pair<double, TaskId>> keyed;
  keyed.reserve(tasks.size());
  for (const TaskId tid : tasks) {
    keyed.emplace_back(task_priority(ctx.cluster, tid, ctx.now), tid);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; i < tasks.size(); ++i) tasks[i] = keyed[i].second;
}

std::vector<TaskId> MlfH::ordered_queue(SchedulerContext& ctx) {
  std::vector<TaskId> queue;
  queue.reserve(ctx.queue.size());
  for (const TaskId tid : ctx.queue) {
    if (ctx.cluster.task(tid).state == TaskState::Queued) queue.push_back(tid);
  }
  sort_by_priority(queue, ctx);
  return queue;
}

void MlfH::on_job_complete(const Job& job, SimTime now) {
  (void)now;
  cache_.erase(job.id());
}

void MlfH::audit_invariants(const Cluster& cluster, SimTime now) const {
  if (const std::string memo = placement_.audit_memo(cluster); !memo.empty()) {
    throw AuditViolation(AuditReport{"comm-memo", memo, "scheduler-audit", now, 0});
  }
  const auto fail = [now](const std::string& detail) {
    throw AuditViolation(AuditReport{"mlfh-priority-cache", detail, "scheduler-audit", now, 0});
  };
  for (const auto& [job_id, entry] : cache_) {
    if (job_id >= cluster.job_count()) {
      fail("cache entry for unknown job " + std::to_string(job_id));
    }
    const Job& job = cluster.job(job_id);
    if (job.done()) {
      fail("stale cache entry for completed job " + std::to_string(job_id));
    }
    if (entry.computed_at > now) {
      fail("cache entry for job " + std::to_string(job_id) + " computed in the future");
    }
    if (entry.computed_at >= 0.0 && entry.priorities.size() != job.task_count()) {
      fail("priority vector of job " + std::to_string(job_id) + " has " +
           std::to_string(entry.priorities.size()) + " entries for " +
           std::to_string(job.task_count()) + " tasks");
    }
    for (const double p : entry.priorities) {
      if (!std::isfinite(p) || p < 0.0) {
        fail("non-finite or negative priority " + std::to_string(p) + " cached for job " +
             std::to_string(job_id));
      }
    }
  }
}

void MlfH::place_queued_tasks(SchedulerContext& ctx) {
  // Queue order is per-task priority (Eq. 6), but placement is
  // job-coherent: reaching any task of a job immediately attempts all of
  // the job's queued tasks (in their own priority order). Gang execution
  // means partial placements cannot run, so interleaving jobs would only
  // manufacture deadlocks.
  //
  // The queue is consumed lazily through a binary heap instead of fully
  // sorted: all priorities are computed up front (placements this round
  // never re-key), and pops yield the stable-descending order one task at
  // a time. Under sustained overload the 200-failure cap stops consumption
  // after a few hundred pops, so a 100k-task backlog costs
  // O(n + popped·log n) instead of O(n log n) every round.
  int failures = 0;
  struct HeapEntry {
    double pri;
    std::size_t pos;  ///< position in the filtered queue (stability key)
    TaskId tid;
  };
  // `less` for a max-heap on (priority desc, queue position asc) — pops in
  // exactly std::stable_sort-by-descending-priority order.
  const auto heap_less = [](const HeapEntry& a, const HeapEntry& b) {
    return a.pri < b.pri || (a.pri == b.pri && a.pos > b.pos);
  };
  std::vector<HeapEntry> heap;
  heap.reserve(ctx.queue.size());
  std::size_t pos = 0;
  for (const TaskId tid : ctx.queue) {
    if (ctx.cluster.task(tid).state != TaskState::Queued) continue;
    heap.push_back({task_priority(ctx.cluster, tid, ctx.now), pos++, tid});
  }
  std::make_heap(heap.begin(), heap.end(), heap_less);
  const auto next_task = [&]() -> TaskId {
    if (heap.empty()) return kInvalidTask;
    std::pop_heap(heap.begin(), heap.end(), heap_less);
    const TaskId tid = heap.back().tid;
    heap.pop_back();
    return tid;
  };
  for (TaskId tid = next_task(); tid != kInvalidTask; tid = next_task()) {
    if (failures >= 200) break;  // sustained-overload cap, see sched/util.hpp
    const Task& first = ctx.cluster.task(tid);
    if (first.state != TaskState::Queued) continue;
    const Job& job = ctx.cluster.job(first.job);
    std::vector<TaskId> siblings;
    for (const TaskId sib : job.tasks()) {
      if (ctx.cluster.task(sib).state == TaskState::Queued) siblings.push_back(sib);
    }
    // Fast fail for clearly-doomed gangs (see sched/util.hpp).
    if (job.id() != ctx.protected_job &&
        static_cast<int>(siblings.size()) >
            2 * ctx.cluster.estimate_free_worker_slots(ctx.hr)) {
      ++failures;
      continue;
    }
    sort_by_priority(siblings, ctx);
    std::vector<TaskId> placed_now;
    bool complete = true;
    for (const TaskId sib : siblings) {
      const Task& task = ctx.cluster.task(sib);
      const auto host = placement_.choose_host(ctx, task, /*migrating=*/false);
      // The imitation observer must see the pre-placement state — the
      // exact decision input — so it runs before ops.place mutates
      // utilizations. choose_host returning a host implies the placement
      // below succeeds (same feasibility check).
      if (host && observer_) observer_(ctx, sib, host->server);
      if (host && ctx.ops.place(sib, host->server, host->gpu)) {
        placed_now.push_back(sib);
      } else {
        complete = false;
      }
    }
    // All-or-nothing per round (gang execution); the engine's protected
    // job may accumulate partial placements across rounds instead.
    if (!complete && job.id() != ctx.protected_job) {
      for (const TaskId sib : placed_now) ctx.ops.release(sib);
      ++failures;
    } else if (!placed_now.empty()) {
      failures = 0;
    }
  }
}

void MlfH::handle_overloaded_servers(SchedulerContext& ctx) {
  if (!config_.migration.enabled) return;
  Cluster& cluster = ctx.cluster;
  auto priority_of = [this, &cluster, &ctx](TaskId tid) {
    return task_priority(cluster, tid, ctx.now);
  };
  // A copy: migrations below re-partition the cluster's overloaded set.
  const std::vector<ServerId> overloaded = cluster.overloaded_servers(ctx.hr);
  for (const ServerId sid : overloaded) {
    int moved = 0;
    while (moved < config_.migration.max_victims_per_server) {
      const Server& server = cluster.server(sid);
      if (!server.overloaded(ctx.hr)) break;
      const auto victim = migration_.select_victim(cluster, server, ctx.hr, priority_of);
      if (!victim) break;
      const Task& task = cluster.task(*victim);
      if (const auto host = placement_.choose_host(ctx, task, /*migrating=*/true)) {
        ctx.ops.migrate(*victim, host->server, host->gpu);
      } else if (server.utilization().max_component() > 1.25 ||
                 (task.placed() && server.gpu_load(task.gpu) > 1.25)) {
        // §3.3.3: no underloaded destination — the victim returns to the
        // waiting queue. A preemption stalls the victim's whole gang, so
        // only deep oversubscription (25% past capacity, where quadratic
        // congestion outweighs a gang stall) justifies paying it; milder
        // overload rides out the fluctuation with the slowdown instead.
        ctx.ops.preempt_to_queue(*victim);
      } else {
        break;  // tolerable overload and nowhere to move: stop shedding
      }
      ++moved;
    }
  }
}

void MlfH::schedule(SchedulerContext& ctx) {
  place_queued_tasks(ctx);
  handle_overloaded_servers(ctx);
}

void MlfH::save_state(std::ostream& os) const {
  std::string bytes;
  io::BinWriter w(bytes);
  save_state(w);
  io::write_all(os, bytes);
}

void MlfH::restore_state(std::istream& is) {
  const std::string bytes = io::read_all(is);
  io::BinReader r(bytes);
  restore_state(r, kSnapshotVersion);
}

void MlfH::restore_legacy_state(std::istream& is, std::uint32_t version) {
  const std::string bytes = io::read_all(is);
  io::BinReader r(bytes);
  restore_state(r, version);
}

void MlfH::save_state(io::BinWriter& w) const { placement_.save_state(w); }

void MlfH::restore_state(io::BinReader& r, std::uint32_t version) {
  // Up to v9 the caches took every byte before the SchedStats record (four
  // u64s), which ends the payload: skipped in one step.
  constexpr std::size_t kStatsBytes = 4 * sizeof(std::uint64_t);
  if (version <= 9) {
    MLFS_EXPECT(r.remaining() >= kStatsBytes);
    (void)r.view(r.remaining() - kStatsBytes);
  }
  cache_.clear();
  placement_.restore_state(r);
  MLFS_EXPECT(r.at_end());  // the payload (MLFS's too) ends with MLF-H's
}

}  // namespace mlfs::core
