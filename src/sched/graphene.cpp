#include "sched/graphene.hpp"

#include <algorithm>

#include "sched/util.hpp"

namespace mlfs::sched {

double GrapheneScheduler::troublesome_score(const Cluster& cluster, const Task& task) {
  const Job& job = cluster.job(task.job);
  const double dep_share = job.task_count() > 1
                               ? static_cast<double>(job.descendant_counts()[task.local_index]) /
                                     static_cast<double>(job.task_count() - 1)
                               : 0.0;
  // Demands are fractions in [0,1] per resource; magnitude/|R| in [0,1].
  const double packing_difficulty = demand_magnitude(task) / static_cast<double>(kNumResources);
  return dep_share + packing_difficulty;
}

void GrapheneScheduler::schedule(SchedulerContext& ctx) {
  auto queue = live_queue(ctx);
  // Job-level weighted score (shorter remaining work first, Graphene's
  // average-JCT objective) + task-level troublesome score.
  auto rank = [&ctx](TaskId tid) {
    const Task& task = ctx.cluster.task(tid);
    const Job& job = ctx.cluster.job(task.job);
    const double remaining =
        job.ideal_iteration_seconds() *
        std::max(1, job.spec().max_iterations - job.completed_iterations());
    const double srpt = 1.0 / (1.0 + remaining / 3600.0);
    return troublesome_score(ctx.cluster, task) + srpt;
  };
  std::stable_sort(queue.begin(), queue.end(),
                   [&rank](TaskId a, TaskId b) { return rank(a) > rank(b); });
  int failures = 0;
  for (const TaskId tid : queue) {
    if (failures >= kMaxConsecutiveGangFailures) break;
    if (ctx.cluster.task(tid).state != TaskState::Queued) continue;
    const int placed = place_job_gang(ctx, tid, best_fit_placement);
    if (placed == 0) ++failures;
    if (placed > 0) failures = 0;
  }
}

}  // namespace mlfs::sched
