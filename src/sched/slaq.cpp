#include "sched/slaq.hpp"

#include <algorithm>

#include "predict/service.hpp"
#include "sched/util.hpp"

namespace mlfs::sched {

double SlaqScheduler::quality_gain_rate(const Job& job, const PredictionService* prediction) {
  const int next = job.completed_iterations() + 1;
  if (next > job.spec().max_iterations) return 0.0;
  const double dl = prediction != nullptr
                        ? prediction->loss_at(job, next - 1) - prediction->loss_at(job, next)
                        : job.curve().loss_at(next - 1) - job.curve().loss_at(next);
  return dl / job.ideal_iteration_seconds();
}

void SlaqScheduler::schedule(SchedulerContext& ctx) {
  // SLAQ re-divides resources every epoch: if a waiting job would convert
  // resources into more loss reduction per second than a running job, the
  // lowest-gain running job is paused (its converged tail starves — the
  // JCT cost the paper attributes to SLAQ).
  auto queue = live_queue(ctx);
  const PredictionService* prediction = ctx.prediction;
  if (!queue.empty()) {
    const Job* best_waiting = nullptr;
    for (const TaskId tid : queue) {
      const Job& job = ctx.cluster.job(ctx.cluster.task(tid).job);
      if (!best_waiting ||
          quality_gain_rate(job, prediction) > quality_gain_rate(*best_waiting, prediction)) {
        best_waiting = &job;
      }
    }
    // SLAQ re-divides resources every epoch; in a gang-exclusive cluster
    // that means repeatedly swapping out the lowest-gain running jobs.
    // Converged jobs therefore crawl to completion — the JCT cost the
    // paper attributes to quality-driven scheduling.
    for (int swaps = 0; swaps < 4 && best_waiting != nullptr; ++swaps) {
      const Job* worst_running = nullptr;
      for (const JobId id : ctx.cluster.live_jobs()) {
        const Job& job = ctx.cluster.job(id);
        if (job.state() != JobState::Running) continue;
        if (!worst_running || quality_gain_rate(job, prediction) <
                                  quality_gain_rate(*worst_running, prediction)) {
          worst_running = &job;
        }
      }
      if (worst_running == nullptr ||
          quality_gain_rate(*worst_running, prediction) >=
              quality_gain_rate(*best_waiting, prediction)) {
        break;
      }
      preempt_job(ctx, *worst_running);
    }
    queue = live_queue(ctx);
  }
  std::stable_sort(queue.begin(), queue.end(), [&ctx, prediction](TaskId a, TaskId b) {
    const Job& ja = ctx.cluster.job(ctx.cluster.task(a).job);
    const Job& jb = ctx.cluster.job(ctx.cluster.task(b).job);
    return quality_gain_rate(ja, prediction) > quality_gain_rate(jb, prediction);
  });
  int failures = 0;
  for (const TaskId tid : queue) {
    if (failures >= kMaxConsecutiveGangFailures) break;
    if (ctx.cluster.task(tid).state != TaskState::Queued) continue;
    const int placed = place_job_gang(ctx, tid, least_loaded_placement);
    if (placed == 0) ++failures;
    if (placed > 0) failures = 0;
  }
}

}  // namespace mlfs::sched
