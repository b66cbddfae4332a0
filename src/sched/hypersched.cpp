#include "sched/hypersched.hpp"

#include <algorithm>
#include <cmath>

#include "predict/service.hpp"
#include "sched/util.hpp"

namespace mlfs::sched {

HyperSchedScheduler::HyperSchedScheduler(double pause_gain_threshold)
    : pause_gain_threshold_(pause_gain_threshold) {}

double HyperSchedScheduler::achievable_gain(const Job& job, SimTime now,
                                            const PredictionService* prediction) {
  const double time_left = job.deadline() - now;
  if (time_left <= 0.0) return 0.0;
  const int reachable = std::min(
      job.spec().max_iterations,
      job.completed_iterations() +
          static_cast<int>(time_left / job.ideal_iteration_seconds()));
  const double at_reachable = prediction != nullptr
                                  ? prediction->accuracy_at(job, reachable)
                                  : job.curve().accuracy_at(reachable);
  return std::max(0.0, at_reachable - job.current_accuracy());
}

void HyperSchedScheduler::schedule(SchedulerContext& ctx) {
  auto queue = live_queue(ctx);
  const PredictionService* prediction = ctx.prediction;
  // Pause (preempt) one saturated running job per round when jobs that
  // can still gain accuracy before their deadlines are waiting — the
  // paper's "pauses jobs that do not increase accuracy significantly and
  // tends to assign more resources to the job with more accuracy
  // improvement before its deadline".
  if (!queue.empty()) {
    auto marginal = [prediction](const Job& job) {
      const int i = job.completed_iterations();
      if (prediction != nullptr) {
        return prediction->accuracy_at(job, i + 1) - prediction->accuracy_at(job, i);
      }
      return job.curve().accuracy_at(i + 1) - job.curve().accuracy_at(i);
    };
    bool gainful_waiting = false;
    for (const TaskId tid : queue) {
      if (achievable_gain(ctx.cluster.job(ctx.cluster.task(tid).job), ctx.now, prediction) >
          0.0) {
        gainful_waiting = true;
        break;
      }
    }
    if (gainful_waiting) {
      for (const JobId id : ctx.cluster.live_jobs()) {
        const Job& job = ctx.cluster.job(id);
        if (job.state() != JobState::Running) continue;
        if (job.completed_iterations() > 0 && marginal(job) < pause_gain_threshold_ &&
            job.current_accuracy() >= job.spec().accuracy_requirement &&
            ctx.now >= job.deadline()) {
          preempt_job(ctx, job);
          break;
        }
      }
    }
  }
  // Pause saturated jobs: their marginal accuracy per iteration is below
  // the threshold, so their waiting tasks yield to jobs that can still
  // improve before their deadlines.
  auto marginal_gain = [prediction](const Job& job) {
    const int i = job.completed_iterations();
    if (prediction != nullptr) {
      return prediction->accuracy_at(job, i + 1) - prediction->accuracy_at(job, i);
    }
    return job.curve().accuracy_at(i + 1) - job.curve().accuracy_at(i);
  };
  std::stable_sort(queue.begin(), queue.end(), [&ctx, prediction](TaskId a, TaskId b) {
    const Job& ja = ctx.cluster.job(ctx.cluster.task(a).job);
    const Job& jb = ctx.cluster.job(ctx.cluster.task(b).job);
    return achievable_gain(ja, ctx.now, prediction) > achievable_gain(jb, ctx.now, prediction);
  });
  bool any_gainful_waiting = false;
  for (const TaskId tid : queue) {
    if (achievable_gain(ctx.cluster.job(ctx.cluster.task(tid).job), ctx.now, prediction) >
        0.0) {
      any_gainful_waiting = true;
      break;
    }
  }
  int failures = 0;
  for (const TaskId tid : queue) {
    if (failures >= kMaxConsecutiveGangFailures) break;
    const Task& task = ctx.cluster.task(tid);
    if (task.state != TaskState::Queued) continue;
    const Job& job = ctx.cluster.job(task.job);
    // Pause saturated jobs only while accuracy-hungry jobs wait and the
    // paused job still has a live deadline to protect; afterwards it runs
    // normally (HyperSched reclaims resources, it does not strand trials).
    // A saturated trial that already met its accuracy requirement and
    // whose deadline has passed has nothing left to win under
    // HyperSched's objective; it yields to jobs that can still gain.
    if (any_gainful_waiting && job.completed_iterations() > 0 &&
        marginal_gain(job) < pause_gain_threshold_ &&
        job.current_accuracy() >= job.spec().accuracy_requirement &&
        ctx.now >= job.deadline()) {
      continue;
    }
    const int placed = place_job_gang(ctx, tid, least_loaded_placement);
    if (placed == 0) ++failures;
    if (placed > 0) failures = 0;
  }
}

}  // namespace mlfs::sched
