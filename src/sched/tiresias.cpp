#include "sched/tiresias.hpp"

#include <algorithm>
#include <limits>
#include <cmath>
#include <utility>
#include <vector>

#include "common/binio.hpp"
#include "common/expect.hpp"
#include "sched/util.hpp"

namespace mlfs::sched {

TiresiasScheduler::TiresiasScheduler(double band_gpu_hours)
    : band_gpu_seconds_(band_gpu_hours * 3600.0) {
  MLFS_EXPECT(band_gpu_hours > 0.0);
}

double TiresiasScheduler::attained_service(JobId id) const {
  const auto it = service_.find(id);
  return it == service_.end() ? 0.0 : it->second;
}

void TiresiasScheduler::accumulate_service(SchedulerContext& ctx) {
  if (last_tick_ >= 0.0) {
    const double dt = ctx.now - last_tick_;
    for (const JobId id : ctx.cluster.live_jobs()) {
      const Job& job = ctx.cluster.job(id);
      if (job.state() != JobState::Running) continue;
      std::size_t placed = 0;
      for (const TaskId tid : job.tasks()) {
        if (ctx.cluster.task(tid).placed()) ++placed;
      }
      service_[job.id()] += dt * static_cast<double>(placed);
    }
  }
  last_tick_ = ctx.now;
}

void TiresiasScheduler::schedule(SchedulerContext& ctx) {
  accumulate_service(ctx);
  auto queue = live_queue(ctx);
  // Discretized 2D-LAS with two queues (Tiresias-L's usual K = 2): a
  // running job that crosses the attained-service threshold while
  // lower-band work waits is demoted — preempted and re-queued behind the
  // fresh work — at most once in its lifetime. One demotion per job is
  // what bounds Tiresias's preemption churn.
  if (!queue.empty()) {
    double lowest_waiting_band = std::numeric_limits<double>::infinity();
    for (const TaskId tid : queue) {
      const JobId j = ctx.cluster.task(tid).job;
      lowest_waiting_band = std::min(
          lowest_waiting_band, std::floor(attained_service(j) / band_gpu_seconds_));
    }
    for (const JobId id : ctx.cluster.live_jobs()) {
      const Job& job = ctx.cluster.job(id);
      if (job.state() != JobState::Running) continue;
      const double band = std::floor(attained_service(job.id()) / band_gpu_seconds_);
      if (band <= lowest_waiting_band) continue;
      auto [it, inserted] = demotions_.try_emplace(job.id(), 0);
      if (it->second >= 1) continue;  // already demoted to the low queue
      ++it->second;
      preempt_job(ctx, job);
      queue = live_queue(ctx);
      break;  // one demotion per round
    }
  }
  // Discretized LAS: lower attained-service band first; FIFO within band.
  std::stable_sort(queue.begin(), queue.end(), [this, &ctx](TaskId a, TaskId b) {
    const JobId ja = ctx.cluster.task(a).job;
    const JobId jb = ctx.cluster.task(b).job;
    const double band_a = std::floor(attained_service(ja) / band_gpu_seconds_);
    const double band_b = std::floor(attained_service(jb) / band_gpu_seconds_);
    return band_a < band_b;
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

void TiresiasScheduler::on_job_complete(const Job& job, SimTime now) {
  (void)now;
  service_.erase(job.id());
  demotions_.erase(job.id());
}

void TiresiasScheduler::save_state(std::ostream& os) const {
  std::string bytes;
  io::BinWriter w(bytes);
  w.f64(last_tick_);
  std::vector<std::pair<JobId, double>> service(service_.begin(), service_.end());
  std::sort(service.begin(), service.end());
  w.u64(service.size());
  for (const auto& [job, gpu_seconds] : service) {
    w.u64(job);
    w.f64(gpu_seconds);
  }
  std::vector<std::pair<JobId, int>> demotions(demotions_.begin(), demotions_.end());
  std::sort(demotions.begin(), demotions.end());
  w.u64(demotions.size());
  for (const auto& [job, count] : demotions) {
    w.u64(job);
    w.i64(count);
  }
  io::write_all(os, bytes);
}

void TiresiasScheduler::restore_state(std::istream& is) {
  const std::string bytes = io::read_all(is);
  io::BinReader r(bytes);
  last_tick_ = r.f64();
  service_.clear();
  const std::uint64_t service_count = r.u64();
  for (std::uint64_t i = 0; i < service_count; ++i) {
    const JobId job = static_cast<JobId>(r.u64());
    service_[job] = r.f64();
  }
  demotions_.clear();
  const std::uint64_t demotion_count = r.u64();
  for (std::uint64_t i = 0; i < demotion_count; ++i) {
    const JobId job = static_cast<JobId>(r.u64());
    demotions_[job] = static_cast<int>(r.i64());
  }
}

}  // namespace mlfs::sched
