#include "sched/rl_baseline.hpp"

#include <algorithm>

#include "common/binio.hpp"
#include "sched/util.hpp"

namespace mlfs::sched {

namespace {
constexpr std::size_t kTaskFeatures = 8;
constexpr std::size_t kPerCandidateFeatures = 5;
}  // namespace

std::size_t RlBaselineScheduler::state_dim(std::size_t candidate_count) {
  return kTaskFeatures + candidate_count * kPerCandidateFeatures;
}

RlBaselineScheduler::RlBaselineScheduler(const RlBaselineConfig& config) : config_(config) {
  rl::ReinforceConfig rc;
  rc.state_dim = state_dim(config_.candidate_count);
  rc.action_dim = config_.candidate_count;
  rc.hidden = config_.hidden;
  rc.eta = config_.eta;
  rc.seed = config_.seed;
  agent_ = std::make_unique<rl::ReinforceAgent>(rc);
}

std::vector<double> RlBaselineScheduler::featurize(const SchedulerContext& ctx, const Task& task,
                                                   const std::vector<ServerId>& candidates) const {
  const Job& job = ctx.cluster.job(task.job);
  std::vector<double> f;
  f.reserve(state_dim(config_.candidate_count));
  // Computation features of the task/job (normalized to ~[0,1]).
  f.push_back(task.demand[Resource::Gpu]);
  f.push_back(task.demand[Resource::Cpu]);
  f.push_back(task.demand[Resource::Mem]);
  f.push_back(task.demand[Resource::Net]);
  f.push_back(static_cast<double>(job.spec().gpu_request) / 32.0);
  f.push_back(static_cast<double>(job.completed_iterations()) /
              static_cast<double>(job.spec().max_iterations));
  f.push_back(std::min(1.0, (ctx.now - task.queued_since) / 3600.0));
  f.push_back(std::min(1.0, job.estimated_execution_seconds() / hours(24.0)));
  // Per-candidate server features.
  for (std::size_t i = 0; i < config_.candidate_count; ++i) {
    if (i < candidates.size()) {
      const Server& s = ctx.cluster.server(candidates[i]);
      const ResourceVector u = s.utilization();
      f.push_back(u[Resource::Gpu]);
      f.push_back(u[Resource::Cpu]);
      f.push_back(u[Resource::Mem]);
      f.push_back(u[Resource::Net]);
      f.push_back(s.gpu_load(s.least_loaded_gpu()));
    } else {
      for (std::size_t k = 0; k < kPerCandidateFeatures; ++k) f.push_back(1.0);  // "full"
    }
  }
  return f;
}

double RlBaselineScheduler::round_reward(const SchedulerContext& ctx) const {
  // DeepRM objective: -sum over in-system jobs of 1/T_j.
  double reward = 0.0;
  for (const JobId id : ctx.cluster.live_jobs()) {
    reward -= 1.0 / std::max(60.0, ctx.cluster.job(id).estimated_execution_seconds());
  }
  return reward * 60.0;  // scale to O(1) magnitudes
}

void RlBaselineScheduler::schedule(SchedulerContext& ctx) {
  // Assign the (delayed) reward of the previous round to its decisions.
  if (decisions_this_round_ > 0) {
    const double r = round_reward(ctx);
    const std::size_t start = episode_.size() - decisions_this_round_;
    for (std::size_t i = start; i < episode_.size(); ++i) episode_[i].reward = r;
  }
  decisions_this_round_ = 0;

  if (++rounds_since_update_ >= config_.update_every_rounds && !episode_.empty()) {
    pending_episodes_.push_back(std::move(episode_));
    episode_ = {};
    agent_->update(pending_episodes_);
    pending_episodes_.clear();
    rounds_since_update_ = 0;
  }

  // Job-coherent order: placing one task of a job immediately handles its
  // queued siblings (gang execution; see sched/util.hpp).
  std::vector<TaskId> order;
  for (const TaskId tid : live_queue(ctx)) {
    const Job& job = ctx.cluster.job(ctx.cluster.task(tid).job);
    for (const TaskId sib : job.tasks()) {
      if (ctx.cluster.task(sib).state == TaskState::Queued &&
          std::find(order.begin(), order.end(), sib) == order.end()) {
        order.push_back(sib);
      }
    }
  }
  int failures = 0;
  for (const TaskId tid : order) {
    if (failures >= kMaxConsecutiveGangFailures) break;
    const Task& task = ctx.cluster.task(tid);
    if (task.state != TaskState::Queued) continue;
    // K least-loaded feasible candidate servers.
    std::vector<std::pair<double, ServerId>> feasible;
    for (const Server& s : ctx.cluster.servers()) {
      const int gpu = s.least_loaded_gpu();
      if (!s.fits_without_overload(task, gpu, ctx.hr)) continue;
      feasible.emplace_back(s.utilization().norm(), s.id());
    }
    if (feasible.empty()) {
      ++failures;
      continue;
    }
    std::sort(feasible.begin(), feasible.end());
    std::vector<ServerId> candidates;
    for (std::size_t i = 0; i < std::min(config_.candidate_count, feasible.size()); ++i) {
      candidates.push_back(feasible[i].second);
    }

    const auto state = featurize(ctx, task, candidates);
    std::vector<bool> mask_storage(config_.candidate_count, false);
    for (std::size_t i = 0; i < candidates.size(); ++i) mask_storage[i] = true;
    // std::vector<bool> has no data(); build a plain bool buffer.
    std::vector<char> mask_bytes(mask_storage.begin(), mask_storage.end());
    const int action = agent_->act(
        state, std::span<const bool>(reinterpret_cast<const bool*>(mask_bytes.data()),
                                     mask_bytes.size()));
    const ServerId chosen = candidates[static_cast<std::size_t>(action)];
    const int gpu = ctx.cluster.server(chosen).least_loaded_gpu();
    if (ctx.ops.place(tid, chosen, gpu)) {
      episode_.push_back({state, action, 0.0});
      ++decisions_this_round_;
      failures = 0;
    }
  }
}

void RlBaselineScheduler::save_state(std::ostream& os) const {
  std::string bytes;
  io::BinWriter w(bytes);
  w.u64(decisions_this_round_);
  w.u64(rounds_since_update_);
  rl::save_episode(w, episode_);
  w.u64(pending_episodes_.size());
  for (const rl::Episode& e : pending_episodes_) rl::save_episode(w, e);
  agent_->save_state(w);
  io::write_all(os, bytes);
}

void RlBaselineScheduler::restore_state(std::istream& is) {
  const std::string bytes = io::read_all(is);
  io::BinReader r(bytes);
  decisions_this_round_ = static_cast<std::size_t>(r.u64());
  rounds_since_update_ = static_cast<std::size_t>(r.u64());
  episode_ = rl::load_episode(r);
  pending_episodes_.clear();
  const std::uint64_t count = r.u64();
  pending_episodes_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) pending_episodes_.push_back(rl::load_episode(r));
  agent_->restore_state(r);
}

}  // namespace mlfs::sched
