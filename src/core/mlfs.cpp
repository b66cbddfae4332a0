#include "core/mlfs.hpp"

#include <algorithm>
#include <array>

#include "common/binio.hpp"
#include "common/log.hpp"
#include "sim/snapshot.hpp"

namespace mlfs::core {

namespace {
rl::ReinforceConfig policy_config(const RlParams& rl, std::size_t state_dim) {
  rl::ReinforceConfig rc;
  rc.state_dim = state_dim;
  rc.action_dim = rl.candidate_count;
  rc.hidden = rl.hidden;
  rc.eta = rl.eta;
  rc.seed = rl.seed;
  return rc;
}
}  // namespace

MlfsScheduler::MlfsScheduler(const MlfsConfig& config, std::string display_name)
    : config_(config),
      display_name_(std::move(display_name)),
      heuristic_(config),
      featurizer_(config.rl.candidate_count),
      agent_(policy_config(config.rl, featurizer_.state_dim())),
      imitation_(featurizer_.state_dim()),
      reward_(config.rl),
      rng_(config.rl.seed ^ 0x1234abcd5678ef90ULL) {
  if (!config_.heuristic_only) {
    heuristic_.set_placement_observer(
        [this](SchedulerContext& ctx, TaskId task, ServerId chosen) {
          record_imitation(ctx, task, chosen);
        });
  }
}

std::string MlfsScheduler::name() const {
  if (!display_name_.empty()) return display_name_;
  return config_.heuristic_only ? "MLF-H" : "MLF-RL";
}

void MlfsScheduler::record_imitation(SchedulerContext& ctx, TaskId task, ServerId chosen) {
  // Only decisions expressible in the policy's action space (the chosen
  // server is among the K candidates) become imitation samples.
  const Task& t = ctx.cluster.task(task);
  const auto candidates = featurizer_.candidates(ctx, t);
  const auto it = std::find(candidates.begin(), candidates.end(), chosen);
  if (it == candidates.end()) return;
  const int action = static_cast<int>(it - candidates.begin());
  imitation_.add(featurizer_.state(ctx, t, candidates), action);
}

void MlfsScheduler::maybe_switch_to_rl() {
  if (rl_active_ || config_.heuristic_only) return;
  if (imitation_.size() < config_.rl.warmup_samples) return;
  imitation_.truncate_to_recent(config_.rl.warmup_samples);
  const double loss =
      imitation_.train(agent_, config_.rl.imitation_epochs, config_.rl.imitation_batch, rng_);
  rl_active_ = true;
  MLFS_INFO(name() << ": policy cloned from " << imitation_.size()
                   << " MLF-H decisions (final CE loss " << loss << "), switching to RL");
  retire_imitation_log();
}

void MlfsScheduler::retire_imitation_log() {
  // Nothing trains on the log after cloning: keep only what it reports.
  cloned_samples_ = imitation_.size();
  cloned_accuracy_ = imitation_.evaluate_accuracy(agent_);
  imitation_.clear();
}

void MlfsScheduler::schedule_with_policy(SchedulerContext& ctx) {
  // Close out the previous round: its decisions receive the Eq. 7 reward
  // observed over the window that just ended.
  if (decisions_this_round_ > 0) {
    const double r = reward_.round_reward(ctx.cluster, ctx.now);
    const std::size_t start = episode_.size() - decisions_this_round_;
    for (std::size_t i = start; i < episode_.size(); ++i) episode_[i].reward = r;
  } else {
    // Keep the window anchored even on idle rounds.
    (void)reward_.round_reward(ctx.cluster, ctx.now);
  }
  decisions_this_round_ = 0;

  if (++rounds_since_update_ >= config_.rl.update_every_rounds && !episode_.empty()) {
    std::vector<rl::Episode> episodes;
    episodes.push_back(std::move(episode_));
    episode_ = {};
    agent_.update(episodes);
    rounds_since_update_ = 0;
  }

  // Queue placement by the policy, in Eq. 6 priority order and
  // job-coherently (gang execution; see MlfH::place_queued_tasks).
  int failures = 0;
  for (const TaskId tid : heuristic_.ordered_queue(ctx)) {
    if (failures >= 200) break;  // sustained-overload cap, see sched/util.hpp
    const Task& first = ctx.cluster.task(tid);
    if (first.state != TaskState::Queued) continue;
    const Job& job = ctx.cluster.job(first.job);
    // Fast fail for clearly-doomed gangs (see sched/util.hpp).
    std::size_t queued_count = 0;
    for (const TaskId sib : job.tasks()) {
      if (ctx.cluster.task(sib).state == TaskState::Queued) ++queued_count;
    }
    if (job.id() != ctx.protected_job &&
        static_cast<int>(queued_count) >
            2 * ctx.cluster.estimate_free_worker_slots(ctx.hr)) {
      ++failures;
      continue;
    }
    std::vector<TaskId> placed_now;
    std::size_t decisions_before = episode_.size();
    bool complete = true;
    for (const TaskId sib : job.tasks()) {
      const Task& task = ctx.cluster.task(sib);
      if (task.state != TaskState::Queued) continue;
      auto candidates = featurizer_.candidates(ctx, task);
      if (candidates.empty()) {
        // The policy's K-candidate view found nothing, but the gang must
        // complete or the whole job stalls partially placed: fall back to
        // the heuristic RIAL search over all underloaded servers.
        if (const auto host = heuristic_.placement().choose_host(ctx, task, false)) {
          if (ctx.ops.place(sib, host->server, host->gpu)) {
            placed_now.push_back(sib);
            continue;
          }
        }
        complete = false;
        continue;
      }
      const auto state = featurizer_.state(ctx, task, candidates);
      std::vector<char> mask(config_.rl.candidate_count, 0);
      for (std::size_t i = 0; i < candidates.size(); ++i) mask[i] = 1;
      // Execute greedily once trained ("output optimal scheduling
      // decisions", §3.4); residual exploration for the online REINFORCE
      // updates comes from the environment itself (workload stochasticity)
      // plus an occasional sampled action.
      const std::span<const bool> mask_span(reinterpret_cast<const bool*>(mask.data()),
                                            mask.size());
      const int action = rng_.bernoulli(0.05) ? agent_.act(state, mask_span)
                                              : agent_.act_greedy(state, mask_span);
      const ServerId server = candidates[static_cast<std::size_t>(action)];
      const int gpu = ctx.cluster.server(server).least_loaded_gpu();
      if (ctx.ops.place(sib, server, gpu)) {
        placed_now.push_back(sib);
        episode_.push_back({state, action, 0.0});
        ++decisions_this_round_;
      } else {
        complete = false;
      }
    }
    // All-or-nothing per round (gang execution), matching MLF-H.
    if (!complete && job.id() != ctx.protected_job) {
      for (const TaskId sib : placed_now) ctx.ops.release(sib);
      // Drop the policy decisions that were rolled back.
      while (episode_.size() > decisions_before) {
        episode_.pop_back();
        --decisions_this_round_;
      }
      ++failures;
    } else if (!placed_now.empty()) {
      failures = 0;
    }
  }
}

void MlfsScheduler::schedule(SchedulerContext& ctx) {
  maybe_switch_to_rl();
  if (rl_active_) {
    schedule_with_policy(ctx);
    heuristic_.handle_overloaded_servers(ctx);
  } else {
    heuristic_.schedule(ctx);
  }
}

void MlfsScheduler::on_job_complete(const Job& job, SimTime now) {
  reward_.on_job_complete(job, now);
  heuristic_.on_job_complete(job, now);  // evict its priority-cache entry
}

void MlfsScheduler::save_state(std::ostream& os) const {
  std::string bytes;
  io::BinWriter w(bytes);
  for (const std::uint64_t word : rng_.state()) w.u64(word);
  w.boolean(rl_active_);
  w.u64(decisions_this_round_);
  w.u64(rounds_since_update_);
  rl::save_episode(w, episode_);
  imitation_.save_state(w);
  w.u64(cloned_samples_);
  w.f64(cloned_accuracy_);
  reward_.save_state(w);
  agent_.save_state(w);
  heuristic_.save_state(w);
  io::write_all(os, bytes);
}

void MlfsScheduler::restore_state(std::istream& is) { restore(is, kSnapshotVersion); }

void MlfsScheduler::restore_legacy_state(std::istream& is, std::uint32_t version) {
  MLFS_EXPECT(version >= 5 && version <= 9);
  restore(is, version);
}

void MlfsScheduler::restore(std::istream& is, std::uint32_t version) {
  const std::string bytes = io::read_all(is);
  io::BinReader r(bytes);
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) word = r.u64();
  rng_.set_state(state);
  rl_active_ = r.boolean();
  decisions_this_round_ = static_cast<std::size_t>(r.u64());
  rounds_since_update_ = static_cast<std::size_t>(r.u64());
  episode_ = rl::load_episode(r);
  imitation_.restore_state(r);
  if (version >= 6) {
    cloned_samples_ = static_cast<std::size_t>(r.u64());
    cloned_accuracy_ = r.f64();
  }
  reward_.restore_state(r);
  agent_.restore_state(r);
  heuristic_.restore_state(r, version);
  if (version == 5 && rl_active_) retire_imitation_log();
}

}  // namespace mlfs::core
