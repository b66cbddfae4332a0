#include "core/reward.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace mlfs::core {

RewardTracker::RewardTracker(const RlParams& params) : params_(params) {}

void RewardTracker::on_job_complete(const Job& job, SimTime now) {
  ++completions_;
  jct_sum_hours_ += to_hours(job.completion_time() - job.spec().arrival);
  if (job.completion_time() <= job.deadline()) ++deadline_met_;
  const double acc = job.accuracy_by_deadline();
  accuracy_sum_ += acc;
  if (acc >= job.spec().accuracy_requirement) ++accuracy_met_;
  (void)now;
}

double RewardTracker::round_reward(const Cluster& cluster, SimTime now) {
  (void)now;
  double g1 = 0.0, g2 = 0.0, g4 = 0.0, g5 = 0.0;
  if (completions_ > 0) {
    const auto n = static_cast<double>(completions_);
    g1 = 1.0 / (1.0 + jct_sum_hours_ / n);
    g2 = static_cast<double>(deadline_met_) / n;
    g4 = static_cast<double>(accuracy_met_) / n;
    g5 = accuracy_sum_ / n;
  }

  // Bandwidth objective: transfer volume this window, normalized by the
  // number of jobs currently in the system (so the scale is load-free).
  double g3 = 0.0;
  const double bw_now = cluster.total_bandwidth_mb();
  if (bandwidth_primed_) {
    std::size_t active = 0;
    for (const JobId id : cluster.live_jobs()) {
      if (cluster.job(id).state() != JobState::Waiting) ++active;
    }
    const double delta_gb_per_job =
        (bw_now - last_bandwidth_mb_) / 1000.0 / std::max<std::size_t>(1, active);
    g3 = 1.0 / (1.0 + delta_gb_per_job);
  }
  last_bandwidth_mb_ = bw_now;
  bandwidth_primed_ = true;

  const double reward = params_.beta1 * g1 + params_.beta2 * g2 + params_.beta3 * g3 +
                        params_.beta4 * g4 + params_.beta5 * g5;

  jct_sum_hours_ = 0.0;
  completions_ = 0;
  deadline_met_ = 0;
  accuracy_met_ = 0;
  accuracy_sum_ = 0.0;
  return reward;
}

RewardTuner::RewardTuner(std::size_t coarse_rounds, std::size_t refine_rounds,
                         std::uint64_t seed)
    : coarse_rounds_(coarse_rounds), refine_rounds_(refine_rounds), seed_(seed) {}

RewardWeights RewardTuner::tune(const std::function<double(const RewardWeights&)>& evaluate) {
  Rng rng(seed_);
  RewardWeights best;
  double best_value = evaluate(best);  // paper defaults are the anchor

  // Coarse global rounds (the limited Bayesian-optimization budget).
  for (std::size_t i = 0; i < coarse_rounds_; ++i) {
    RewardWeights w{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
    const double v = evaluate(w);
    if (v > best_value) {
      best_value = v;
      best = w;
    }
  }
  // Local refinement: slightly vary each value around the incumbent.
  for (std::size_t i = 0; i < refine_rounds_; ++i) {
    RewardWeights w = best;
    auto wiggle = [&rng](double x) {
      return std::clamp(x * rng.uniform(0.9, 1.1) + rng.uniform(-0.02, 0.02), 0.0, 1.0);
    };
    w.beta1 = wiggle(w.beta1);
    w.beta2 = wiggle(w.beta2);
    w.beta3 = wiggle(w.beta3);
    w.beta4 = wiggle(w.beta4);
    w.beta5 = wiggle(w.beta5);
    const double v = evaluate(w);
    if (v > best_value) {
      best_value = v;
      best = w;
    }
  }
  return best;
}

void RewardTracker::save_state(io::BinWriter& w) const {
  w.f64(jct_sum_hours_);
  w.u64(completions_);
  w.u64(deadline_met_);
  w.u64(accuracy_met_);
  w.f64(accuracy_sum_);
  w.f64(last_bandwidth_mb_);
  w.boolean(bandwidth_primed_);
}

void RewardTracker::restore_state(io::BinReader& r) {
  jct_sum_hours_ = r.f64();
  completions_ = static_cast<std::size_t>(r.u64());
  deadline_met_ = static_cast<std::size_t>(r.u64());
  accuracy_met_ = static_cast<std::size_t>(r.u64());
  accuracy_sum_ = r.f64();
  last_bandwidth_mb_ = r.f64();
  bandwidth_primed_ = r.boolean();
}

}  // namespace mlfs::core
