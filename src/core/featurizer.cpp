#include "core/featurizer.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"
#include "core/placement.hpp"
#include "workload/model_zoo.hpp"

namespace mlfs::core {

namespace {
constexpr std::size_t kTaskFeatures = 11;
constexpr std::size_t kAlgoOneHot = 5;  // AlexNet/ResNet/MLP/LSTM/SVM
constexpr std::size_t kPerCandidate = 6;

double squash_hours(double seconds) { return std::tanh(to_hours(seconds) / 12.0); }
}  // namespace

MlfRlFeaturizer::MlfRlFeaturizer(std::size_t candidate_count)
    : candidate_count_(candidate_count) {
  MLFS_EXPECT(candidate_count_ >= 1);
}

std::size_t MlfRlFeaturizer::state_dim() const {
  return kTaskFeatures + kAlgoOneHot + candidate_count_ * kPerCandidate;
}

std::vector<ServerId> MlfRlFeaturizer::candidates(const SchedulerContext& ctx,
                                                  const Task& task) const {
  std::vector<std::pair<double, ServerId>> feasible;
  for (const Server& s : ctx.cluster.servers()) {
    if (s.overloaded(ctx.hr)) continue;
    const int gpu = s.least_loaded_gpu();
    if (!s.fits_without_overload(task, gpu, ctx.hr)) continue;
    feasible.emplace_back(s.utilization().norm(), s.id());
  }
  std::sort(feasible.begin(), feasible.end());
  std::vector<ServerId> out;
  out.reserve(std::min(candidate_count_, feasible.size()));
  for (std::size_t i = 0; i < std::min(candidate_count_, feasible.size()); ++i) {
    out.push_back(feasible[i].second);
  }
  return out;
}

std::vector<double> MlfRlFeaturizer::state(const SchedulerContext& ctx, const Task& task,
                                           const std::vector<ServerId>& candidate_servers) const {
  const Job& job = ctx.cluster.job(task.job);
  std::vector<double> f;
  f.reserve(state_dim());

  // --- ML features (the Eq. 2 ingredients) ---
  f.push_back(job.spec().urgency / 10.0);                                     // L_J
  f.push_back(1.0 / static_cast<double>(job.completed_iterations() + 1));     // 1/I
  double loss_ratio = 1.0;
  if (job.completed_iterations() > 0 && job.cumulative_loss_reduction() > 0.0) {
    loss_ratio = job.last_loss_reduction() / job.cumulative_loss_reduction();
  }
  f.push_back(loss_ratio);                                                    // δl ratio
  f.push_back(task.partition_params_m / job.total_params_m());                // S^J_k
  f.push_back(job.task_count() > 1
                  ? static_cast<double>(job.descendant_counts()[task.local_index]) /
                        static_cast<double>(job.task_count() - 1)
                  : 0.0);                                                     // DAG position
  f.push_back(task.is_parameter_server ? 1.0 : 0.0);

  // --- computation features (the Eq. 4 ingredients) ---
  f.push_back(static_cast<double>(job.completed_iterations()) /
              static_cast<double>(job.spec().max_iterations));
  f.push_back(squash_hours(job.deadline() - ctx.now));  // signed slack
  const int remaining = std::max(0, job.target_iterations() - job.completed_iterations());
  f.push_back(squash_hours(task.base_compute_seconds * remaining));
  f.push_back(squash_hours(task.total_waiting +
                           (task.state == TaskState::Queued ? ctx.now - task.queued_since : 0.0)));
  f.push_back(static_cast<double>(job.spec().gpu_request) / 32.0);

  // --- algorithm one-hot (§3.4: "the ML algorithm name") ---
  for (std::size_t i = 0; i < kAlgoOneHot; ++i) {
    f.push_back(ModelZoo::algorithm_at(i) == job.spec().algorithm ? 1.0 : 0.0);
  }

  // --- per-candidate server features ---
  double max_comm = 1e-9;
  std::vector<double> comms(candidate_servers.size(), 0.0);
  for (std::size_t i = 0; i < candidate_servers.size(); ++i) {
    comms[i] = MlfPlacement::comm_volume_with_server(ctx.cluster, task, candidate_servers[i]);
    max_comm = std::max(max_comm, comms[i]);
  }
  for (std::size_t i = 0; i < candidate_count_; ++i) {
    if (i < candidate_servers.size()) {
      const Server& s = ctx.cluster.server(candidate_servers[i]);
      const ResourceVector u = s.utilization();
      f.push_back(u[Resource::Gpu]);
      f.push_back(u[Resource::Cpu]);
      f.push_back(u[Resource::Mem]);
      f.push_back(u[Resource::Net]);
      f.push_back(s.gpu_load(s.least_loaded_gpu()));
      f.push_back(comms[i] / max_comm);
    } else {
      // Missing slot: encode as a saturated server with no affinity.
      for (std::size_t k = 0; k < kPerCandidate - 1; ++k) f.push_back(1.0);
      f.push_back(0.0);
    }
  }
  MLFS_ENSURE(f.size() == state_dim());
  return f;
}

}  // namespace mlfs::core
