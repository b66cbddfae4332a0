#include "core/priority.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"

namespace mlfs::core {

namespace {
/// Minimum slack/remaining clamps keep Eq. 4's reciprocals finite when a
/// deadline has passed or a task is nearly done.
constexpr double kMinSlackHours = 1.0 / 60.0;      // one minute
constexpr double kMinRemainingHours = 1.0 / 100.0;  // 36 seconds

bool task_live(const Task& t) {
  return t.state != TaskState::Finished && t.state != TaskState::Removed;
}
}  // namespace

PriorityCalculator::PriorityCalculator(const PriorityParams& params) : params_(params) {
  MLFS_EXPECT(params_.alpha >= 0.0 && params_.alpha <= 1.0);
  MLFS_EXPECT(params_.gamma > 0.0 && params_.gamma < 1.0);
}

double PriorityCalculator::loss_share(double last_delta, double cumulative) {
  if (cumulative <= 0.0) return 1.0;
  return std::clamp(last_delta / cumulative, 0.0, 1.0);
}

double PriorityCalculator::task_deadline(const Job& job, std::size_t local_index,
                                         const std::vector<std::size_t>& depth_to_sink) {
  // A task with descendants must leave them room: pull its deadline
  // earlier by the critical-path share its descendants still occupy,
  // scaled by the job's remaining estimated runtime.
  const double depth = static_cast<double>(depth_to_sink[local_index]);
  std::size_t max_depth = 0;
  for (const auto d : depth_to_sink) max_depth = std::max(max_depth, d);
  if (max_depth == 0) return job.deadline();
  const int remaining_iters =
      std::max(1, job.target_iterations() - job.completed_iterations());
  const double remaining_seconds = job.ideal_iteration_seconds() * remaining_iters;
  return job.deadline() -
         remaining_seconds * depth / static_cast<double>(max_depth + 1);
}

std::vector<double> PriorityCalculator::ml_priorities(const Cluster& cluster,
                                                      const Job& job) const {
  const Dag& dag = job.dag();
  const std::size_t n = dag.node_count();
  std::vector<double> base(n, 0.0);

  // Shared temporal factor of Eq. 2: L_J · (1/I) · normalized loss
  // reduction of the most recent finished iteration.
  const int current_iteration = job.completed_iterations() + 1;  // I >= 1
  // L_J normalized by the urgency-level count m (§3.3.1 defines
  // L_J ∈ [0, m]) so the ML and computation terms share an O(1) scale
  // under the paper's default α.
  const double urgency = params_.use_urgency ? job.spec().urgency / 10.0 : 1.0;
  const double temporal = 1.0 / static_cast<double>(current_iteration);
  const double loss_ratio =
      job.completed_iterations() == 0
          ? 1.0  // first iteration: full importance
          : loss_share(job.last_loss_reduction(), job.cumulative_loss_reduction());

  for (std::size_t k = 0; k < n; ++k) {
    const Task& t = cluster.task(job.task_at(k));
    if (!task_live(t)) continue;
    const double size = t.partition_params_m / job.total_params_m();  // S^J_k
    base[k] = urgency * temporal * loss_ratio * size;                 // Eq. 2
  }

  // Eq. 3: fold discounted child priorities, children before parents.
  std::vector<double> priority = base;
  for (const std::size_t u : dag.reverse_topological_order()) {
    double child_sum = 0.0;
    for (const std::size_t c : dag.children(u)) child_sum += priority[c];
    priority[u] = base[u] + params_.gamma * child_sum;
  }
  return priority;
}

std::vector<double> PriorityCalculator::computation_priorities(const Cluster& cluster,
                                                               const Job& job,
                                                               SimTime now) const {
  const Dag& dag = job.dag();
  const std::size_t n = dag.node_count();
  const auto depth = dag.depth_to_sink();
  std::vector<double> base(n, 0.0);

  const int remaining_iters =
      std::max(0, job.target_iterations() - job.completed_iterations());
  for (std::size_t k = 0; k < n; ++k) {
    const Task& t = cluster.task(job.task_at(k));
    if (!task_live(t)) continue;

    double value = 0.0;
    if (params_.use_deadline_term) {
      // Eq. 4's 1/(d - t) term: a close deadline boosts priority sharply.
      // Once the deadline has passed the boost is gone (the literal
      // formula would go negative and permanently starve expired jobs;
      // they still compete via the remaining-time and waiting terms).
      const double slack_h = to_hours(task_deadline(job, k, depth) - now);
      if (slack_h > 0.0) value += params_.gamma_d / std::max(slack_h, kMinSlackHours);
    }
    const double remaining_h = std::max(
        to_hours(t.base_compute_seconds * remaining_iters), kMinRemainingHours);
    value += params_.gamma_r / remaining_h;

    const double waiting_h =
        to_hours(t.total_waiting + (t.state == TaskState::Queued ? now - t.queued_since : 0.0));
    value += params_.gamma_w * waiting_h;
    base[k] = value;  // Eq. 4
  }

  std::vector<double> priority = base;
  for (const std::size_t u : dag.reverse_topological_order()) {
    double child_sum = 0.0;
    for (const std::size_t c : dag.children(u)) child_sum += priority[c];
    priority[u] = base[u] + params_.gamma * child_sum;  // Eq. 5
  }
  return priority;
}

std::vector<double> PriorityCalculator::job_priorities(const Cluster& cluster, const Job& job,
                                                       SimTime now) const {
  const auto ml = ml_priorities(cluster, job);
  const auto comp = computation_priorities(cluster, job, now);
  std::vector<double> combined(ml.size());
  for (std::size_t k = 0; k < ml.size(); ++k) {
    combined[k] = params_.alpha * ml[k] + (1.0 - params_.alpha) * comp[k];  // Eq. 6
  }
  // §3.3.1: the parameter-server task gets the highest priority in its job
  // — workers can only ship results once the PS is up.
  double max_priority = 0.0;
  for (const double p : combined) max_priority = std::max(max_priority, p);
  for (std::size_t k = 0; k < combined.size(); ++k) {
    const Task& t = cluster.task(job.task_at(k));
    if (t.is_parameter_server && task_live(t)) {
      combined[k] = max_priority * 1.01 + 1e-9;
    }
  }
  return combined;
}

}  // namespace mlfs::core
