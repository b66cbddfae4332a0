#include "workload/job.hpp"

#include <algorithm>

#include "common/binio.hpp"
#include "common/expect.hpp"

namespace mlfs {

std::string to_string(MlAlgorithm a) {
  switch (a) {
    case MlAlgorithm::AlexNet: return "AlexNet";
    case MlAlgorithm::ResNet: return "ResNet";
    case MlAlgorithm::Mlp: return "MLP";
    case MlAlgorithm::Lstm: return "LSTM";
    case MlAlgorithm::Svm: return "SVM";
  }
  return "?";
}

std::string to_string(CommStructure c) {
  switch (c) {
    case CommStructure::ParameterServer: return "parameter-server";
    case CommStructure::AllReduce: return "all-reduce";
  }
  return "?";
}

std::string to_string(StopPolicy p) {
  switch (p) {
    case StopPolicy::FixedIterations: return "fixed-iterations";
    case StopPolicy::OptStop: return "opt-stop";
    case StopPolicy::AccuracyOnly: return "accuracy-only";
  }
  return "?";
}

Job::Job(JobSpec spec, Dag dag, std::vector<std::size_t> topological_order,
         std::vector<TaskId> task_ids, double total_params_m, double ideal_iteration_seconds)
    : spec_(std::move(spec)),
      dag_(std::move(dag)),
      topological_order_(std::move(topological_order)),
      task_ids_(std::move(task_ids)),
      total_params_m_(total_params_m),
      ideal_iteration_seconds_(ideal_iteration_seconds),
      curve_(spec_.curve),
      active_policy_(spec_.stop_policy),
      target_iterations_(spec_.max_iterations) {
  MLFS_EXPECT(dag_.node_count() == task_ids_.size());
  MLFS_EXPECT(topological_order_.size() == dag_.node_count());
  MLFS_EXPECT(!task_ids_.empty());
  MLFS_EXPECT(spec_.max_iterations >= 1);
  MLFS_EXPECT(total_params_m_ > 0.0);
  MLFS_EXPECT(ideal_iteration_seconds_ > 0.0);
  loss_reductions_.reserve(static_cast<std::size_t>(spec_.max_iterations));
}

void Job::complete_iteration() {
  const int next = completed_iterations() + 1;
  MLFS_EXPECT(next <= spec_.max_iterations);
  const double dl = curve_.observed_delta_loss(next);
  loss_reductions_.push_back(dl);
  cumulative_loss_reduction_ += dl;
}

void Job::rollback_iterations(int n) {
  MLFS_EXPECT(n >= 0);
  const int drop = std::min(n, completed_iterations());
  for (int i = 0; i < drop; ++i) {
    cumulative_loss_reduction_ -= loss_reductions_.back();
    loss_reductions_.pop_back();
  }
}

bool Job::downgrade_policy(StopPolicy policy) {
  // Policies are ordered: FixedIterations < OptStop < AccuracyOnly in
  // "aggressiveness"; min_allowed_policy bounds how far we may go.
  const int want = static_cast<int>(policy);
  const int active = static_cast<int>(active_policy_);
  const int allowed = static_cast<int>(spec_.min_allowed_policy);
  if (want <= active || want > allowed) return false;
  active_policy_ = policy;
  return true;
}

void Job::set_target_iterations(int n) {
  MLFS_EXPECT(n >= 0);
  target_iterations_ = std::min(n, spec_.max_iterations);
  // A job cannot un-run iterations it already finished.
  target_iterations_ = std::max(target_iterations_, completed_iterations());
}

void Job::save_state(io::BinWriter& w) const {
  w.vec_f64(loss_reductions_);
  w.f64(cumulative_loss_reduction_);
  w.u8(static_cast<std::uint8_t>(active_policy_));
  w.i64(target_iterations_);
  w.f64(deadline_);
  w.u8(static_cast<std::uint8_t>(state_));
  w.f64(completion_time_);
  w.f64(waiting_time_);
  w.i64(iterations_at_deadline_);
}

void Job::restore_state(io::BinReader& r) {
  loss_reductions_ = r.vec_f64();
  cumulative_loss_reduction_ = r.f64();
  active_policy_ = static_cast<StopPolicy>(r.u8());
  target_iterations_ = static_cast<int>(r.i64());
  deadline_ = r.f64();
  state_ = static_cast<JobState>(r.u8());
  completion_time_ = r.f64();
  waiting_time_ = r.f64();
  iterations_at_deadline_ = static_cast<int>(r.i64());
}

double Job::accuracy_by_deadline() const {
  // If the deadline never passed before completion, the job's final
  // accuracy counts; otherwise the accuracy frozen at the deadline does.
  if (iterations_at_deadline_ >= 0 &&
      (completion_time_ < 0.0 || completion_time_ > deadline_)) {
    return curve_.accuracy_at(iterations_at_deadline_);
  }
  return curve_.accuracy_at(completed_iterations());
}

}  // namespace mlfs
