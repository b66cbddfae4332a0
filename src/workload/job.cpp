#include "workload/job.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/binio.hpp"
#include "common/expect.hpp"

namespace mlfs {

void JobSpec::validate() const {
  const auto fail = [this](const char* field, const char* rule, auto value) {
    throw ContractViolation("JobSpec " + std::to_string(id) + ": " + field + " " + rule +
                            " (got " + std::to_string(value) + ")");
  };
  const std::pair<const char*, double> reals[] = {
      {"arrival", arrival},
      {"urgency", urgency},
      {"train_data_mb", train_data_mb},
      {"accuracy_requirement", accuracy_requirement},
      {"deadline_slack_hours", deadline_slack_hours},
      {"curve.max_accuracy", curve.max_accuracy},
      {"curve.kappa", curve.kappa},
      {"curve.initial_loss", curve.initial_loss},
      {"curve.final_loss", curve.final_loss},
      {"curve.noise_sigma", curve.noise_sigma},
      {"comm_volume_ps_mb", comm_volume_ps_mb},
      {"comm_volume_ww_mb", comm_volume_ww_mb},
  };
  for (const auto& [field, value] : reals) {
    if (!std::isfinite(value)) fail(field, "must be finite", value);
  }
  if (arrival < 0.0) fail("arrival", "must be >= 0", arrival);
  if (train_data_mb < 0.0) fail("train_data_mb", "must be >= 0", train_data_mb);
  if (comm_volume_ps_mb < 0.0) fail("comm_volume_ps_mb", "must be >= 0", comm_volume_ps_mb);
  if (comm_volume_ww_mb < 0.0) fail("comm_volume_ww_mb", "must be >= 0", comm_volume_ww_mb);
  if (!(accuracy_requirement > 0.0 && accuracy_requirement <= 1.0)) {
    fail("accuracy_requirement", "must be in (0, 1]", accuracy_requirement);
  }
  if (deadline_slack_hours <= 0.0) {
    fail("deadline_slack_hours", "must be > 0", deadline_slack_hours);
  }
  if (max_iterations < 1) fail("max_iterations", "must be >= 1", max_iterations);
  if (gpu_request < 1) fail("gpu_request", "must be >= 1", gpu_request);
}

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
      depth_to_sink_(dag_.depth_to_sink()),
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
}

const std::vector<std::size_t>& Job::descendant_counts() const {
  if (descendant_counts_.empty()) descendant_counts_ = dag_.descendant_counts();
  return descendant_counts_;
}

double Job::loss_reduction_at(int iteration) const {
  return iteration > 0 ? curve_.observed_delta_loss(iteration) : 0.0;
}

void Job::complete_iteration() {
  MLFS_EXPECT(completed_iterations_ < spec_.max_iterations);
  last_loss_reduction_ = curve_.observed_delta_loss(++completed_iterations_);
  cumulative_loss_reduction_ += last_loss_reduction_;
}

void Job::rollback_iterations(int n) {
  MLFS_EXPECT(n >= 0);
  // Subtract the same values complete_iteration added, newest first: the
  // curve reproduces each one bit for bit.
  const int keep = completed_iterations_ - std::min(n, completed_iterations_);
  for (; completed_iterations_ > keep; --completed_iterations_) {
    cumulative_loss_reduction_ -= curve_.observed_delta_loss(completed_iterations_);
  }
  last_loss_reduction_ = loss_reduction_at(completed_iterations_);
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
  w.i64(completed_iterations_);
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
  const std::int64_t completed = r.i64();
  if (completed < 0 || completed > spec_.max_iterations) {
    throw ContractViolation("job " + std::to_string(id()) + ": completed iteration count " +
                            std::to_string(completed) + " outside [0, " +
                            std::to_string(spec_.max_iterations) + "]");
  }
  completed_iterations_ = static_cast<int>(completed);
  last_loss_reduction_ = loss_reduction_at(completed_iterations_);
  cumulative_loss_reduction_ = r.f64();
  restore_lifecycle(r);
}

void Job::restore_v5_state(io::BinReader& r) {
  const std::vector<double> history = r.vec_f64();
  if (history.size() > static_cast<std::size_t>(spec_.max_iterations)) {
    throw ContractViolation("job " + std::to_string(id()) + ": " +
                            std::to_string(history.size()) +
                            " stored loss reductions exceed max_iterations " +
                            std::to_string(spec_.max_iterations));
  }
  for (std::size_t i = 0; i < history.size(); ++i) {
    const int iteration = static_cast<int>(i) + 1;
    if (std::bit_cast<std::uint64_t>(history[i]) !=
        std::bit_cast<std::uint64_t>(curve_.observed_delta_loss(iteration))) {
      throw ContractViolation("job " + std::to_string(id()) +
                              ": stored loss reduction of iteration " +
                              std::to_string(iteration) + " differs from the loss curve");
    }
  }
  completed_iterations_ = static_cast<int>(history.size());
  last_loss_reduction_ = loss_reduction_at(completed_iterations_);
  cumulative_loss_reduction_ = r.f64();
  restore_lifecycle(r);
}

void Job::restore_lifecycle(io::BinReader& r) {
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
