#include "workload/job.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "workload/model_zoo.hpp"

namespace mlfs {
namespace {

Job make_job(StopPolicy policy = StopPolicy::FixedIterations,
             StopPolicy min_allowed = StopPolicy::AccuracyOnly, int max_iterations = 20) {
  JobSpec spec;
  spec.id = 0;
  spec.algorithm = MlAlgorithm::Mlp;
  spec.comm = CommStructure::AllReduce;
  spec.gpu_request = 2;
  spec.max_iterations = max_iterations;
  spec.stop_policy = policy;
  spec.min_allowed_policy = min_allowed;
  spec.curve.max_accuracy = 0.8;
  spec.curve.kappa = 5.0;
  spec.seed = 7;
  return std::move(ModelZoo::instantiate(spec, 0).job);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string saved(const Job& job) {
  std::string bytes;
  io::BinWriter w(bytes);
  job.save_state(w);
  return bytes;
}

TEST(Job, IterationProgressAccumulatesLossReductions) {
  Job job = make_job();
  EXPECT_EQ(job.completed_iterations(), 0);
  EXPECT_DOUBLE_EQ(job.current_accuracy(), 0.0);
  job.complete_iteration();
  job.complete_iteration();
  EXPECT_EQ(job.completed_iterations(), 2);
  EXPECT_GT(job.cumulative_loss_reduction(), 0.0);
  // Bitwise: the running sum is exactly the curve's first two values added
  // in order.
  EXPECT_EQ(bits(job.cumulative_loss_reduction()),
            bits(0.0 + job.curve().observed_delta_loss(1) + job.curve().observed_delta_loss(2)));
  EXPECT_EQ(bits(job.last_loss_reduction()), bits(job.curve().observed_delta_loss(2)));
  EXPECT_GT(job.current_accuracy(), 0.0);
}

TEST(Job, SavedStateSizeDoesNotGrowWithIterations) {
  Job job = make_job(StopPolicy::FixedIterations, StopPolicy::AccuracyOnly, 5000);
  job.complete_iteration();
  const std::size_t after_one = saved(job).size();
  for (int i = 1; i < 5000; ++i) job.complete_iteration();
  EXPECT_EQ(saved(job).size(), after_one);
}

TEST(Job, RollbackMatchesAFreshJobBitForBit) {
  constexpr int kN = 17;
  for (int k = 0; k <= kN; ++k) {
    Job job = make_job();
    for (int i = 0; i < kN; ++i) job.complete_iteration();
    job.rollback_iterations(k);

    Job fresh = make_job();
    for (int i = 0; i < kN - k; ++i) fresh.complete_iteration();
    EXPECT_EQ(job.completed_iterations(), fresh.completed_iterations()) << "k=" << k;
    EXPECT_EQ(bits(job.last_loss_reduction()), bits(fresh.last_loss_reduction())) << "k=" << k;

    // The running sum is add-then-subtract, so it is the per-iteration
    // history's sum after popping the same values, not a re-summation.
    std::vector<double> history;
    double sum = 0.0;
    for (int i = 1; i <= kN; ++i) {
      history.push_back(job.curve().observed_delta_loss(i));
      sum += history.back();
    }
    for (int i = 0; i < k; ++i) {
      sum -= history.back();
      history.pop_back();
    }
    EXPECT_EQ(bits(job.cumulative_loss_reduction()), bits(sum)) << "k=" << k;

    // Re-running the lost iterations carries on from the same state.
    for (int i = 0; i < k; ++i) job.complete_iteration();
    EXPECT_EQ(job.completed_iterations(), kN);
    EXPECT_EQ(bits(job.last_loss_reduction()), bits(job.curve().observed_delta_loss(kN)));
  }
}

TEST(Job, RestoreRederivesTheLastLossReduction) {
  Job job = make_job();
  for (int i = 0; i < 7; ++i) job.complete_iteration();
  job.rollback_iterations(2);
  const std::string bytes = saved(job);

  Job twin = make_job();
  io::BinReader r(bytes);
  twin.restore_state(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(twin.completed_iterations(), 5);
  EXPECT_EQ(bits(twin.last_loss_reduction()), bits(job.last_loss_reduction()));
  EXPECT_EQ(bits(twin.cumulative_loss_reduction()), bits(job.cumulative_loss_reduction()));
  EXPECT_EQ(saved(twin), bytes);
}

TEST(Job, RestoreRejectsAnOutOfRangeIterationCount) {
  Job job = make_job();
  std::string bytes = saved(job);
  const std::int64_t too_many = 21;  // max_iterations is 20
  std::memcpy(bytes.data(), &too_many, sizeof(too_many));
  io::BinReader r(bytes);
  EXPECT_THROW(job.restore_state(r), ContractViolation);
}

TEST(Job, CannotExceedMaxIterations) {
  Job job = make_job();
  for (int i = 0; i < 20; ++i) job.complete_iteration();
  EXPECT_THROW(job.complete_iteration(), ContractViolation);
}

TEST(Job, PolicyDowngradeRespectsPermission) {
  Job job = make_job(StopPolicy::FixedIterations, StopPolicy::OptStop);
  EXPECT_TRUE(job.downgrade_policy(StopPolicy::OptStop));
  EXPECT_EQ(job.active_policy(), StopPolicy::OptStop);
  // AccuracyOnly is beyond the permitted bound.
  EXPECT_FALSE(job.downgrade_policy(StopPolicy::AccuracyOnly));
  EXPECT_EQ(job.active_policy(), StopPolicy::OptStop);
}

TEST(Job, PolicyNeverUpgrades) {
  Job job = make_job(StopPolicy::AccuracyOnly, StopPolicy::AccuracyOnly);
  EXPECT_FALSE(job.downgrade_policy(StopPolicy::OptStop));
  EXPECT_EQ(job.active_policy(), StopPolicy::AccuracyOnly);
}

TEST(Job, DowngradeIsIdempotent) {
  Job job = make_job(StopPolicy::FixedIterations, StopPolicy::AccuracyOnly);
  EXPECT_TRUE(job.downgrade_policy(StopPolicy::AccuracyOnly));
  EXPECT_FALSE(job.downgrade_policy(StopPolicy::AccuracyOnly));
}

TEST(Job, TargetIterationsClampedToMaxAndCompleted) {
  Job job = make_job();
  job.set_target_iterations(100);
  EXPECT_EQ(job.target_iterations(), 20);  // clamped to max
  job.complete_iteration();
  job.complete_iteration();
  job.set_target_iterations(1);
  EXPECT_EQ(job.target_iterations(), 2);  // cannot un-run iterations
}

TEST(Job, AccuracyByDeadlineUsesDeadlineFreeze) {
  Job job = make_job();
  job.complete_iteration();
  job.complete_iteration();
  job.record_deadline_progress();  // deadline passed at 2 iterations
  for (int i = 0; i < 5; ++i) job.complete_iteration();
  job.set_completion_time(job.deadline() + 100.0);  // finished after deadline
  EXPECT_DOUBLE_EQ(job.accuracy_by_deadline(), job.curve().accuracy_at(2));
}

TEST(Job, AccuracyByDeadlineUsesFinalWhenOnTime) {
  Job job = make_job();
  for (int i = 0; i < 5; ++i) job.complete_iteration();
  job.set_completion_time(job.deadline() - 100.0);  // finished before deadline
  EXPECT_DOUBLE_EQ(job.accuracy_by_deadline(), job.curve().accuracy_at(5));
}

TEST(Job, WaitingTimeAccumulates) {
  Job job = make_job();
  job.add_waiting_time(10.0);
  job.add_waiting_time(5.5);
  EXPECT_DOUBLE_EQ(job.waiting_time(), 15.5);
}

TEST(JobSpec, ValidateNamesTheOffendingField) {
  EXPECT_NO_THROW(JobSpec{}.validate());
  const auto rejects = [](void (*corrupt)(JobSpec&), const std::string& field) {
    JobSpec spec;
    corrupt(spec);
    try {
      spec.validate();
      ADD_FAILURE() << "accepted a bad " << field;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  rejects([](JobSpec& s) { s.urgency = std::numeric_limits<double>::infinity(); }, "urgency");
  rejects([](JobSpec& s) { s.curve.kappa = std::numeric_limits<double>::quiet_NaN(); },
          "curve.kappa");
  rejects([](JobSpec& s) { s.comm_volume_ww_mb = -std::numeric_limits<double>::infinity(); },
          "comm_volume_ww_mb");
  rejects([](JobSpec& s) { s.arrival = -1.0; }, "arrival must be >= 0");
  rejects([](JobSpec& s) { s.deadline_slack_hours = 0.0; }, "deadline_slack_hours must be > 0");
  rejects([](JobSpec& s) { s.max_iterations = 0; }, "max_iterations must be >= 1");
  rejects([](JobSpec& s) { s.train_data_mb = -1.0; }, "train_data_mb must be >= 0");
  rejects([](JobSpec& s) { s.comm_volume_ps_mb = -0.5; }, "comm_volume_ps_mb must be >= 0");
  rejects([](JobSpec& s) { s.comm_volume_ww_mb = -2.0; }, "comm_volume_ww_mb must be >= 0");
  rejects([](JobSpec& s) { s.accuracy_requirement = 0.0; }, "accuracy_requirement must be in");
  rejects([](JobSpec& s) { s.accuracy_requirement = 1.01; }, "accuracy_requirement must be in");
  JobSpec edge;  // the inclusive ends of the size bounds
  edge.train_data_mb = 0.0;
  edge.comm_volume_ps_mb = 0.0;
  edge.comm_volume_ww_mb = 0.0;
  edge.accuracy_requirement = 1.0;
  EXPECT_NO_THROW(edge.validate());
}

}  // namespace
}  // namespace mlfs
