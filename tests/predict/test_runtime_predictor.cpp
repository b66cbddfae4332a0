#include "predict/runtime_predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "common/binio.hpp"
#include "workload/model_zoo.hpp"

namespace mlfs {
namespace {

Job make_job(MlAlgorithm algo, int gpus, std::uint64_t seed) {
  JobSpec spec;
  spec.id = 0;
  spec.algorithm = algo;
  spec.comm = CommStructure::AllReduce;
  spec.gpu_request = gpus;
  spec.max_iterations = 40;
  spec.seed = seed;
  return std::move(ModelZoo::instantiate(spec, 0).job);
}

TEST(RuntimePredictor, UnseenJobsHaveLargerErrorBound) {
  RuntimePredictor predictor;  // 11% seen / 30% unseen
  const Job job = make_job(MlAlgorithm::Mlp, 2, 1);
  EXPECT_FALSE(predictor.has_history(job));
  const double truth = job.estimated_execution_seconds();
  const double unseen = predictor.predict_execution_seconds(job);
  EXPECT_LE(std::abs(unseen - truth) / truth, 0.30 + 1e-9);

  predictor.record_completion(job);
  EXPECT_TRUE(predictor.has_history(job));
  const double seen = predictor.predict_execution_seconds(job);
  EXPECT_LE(std::abs(seen - truth) / truth, 0.11 + 1e-9);
}

TEST(RuntimePredictor, HistoryIsPerAlgorithmAndGpuCount) {
  RuntimePredictor predictor;
  const Job a = make_job(MlAlgorithm::Mlp, 2, 1);
  const Job b = make_job(MlAlgorithm::Mlp, 4, 2);   // same algo, different GPUs
  const Job c = make_job(MlAlgorithm::Lstm, 2, 3);  // different algo
  predictor.record_completion(a);
  EXPECT_TRUE(predictor.has_history(a));
  EXPECT_FALSE(predictor.has_history(b));
  EXPECT_FALSE(predictor.has_history(c));
}

TEST(RuntimePredictor, DeterministicPerJob) {
  RuntimePredictor predictor;
  const Job job = make_job(MlAlgorithm::ResNet, 4, 9);
  EXPECT_DOUBLE_EQ(predictor.predict_execution_seconds(job),
                   predictor.predict_execution_seconds(job));
}

TEST(RuntimePredictor, RemainingShrinksWithProgress) {
  RuntimePredictor predictor;
  Job job = make_job(MlAlgorithm::ResNet, 2, 4);
  const double before = predictor.predict_remaining_seconds(job);
  job.complete_iteration();
  job.complete_iteration();
  const double after = predictor.predict_remaining_seconds(job);
  EXPECT_LT(after, before);
  EXPECT_GT(after, 0.0);
}

TEST(RuntimePredictor, RemainingIsZeroWhenTargetReached) {
  RuntimePredictor predictor;
  Job job = make_job(MlAlgorithm::Mlp, 1, 6);
  job.set_target_iterations(2);
  job.complete_iteration();
  job.complete_iteration();
  EXPECT_DOUBLE_EQ(predictor.predict_remaining_seconds(job), 0.0);
}

TEST(RuntimePredictor, RejectsNegativeErrorLevels) {
  EXPECT_THROW(RuntimePredictor(-0.1, 0.3), ContractViolation);
}

TEST(SignatureSet, InsertContainsAndGrowth) {
  SignatureSet set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(1, 2));
  // Push well past the initial capacity to force several rehashes.
  for (int algo = 0; algo < 12; ++algo) {
    for (int gpus = 1; gpus <= 32; gpus *= 2) set.insert(algo, gpus);
  }
  EXPECT_EQ(set.size(), 12u * 6u);
  set.insert(3, 4);  // duplicate: no growth
  EXPECT_EQ(set.size(), 12u * 6u);
  for (int algo = 0; algo < 12; ++algo) {
    for (int gpus = 1; gpus <= 32; gpus *= 2) {
      EXPECT_TRUE(set.contains(algo, gpus)) << algo << "x" << gpus;
    }
  }
  EXPECT_FALSE(set.contains(12, 1));
  EXPECT_FALSE(set.contains(0, 3));
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(3, 4));
}

TEST(SignatureSet, PackUnpackRoundTrip) {
  const std::uint64_t key = SignatureSet::pack(7, 16);
  EXPECT_EQ(SignatureSet::unpack_algorithm(key), 7);
  EXPECT_EQ(SignatureSet::unpack_gpus(key), 16);
}

TEST(RuntimePredictor, SaveFormatMatchesHistoricalSortedBytes) {
  // The flat set replaced a std::set<std::pair<int,int>> whose iteration
  // order (ascending algorithm, then gpus) defined the snapshot section
  // bytes; the replacement must keep them byte-identical. Insert out of
  // order and compare against the hand-built sorted encoding.
  RuntimePredictor predictor;
  predictor.record_completion(make_job(MlAlgorithm::Lstm, 4, 1));
  predictor.record_completion(make_job(MlAlgorithm::Mlp, 8, 2));
  predictor.record_completion(make_job(MlAlgorithm::Mlp, 2, 3));
  std::string actual;
  {
    io::BinWriter w(actual);
    predictor.save_state(w);
  }
  std::vector<std::pair<int, int>> sorted = {
      {static_cast<int>(MlAlgorithm::Mlp), 2},
      {static_cast<int>(MlAlgorithm::Mlp), 8},
      {static_cast<int>(MlAlgorithm::Lstm), 4},
  };
  std::sort(sorted.begin(), sorted.end());
  std::string expected;
  {
    io::BinWriter w(expected);
    w.u64(sorted.size());
    for (const auto& [algo, gpus] : sorted) {
      w.i64(algo);
      w.i64(gpus);
    }
  }
  EXPECT_EQ(actual, expected);

  // Round trip restores the same membership.
  RuntimePredictor restored;
  io::BinReader r(actual);
  restored.restore_state(r);
  EXPECT_TRUE(restored.has_history(make_job(MlAlgorithm::Lstm, 4, 9)));
  EXPECT_TRUE(restored.has_history(make_job(MlAlgorithm::Mlp, 2, 9)));
  EXPECT_FALSE(restored.has_history(make_job(MlAlgorithm::Lstm, 2, 9)));
}

}  // namespace
}  // namespace mlfs
