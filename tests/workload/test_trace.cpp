#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "workload/model_zoo.hpp"

namespace mlfs {
namespace {

TraceConfig small_config() {
  TraceConfig c;
  c.num_jobs = 500;
  c.duration_hours = 48.0;
  c.seed = 11;
  return c;
}

TEST(Trace, GeneratesRequestedCountSortedByArrival) {
  PhillyTraceGenerator gen(small_config());
  const auto jobs = gen.generate();
  ASSERT_EQ(jobs.size(), 500u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, i);  // dense sequential ids
    if (i > 0) EXPECT_GE(jobs[i].arrival, jobs[i - 1].arrival);
    EXPECT_GE(jobs[i].arrival, 0.0);
    EXPECT_LE(jobs[i].arrival, hours(48.0));
  }
}

TEST(Trace, DeterministicPerSeed) {
  const auto a = PhillyTraceGenerator(small_config()).generate();
  const auto b = PhillyTraceGenerator(small_config()).generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].algorithm, b[i].algorithm);
    EXPECT_EQ(a[i].gpu_request, b[i].gpu_request);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
}

TEST(Trace, GpuRequestsFromPaperChoices) {
  const auto jobs = PhillyTraceGenerator(small_config()).generate();
  std::map<int, int> histogram;
  for (const auto& j : jobs) ++histogram[j.gpu_request];
  for (const auto& [gpus, count] : histogram) {
    EXPECT_TRUE(gpus == 1 || gpus == 2 || gpus == 4 || gpus == 8 || gpus == 16 || gpus == 32)
        << gpus;
    EXPECT_GT(count, 0);
  }
  // Small-job skew: 1-GPU jobs are the most common bucket.
  int max_count = 0;
  int max_gpus = 0;
  for (const auto& [gpus, count] : histogram) {
    if (count > max_count) {
      max_count = count;
      max_gpus = gpus;
    }
  }
  EXPECT_EQ(max_gpus, 1);
}

TEST(Trace, MaxGpuRequestClampHolds) {
  auto config = small_config();
  config.max_gpu_request = 4;
  const auto jobs = PhillyTraceGenerator(config).generate();
  for (const auto& j : jobs) EXPECT_LE(j.gpu_request, 4);
}

TEST(Trace, SvmNeverExceedsEightWorkers) {
  const auto jobs = PhillyTraceGenerator(small_config()).generate();
  for (const auto& j : jobs) {
    if (j.algorithm == MlAlgorithm::Svm) EXPECT_LE(j.gpu_request, 8);
  }
}

TEST(Trace, FieldRangesMatchPaperSettings) {
  const auto config = small_config();
  const auto jobs = PhillyTraceGenerator(config).generate();
  for (const auto& j : jobs) {
    EXPECT_GE(j.urgency, 1.0);
    EXPECT_LE(j.urgency, 10.0);
    EXPECT_GE(j.train_data_mb, 100.0);  // §4.1: U[100, 1000] MB
    EXPECT_LE(j.train_data_mb, 1000.0);
    EXPECT_GE(j.comm_volume_ps_mb, 50.0);  // §4.1: U[50, 100] MB
    EXPECT_LE(j.comm_volume_ps_mb, 100.0);
    EXPECT_GE(j.comm_volume_ww_mb, 50.0);
    EXPECT_LE(j.comm_volume_ww_mb, 100.0);
    EXPECT_GE(j.deadline_slack_hours, 0.5);  // §4.1: U[0.5, 24] h
    EXPECT_LE(j.deadline_slack_hours, 24.0);
    EXPECT_GE(j.max_iterations, config.min_iterations);
    EXPECT_LE(j.max_iterations, config.max_iterations);
    EXPECT_GT(j.accuracy_requirement, 0.0);
    EXPECT_LT(j.accuracy_requirement, j.curve.max_accuracy);
  }
}

TEST(Trace, AccuracyRequirementReachableWithinBudget) {
  const auto jobs = PhillyTraceGenerator(small_config()).generate();
  for (const auto& j : jobs) {
    const LossCurve curve(j.curve);
    const int needed = curve.iterations_to_accuracy(j.accuracy_requirement, j.max_iterations + 1);
    EXPECT_LE(needed, j.max_iterations) << "job " << j.id;
  }
}

TEST(Trace, StopPolicyMixRoughlyMatchesConfig) {
  auto config = small_config();
  config.num_jobs = 2000;
  const auto jobs = PhillyTraceGenerator(config).generate();
  std::map<StopPolicy, int> counts;
  int downgradable = 0;
  for (const auto& j : jobs) {
    ++counts[j.stop_policy];
    if (j.min_allowed_policy == StopPolicy::AccuracyOnly) ++downgradable;
    // min_allowed is never stricter than the submitted policy.
    EXPECT_GE(static_cast<int>(j.min_allowed_policy), static_cast<int>(j.stop_policy));
  }
  const double n = 2000.0;
  EXPECT_NEAR(counts[StopPolicy::FixedIterations] / n, config.policy_fixed_fraction, 0.05);
  EXPECT_NEAR(counts[StopPolicy::OptStop] / n, config.policy_optstop_fraction, 0.05);
  EXPECT_NEAR(downgradable / n, config.allow_downgrade_fraction, 0.05);
}

TEST(Trace, CsvRoundTripExact) {
  auto config = small_config();
  config.num_jobs = 50;
  const auto jobs = PhillyTraceGenerator(config).generate();
  std::stringstream ss;
  write_trace_csv(ss, jobs);
  const auto loaded = read_trace_csv(ss);
  ASSERT_EQ(loaded.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(loaded[i].id, jobs[i].id);
    EXPECT_EQ(loaded[i].algorithm, jobs[i].algorithm);
    EXPECT_EQ(loaded[i].comm, jobs[i].comm);
    EXPECT_DOUBLE_EQ(loaded[i].arrival, jobs[i].arrival);
    EXPECT_DOUBLE_EQ(loaded[i].urgency, jobs[i].urgency);
    EXPECT_EQ(loaded[i].max_iterations, jobs[i].max_iterations);
    EXPECT_EQ(loaded[i].gpu_request, jobs[i].gpu_request);
    EXPECT_DOUBLE_EQ(loaded[i].accuracy_requirement, jobs[i].accuracy_requirement);
    EXPECT_DOUBLE_EQ(loaded[i].curve.max_accuracy, jobs[i].curve.max_accuracy);
    EXPECT_DOUBLE_EQ(loaded[i].curve.kappa, jobs[i].curve.kappa);
    EXPECT_EQ(loaded[i].curve.noise_seed, jobs[i].curve.noise_seed);
    EXPECT_EQ(loaded[i].stop_policy, jobs[i].stop_policy);
    EXPECT_EQ(loaded[i].min_allowed_policy, jobs[i].min_allowed_policy);
    EXPECT_EQ(loaded[i].seed, jobs[i].seed);
  }
}

TEST(Trace, DiurnalModulationShiftsArrivals) {
  // With strong diurnal amplitude, more arrivals land in the "day" half
  // (sin > 0: hours 0-12 of each day) than in the "night" half.
  auto config = small_config();
  config.num_jobs = 4000;
  config.duration_hours = 96.0;
  config.diurnal_amplitude = 0.8;
  const auto jobs = PhillyTraceGenerator(config).generate();
  int day = 0;
  for (const auto& j : jobs) {
    const double hour_of_day = std::fmod(to_hours(j.arrival), 24.0);
    if (hour_of_day < 12.0) ++day;
  }
  EXPECT_GT(day, 2200);  // > 55% in the boosted half
}

TEST(Trace, RejectsBadConfig) {
  auto config = small_config();
  config.num_jobs = 0;
  EXPECT_THROW(PhillyTraceGenerator{config}, ContractViolation);
  config = small_config();
  config.min_iterations = 10;
  config.max_iterations = 5;
  EXPECT_THROW(PhillyTraceGenerator{config}, ContractViolation);
  config = small_config();
  config.diurnal_amplitude = 1.5;
  EXPECT_THROW(PhillyTraceGenerator{config}, ContractViolation);
}

/// The CSV of `jobs` with column `column` of data row `row` (0-based)
/// replaced by `value`.
std::string csv_with_field(const std::vector<JobSpec>& jobs, std::size_t row,
                           std::size_t column, const std::string& value) {
  std::stringstream ss;
  write_trace_csv(ss, jobs);
  std::string out;
  std::string line;
  for (std::size_t n = 0; std::getline(ss, line); ++n) {
    if (n == row + 1) {
      std::vector<std::string> fields;
      std::stringstream fs(line);
      for (std::string f; std::getline(fs, f, ',');) fields.push_back(f);
      fields.at(column) = value;
      line.clear();
      for (std::size_t k = 0; k < fields.size(); ++k) line += (k ? "," : "") + fields[k];
    }
    out += line + "\n";
  }
  return out;
}

void expect_csv_rejected(const std::string& csv, const std::string& needle) {
  std::istringstream is(csv);
  try {
    (void)read_trace_csv(is);
    ADD_FAILURE() << "accepted a row with " << needle;
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trace CSV line 3"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(Trace, CsvRejectsInvalidRowsNamingTheLine) {
  auto config = small_config();
  config.num_jobs = 3;
  const auto jobs = PhillyTraceGenerator(config).generate();
  // Column 3 is the arrival, column 6 the GPU request; line 3 is the second
  // data row.
  expect_csv_rejected(csv_with_field(jobs, 1, 3, "nan"), "arrival must be finite");
  expect_csv_rejected(csv_with_field(jobs, 1, 3, "inf"), "arrival must be finite");
  expect_csv_rejected(csv_with_field(jobs, 1, 6, "0"), "gpu_request must be >= 1");
}

// Column 0 is the id; every numeric field must be consumed whole and fit
// its type.
TEST(Trace, CsvRejectsAGpuRequestWithTrailingJunk) {
  auto config = small_config();
  config.num_jobs = 3;
  const auto jobs = PhillyTraceGenerator(config).generate();
  expect_csv_rejected(csv_with_field(jobs, 1, 6, "2junk"), "field gpu_request: '2junk'");
}

TEST(Trace, CsvRejectsANegativeId) {
  auto config = small_config();
  config.num_jobs = 3;
  const auto jobs = PhillyTraceGenerator(config).generate();
  expect_csv_rejected(csv_with_field(jobs, 1, 0, "-1"), "field id: '-1'");
  expect_csv_rejected(csv_with_field(jobs, 1, 0, "4294967295"), "field id: 4294967295 is reserved");
  expect_csv_rejected(csv_with_field(jobs, 1, 0, "4294967296"),
                      "field id: '4294967296' is out of range");
}

TEST(Trace, CsvRejectsAnArrivalWithTrailingJunk) {
  auto config = small_config();
  config.num_jobs = 3;
  const auto jobs = PhillyTraceGenerator(config).generate();
  expect_csv_rejected(csv_with_field(jobs, 1, 3, "1.5x"), "field arrival: '1.5x'");
  expect_csv_rejected(csv_with_field(jobs, 1, 3, " 1.5"), "field arrival: ' 1.5'");
  expect_csv_rejected(csv_with_field(jobs, 1, 6, "99999999999"),
                      "field gpu_request: '99999999999' is out of range");
}

}  // namespace
}  // namespace mlfs
