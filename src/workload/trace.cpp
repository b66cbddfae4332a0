#include "workload/trace.hpp"

#include "workload/model_zoo.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numbers>
#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "common/expect.hpp"
#include "common/parse.hpp"

namespace mlfs {

namespace {
constexpr std::array<int, 6> kGpuChoices = {1, 2, 4, 8, 16, 32};
}

PhillyTraceGenerator::PhillyTraceGenerator(const TraceConfig& config)
    : config_(config), rng_(config.seed) {
  MLFS_EXPECT(config_.num_jobs > 0);
  MLFS_EXPECT(config_.duration_hours > 0.0);
  MLFS_EXPECT(config_.min_iterations >= 1);
  MLFS_EXPECT(config_.min_iterations <= config_.max_iterations);
  MLFS_EXPECT(config_.diurnal_amplitude >= 0.0 && config_.diurnal_amplitude < 1.0);
  MLFS_EXPECT(config_.policy_fixed_fraction + config_.policy_optstop_fraction <= 1.0 + 1e-9);
}

std::vector<SimTime> PhillyTraceGenerator::arrival_times() {
  // Rejection-sample exactly num_jobs arrivals against the diurnal profile.
  const double window = hours(config_.duration_hours);
  std::vector<SimTime> arrivals;
  arrivals.reserve(config_.num_jobs);
  const double peak = 1.0 + config_.diurnal_amplitude;
  while (arrivals.size() < config_.num_jobs) {
    const double t = rng_.uniform(0.0, window);
    const double rate =
        1.0 + config_.diurnal_amplitude * std::sin(2.0 * std::numbers::pi * t / hours(24.0));
    if (rng_.uniform() * peak <= rate) arrivals.push_back(t);
  }
  std::sort(arrivals.begin(), arrivals.end());
  return arrivals;
}

JobSpec PhillyTraceGenerator::make_job(JobId id, SimTime arrival) {
  JobSpec spec;
  spec.id = id;
  spec.arrival = arrival;
  spec.seed = rng_.next_u64();

  const std::size_t algo_index =
      static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(
                                                      ModelZoo::algorithm_count()) - 1));
  spec.algorithm = ModelZoo::algorithm_at(algo_index);
  const ModelProfile& prof = ModelZoo::profile(spec.algorithm);

  spec.gpu_request = std::min(kGpuChoices[rng_.weighted_index(config_.gpu_request_weights)],
                              config_.max_gpu_request);
  // SVM cannot be model-partitioned (§4.1) — it is data-parallel only, and
  // large SVM jobs stay modest in worker count.
  if (spec.algorithm == MlAlgorithm::Svm) {
    spec.gpu_request = std::min(spec.gpu_request, 8);
  }
  spec.comm = rng_.bernoulli(config_.parameter_server_fraction)
                  ? CommStructure::ParameterServer
                  : CommStructure::AllReduce;

  spec.urgency = static_cast<double>(rng_.uniform_int(1, config_.urgency_levels));
  spec.train_data_mb = rng_.uniform(100.0, 1000.0);
  spec.comm_volume_ps_mb = rng_.uniform(50.0, 100.0);
  spec.comm_volume_ww_mb = rng_.uniform(50.0, 100.0);
  spec.deadline_slack_hours = rng_.uniform(0.5, 24.0);

  // Training curve for this job instance.
  spec.curve.max_accuracy = rng_.uniform(prof.max_accuracy_min, prof.max_accuracy_max);
  spec.curve.kappa = rng_.uniform(prof.kappa_min, prof.kappa_max);
  spec.curve.initial_loss = rng_.uniform(1.5, 3.0);
  spec.curve.final_loss = rng_.uniform(0.05, 0.3);
  spec.curve.noise_sigma = config_.loss_noise_sigma;
  spec.curve.noise_seed = rng_.next_u64();

  // Accuracy requirement reachable under the curve; iteration budget
  // over-provisioned beyond the requirement (the slack MLF-C reclaims).
  spec.accuracy_requirement = spec.curve.max_accuracy * rng_.uniform(0.80, 0.97);
  const LossCurve curve(spec.curve);
  const int needed =
      curve.iterations_to_accuracy(spec.accuracy_requirement, config_.max_iterations);
  int sampled = static_cast<int>(
      rng_.lognormal(config_.iteration_lognorm_mu, config_.iteration_lognorm_sigma));
  sampled = std::clamp(sampled, config_.min_iterations, config_.max_iterations);
  const double headroom =
      rng_.uniform(config_.iteration_headroom_min, config_.iteration_headroom_max);
  spec.max_iterations = std::clamp(
      std::max(sampled, static_cast<int>(std::ceil(needed * headroom))),
      config_.min_iterations, config_.max_iterations);
  // If the budget got clamped below what the requirement needs, relax the
  // requirement to what the budget can reach (users ask for the feasible).
  if (curve.iterations_to_accuracy(spec.accuracy_requirement, spec.max_iterations + 1) >
      spec.max_iterations) {
    spec.accuracy_requirement = 0.98 * curve.accuracy_at(spec.max_iterations);
  }

  // Stop policy mix + downgrade permission (§3.5).
  const double u = rng_.uniform();
  if (u < config_.policy_fixed_fraction) {
    spec.stop_policy = StopPolicy::FixedIterations;
  } else if (u < config_.policy_fixed_fraction + config_.policy_optstop_fraction) {
    spec.stop_policy = StopPolicy::OptStop;
  } else {
    spec.stop_policy = StopPolicy::AccuracyOnly;
  }
  spec.min_allowed_policy =
      rng_.bernoulli(config_.allow_downgrade_fraction) ? StopPolicy::AccuracyOnly
                                                       : spec.stop_policy;
  return spec;
}

std::vector<JobSpec> PhillyTraceGenerator::generate() {
  std::vector<JobSpec> jobs;
  jobs.reserve(config_.num_jobs);
  JobId id = 0;
  for (const SimTime arrival : arrival_times()) jobs.push_back(make_job(id++, arrival));
  return jobs;
}

// ---------------------------------------------------------------- CSV I/O

namespace {
constexpr const char* kHeader =
    "id,algorithm,comm,arrival,urgency,max_iterations,gpu_request,train_data_mb,"
    "accuracy_requirement,deadline_slack_hours,curve_max_accuracy,curve_kappa,"
    "curve_initial_loss,curve_final_loss,curve_noise_sigma,curve_noise_seed,"
    "comm_volume_ps_mb,comm_volume_ww_mb,stop_policy,min_allowed_policy,seed";

MlAlgorithm algorithm_from_string(const std::string& s) {
  for (std::size_t i = 0; i < ModelZoo::algorithm_count(); ++i) {
    const MlAlgorithm a = ModelZoo::algorithm_at(i);
    if (to_string(a) == s) return a;
  }
  throw ContractViolation("unknown algorithm in trace: " + s);
}

CommStructure comm_from_string(const std::string& s) {
  if (s == "parameter-server") return CommStructure::ParameterServer;
  if (s == "all-reduce") return CommStructure::AllReduce;
  throw ContractViolation("unknown comm structure in trace: " + s);
}

StopPolicy policy_from_string(const std::string& s) {
  if (s == "fixed-iterations") return StopPolicy::FixedIterations;
  if (s == "opt-stop") return StopPolicy::OptStop;
  if (s == "accuracy-only") return StopPolicy::AccuracyOnly;
  throw ContractViolation("unknown stop policy in trace: " + s);
}
}  // namespace

void write_trace_csv(std::ostream& os, const std::vector<JobSpec>& jobs) {
  os << kHeader << '\n';
  os.precision(17);
  for (const JobSpec& j : jobs) {
    os << j.id << ',' << to_string(j.algorithm) << ',' << to_string(j.comm) << ',' << j.arrival
       << ',' << j.urgency << ',' << j.max_iterations << ',' << j.gpu_request << ','
       << j.train_data_mb << ',' << j.accuracy_requirement << ',' << j.deadline_slack_hours << ','
       << j.curve.max_accuracy << ',' << j.curve.kappa << ',' << j.curve.initial_loss << ','
       << j.curve.final_loss << ',' << j.curve.noise_sigma << ',' << j.curve.noise_seed << ','
       << j.comm_volume_ps_mb << ',' << j.comm_volume_ww_mb << ',' << to_string(j.stop_policy)
       << ',' << to_string(j.min_allowed_policy) << ',' << j.seed << '\n';
  }
}

std::vector<JobSpec> read_trace_csv(std::istream& is) {
  std::string line;
  MLFS_EXPECT(static_cast<bool>(std::getline(is, line)));  // header
  std::vector<JobSpec> jobs;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, ',')) fields.push_back(field);
    JobSpec j;
    try {
      if (fields.size() != 21) {
        throw ContractViolation("expected 21 fields, got " + std::to_string(fields.size()));
      }
      std::size_t i = 0;
      const auto read = [&](auto& out, std::string_view name) {
        out = parse_number<std::remove_reference_t<decltype(out)>>(fields[i++], name);
      };
      read(j.id, "id");
      if (j.id == kInvalidJob) {
        throw ContractViolation("field id: " + std::to_string(j.id) + " is reserved");
      }
      j.algorithm = algorithm_from_string(fields[i++]);
      j.comm = comm_from_string(fields[i++]);
      read(j.arrival, "arrival");
      read(j.urgency, "urgency");
      read(j.max_iterations, "max_iterations");
      read(j.gpu_request, "gpu_request");
      read(j.train_data_mb, "train_data_mb");
      read(j.accuracy_requirement, "accuracy_requirement");
      read(j.deadline_slack_hours, "deadline_slack_hours");
      read(j.curve.max_accuracy, "curve.max_accuracy");
      read(j.curve.kappa, "curve.kappa");
      read(j.curve.initial_loss, "curve.initial_loss");
      read(j.curve.final_loss, "curve.final_loss");
      read(j.curve.noise_sigma, "curve.noise_sigma");
      read(j.curve.noise_seed, "curve.noise_seed");
      read(j.comm_volume_ps_mb, "comm_volume_ps_mb");
      read(j.comm_volume_ww_mb, "comm_volume_ww_mb");
      j.stop_policy = policy_from_string(fields[i++]);
      j.min_allowed_policy = policy_from_string(fields[i++]);
      read(j.seed, "seed");
      j.validate();
    } catch (const ContractViolation& e) {
      throw ContractViolation("trace CSV line " + std::to_string(line_no) + ": " + e.what());
    }
    jobs.push_back(j);
  }
  return jobs;
}

}  // namespace mlfs
