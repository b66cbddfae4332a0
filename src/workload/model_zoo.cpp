#include "workload/model_zoo.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/expect.hpp"

namespace mlfs {

namespace {

constexpr std::array<ModelProfile, 5> kProfiles = {{
    // algorithm, style, params_m range, base iter s, batch MB, a_max range, kappa range,
    // comm duty cycle
    {MlAlgorithm::AlexNet, PartitionStyle::Sequential, 55.0, 65.0, 45.0, 1.0, 0.75, 0.88, 5.0,
     15.0, 0.45},
    {MlAlgorithm::ResNet, PartitionStyle::Layered, 20.0, 30.0, 90.0, 1.0, 0.85, 0.96, 8.0, 20.0,
     0.25},
    {MlAlgorithm::Mlp, PartitionStyle::Sequential, 1.0, 5.0, 15.0, 0.0015, 0.70, 0.90, 4.0, 10.0,
     0.35},
    {MlAlgorithm::Lstm, PartitionStyle::Layered, 8.0, 15.0, 60.0, 0.0015, 0.72, 0.92, 6.0, 16.0,
     0.40},
    {MlAlgorithm::Svm, PartitionStyle::DataParallelOnly, 0.05, 0.5, 8.0, 0.0015, 0.65, 0.85, 3.0,
     8.0, 0.15},
}};

std::size_t profile_index(MlAlgorithm a) {
  for (std::size_t i = 0; i < kProfiles.size(); ++i) {
    if (kProfiles[i].algorithm == a) return i;
  }
  MLFS_EXPECT(false && "unknown algorithm");
  return 0;
}

/// Stage layout for Layered partitioning: P partitions arranged as
/// `stages` sequential groups of `width` parallel layer-parts.
struct StageLayout {
  std::size_t stages;
  std::size_t width;
};

StageLayout layered_layout(std::size_t partitions) {
  // Wider than deep for small counts, deeper for big models; every
  // partition count in {1,2,4,8,16,32} factors exactly.
  switch (partitions) {
    case 1: return {1, 1};
    case 2: return {1, 2};
    case 4: return {2, 2};
    case 8: return {2, 4};
    case 16: return {4, 4};
    case 32: return {4, 8};
    default: {
      const auto width = static_cast<std::size_t>(std::max(1.0, std::sqrt(partitions)));
      const std::size_t stages = (partitions + width - 1) / width;
      return {stages, width};
    }
  }
}

}  // namespace

const ModelProfile& ModelZoo::profile(MlAlgorithm algorithm) {
  return kProfiles[profile_index(algorithm)];
}

double comm_duty_cycle(MlAlgorithm algorithm) {
  return ModelZoo::profile(algorithm).comm_duty_cycle;
}

MlAlgorithm ModelZoo::algorithm_at(std::size_t index) {
  MLFS_EXPECT(index < kProfiles.size());
  return kProfiles[index].algorithm;
}

ModelZoo::Instantiated ModelZoo::instantiate(const JobSpec& spec, TaskId first_task_id) {
  MLFS_EXPECT(spec.gpu_request >= 1);
  const ModelProfile& prof = profile(spec.algorithm);
  Rng rng(spec.seed ^ 0xabcdef1234567890ULL);

  const auto partitions = static_cast<std::size_t>(spec.gpu_request);
  const bool has_ps = spec.comm == CommStructure::ParameterServer;
  const std::size_t node_count = task_count(spec);

  // Total model size for this job instance.
  const double total_params_m = rng.uniform(prof.params_m_min, prof.params_m_max);

  // --- partition sizes (S_k) ---
  // Sequential/Layered: random uneven split of the model. DataParallelOnly:
  // each worker holds the full model (S_k/S_J == 1 for all — the spatial
  // size feature is neutral for pure data parallelism, as it should be).
  std::vector<double> partition_params(partitions);
  if (prof.style == PartitionStyle::DataParallelOnly) {
    std::fill(partition_params.begin(), partition_params.end(), total_params_m);
  } else {
    double total_weight = 0.0;
    for (auto& w : partition_params) {
      w = rng.uniform(0.5, 1.5);
      total_weight += w;
    }
    for (auto& w : partition_params) w = total_params_m * (w / total_weight);
  }

  // --- dependency graph ---
  Dag dag(node_count);
  switch (prof.style) {
    case PartitionStyle::Sequential:
      for (std::size_t i = 0; i + 1 < partitions; ++i) dag.add_edge(i, i + 1);
      break;
    case PartitionStyle::Layered: {
      const StageLayout layout = layered_layout(partitions);
      auto node_of = [&](std::size_t stage, std::size_t part) {
        return std::min(stage * layout.width + part, partitions - 1);
      };
      for (std::size_t s = 0; s + 1 < layout.stages; ++s) {
        for (std::size_t a = 0; a < layout.width; ++a) {
          for (std::size_t b = 0; b < layout.width; ++b) {
            const std::size_t from = node_of(s, a);
            const std::size_t to = node_of(s + 1, b);
            if (from != to) dag.add_edge(from, to);
          }
        }
      }
      break;
    }
    case PartitionStyle::DataParallelOnly:
      break;  // independent workers
  }
  if (has_ps) {
    // Workers feed the parameter server; it is the sink of every chain.
    for (std::size_t i = 0; i < partitions; ++i) {
      if (dag.children(i).empty() || prof.style == PartitionStyle::DataParallelOnly) {
        dag.add_edge(i, partitions);
      }
    }
    // Ensure connectivity even if every worker had children (layered case
    // where only last-stage nodes are sinks is already handled above).
  }

  // --- per-task compute time ---
  // Sequential chain: partition times sum to ~base (a batch flows through
  // all partitions). Layered: stage s holds width parallel parts, each
  // ~base/P, so the critical path is ~base/width per stage. SVM: each
  // worker runs the full model on its shard (base seconds).
  std::vector<double> compute_seconds(partitions);
  const double size_scale = spec.train_data_mb / 500.0;  // data size scales epoch time
  for (std::size_t i = 0; i < partitions; ++i) {
    double share = 0.0;
    if (prof.style == PartitionStyle::DataParallelOnly) {
      // Data shard per worker: full model, 1/P of the data.
      share = 1.0 / static_cast<double>(partitions);
    } else {
      share = partition_params[i] / total_params_m;
    }
    compute_seconds[i] =
        prof.base_iteration_seconds * share * size_scale * rng.lognormal(0.0, 0.15);
    compute_seconds[i] = std::max(compute_seconds[i], 0.05);
  }

  // --- tasks ---
  std::vector<Task> tasks;
  tasks.reserve(node_count);
  std::vector<TaskId> ids;
  ids.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    Task t;
    t.id = first_task_id + static_cast<TaskId>(i);
    t.job = spec.id;
    t.local_index = static_cast<std::uint32_t>(i);
    t.is_parameter_server = has_ps && i == partitions;
    if (t.is_parameter_server) {
      t.partition_params_m = total_params_m;  // PS holds the full model
      t.state_size_mb = 4.0 * total_params_m;
      t.base_compute_seconds = 0.2 * prof.base_iteration_seconds /
                               static_cast<double>(partitions);  // aggregation cost
      t.demand = ResourceVector(/*gpu=*/0.05, /*cpu=*/rng.uniform(0.08, 0.15),
                                /*mem=*/std::clamp(0.004 * total_params_m, 0.02, 0.35),
                                /*net=*/std::clamp(spec.comm_volume_ps_mb *
                                                       static_cast<double>(partitions) / 4000.0,
                                                   0.02, 0.20));
    } else {
      t.partition_params_m = partition_params[i];
      t.state_size_mb = 4.0 * partition_params[i] + 2.0 * prof.batch_mb;
      t.base_compute_seconds = compute_seconds[i];
      // Nominal GPU demand stays below the overload threshold h_r (0.9)
      // so every task is placeable on an idle GPU; fluctuation noise is
      // what pushes servers over the line at runtime.
      // Two light workers can share a GPU under h_r=0.9; heavier ones own
      // one. Makes GPU sharing (and its contention slowdown) a real event.
      const double gpu_demand = prof.style == PartitionStyle::DataParallelOnly
                                    ? rng.uniform(0.20, 0.40)
                                    : rng.uniform(0.35, 0.62);
      const double comm_mb =
          has_ps ? spec.comm_volume_ps_mb : spec.comm_volume_ww_mb;
      t.demand = ResourceVector(
          gpu_demand, rng.uniform(0.02, 0.08),
          std::clamp(0.004 * t.partition_params_m + 0.01 * prof.batch_mb, 0.02, 0.30),
          std::clamp(comm_mb / 1500.0, 0.01, 0.10));
    }
    // Persistent demand mis-estimation: solo tasks stay within the
    // overload threshold, but co-located underestimates overload servers
    // in a way only migration can fix (the §3.3.3 scenario).
    t.usage_bias = std::clamp(rng.lognormal(0.05, 0.15), 0.8, 1.45);
    ids.push_back(t.id);
    tasks.push_back(t);
  }

  // --- ideal (no contention) iteration time: DAG critical path + comm ---
  std::vector<std::size_t> order = dag.topological_order();
  std::vector<double> finish(node_count, 0.0);
  double critical_path = 0.0;
  for (const std::size_t u : order) {
    double start = 0.0;
    for (const std::size_t p : dag.parents(u)) start = std::max(start, finish[p]);
    const double comm_in =
        dag.parents(u).empty()
            ? 0.0
            : (has_ps && u == partitions ? spec.comm_volume_ps_mb : spec.comm_volume_ww_mb) /
                  kReferenceBandwidthMBps;
    finish[u] = start + comm_in + tasks[u].base_compute_seconds;
    critical_path = std::max(critical_path, finish[u]);
  }
  if (spec.comm == CommStructure::AllReduce) {
    // Ring all-reduce round at the end of each iteration.
    critical_path += spec.comm_volume_ww_mb / kReferenceBandwidthMBps;
  }

  Job job(spec, std::move(dag), std::move(order), std::move(ids), total_params_m,
          critical_path);
  const double t_e = job.estimated_execution_seconds();
  job.set_deadline(spec.arrival + std::max(1.1 * t_e, hours(spec.deadline_slack_hours)));
  return {std::move(job), std::move(tasks)};
}

}  // namespace mlfs
