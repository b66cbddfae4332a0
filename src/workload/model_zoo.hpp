// Profiles of the five ML algorithms the evaluation mixes (§4.1) and the
// factory that turns a JobSpec into a runtime Job + its Task pool entries.
//
// Partition structure follows the paper's setup: "In MLP and AlexNet,
// because of their sequential task dependency graph structures, we
// partitioned the model sequentially ... In LSTM and ResNet ... partitioned
// each layer into several parts ... SVM only used data parallelism", and
// "We also set the number of model partitions to [the GPU request]".
#pragma once

#include "common/rng.hpp"
#include "workload/job.hpp"

namespace mlfs {

enum class PartitionStyle {
  Sequential,        ///< chain of partitions (MLP, AlexNet)
  Layered,           ///< stages of parallel layer-parts (ResNet, LSTM)
  DataParallelOnly,  ///< independent full-model workers (SVM)
};

/// Static per-algorithm characteristics. Ranges are sampled per job by the
/// trace generator; point values parameterize instantiation.
struct ModelProfile {
  MlAlgorithm algorithm;
  PartitionStyle style;
  double params_m_min, params_m_max;     ///< model size range, millions of parameters
  double base_iteration_seconds;         ///< whole-model single-iteration compute, reference GPU
  double batch_mb;                       ///< mini-batch size (1 MB CNNs, 1.5 KB others; §4.1)
  double max_accuracy_min, max_accuracy_max;  ///< achievable-accuracy range
  double kappa_min, kappa_max;           ///< loss-curve saturation-speed range
  /// Compute/communicate duty cycle: the fraction of each iteration the
  /// model spends in its communication phase (gradient exchange), in
  /// (0, 1]. Parameter-heavy models with short iterations sit high (the
  /// network-bound regime); compute-bound models sit low. Consumed by the
  /// link-contention model (sim/link_model.hpp) when
  /// ClusterConfig::duty_cycles is on.
  double comm_duty_cycle;
};

class ModelZoo {
 public:
  /// Profile lookup; total 5 algorithms.
  static const ModelProfile& profile(MlAlgorithm algorithm);

  static constexpr std::size_t algorithm_count() { return 5; }
  static MlAlgorithm algorithm_at(std::size_t index);

  struct Instantiated {
    Job job;
    std::vector<Task> tasks;  ///< tasks[i].id == job.task_at(i)
  };

  /// Builds the runtime job: partitions the model per the algorithm's
  /// style into `spec.gpu_request` partitions (SVM: data-parallel
  /// workers), adds a parameter-server task when spec.comm is
  /// ParameterServer, assigns per-task sizes/demands/compute times from
  /// spec.seed-derived randomness, and computes the ideal iteration time
  /// and the deadline max(1.1 t_e, t_r) (§4.1).
  static Instantiated instantiate(const JobSpec& spec, TaskId first_task_id);

  /// Tasks instantiate() builds for `spec`: one per partition, plus the
  /// parameter server.
  static std::size_t task_count(const JobSpec& spec) {
    return static_cast<std::size_t>(spec.gpu_request) +
           (spec.comm == CommStructure::ParameterServer ? 1 : 0);
  }

  /// Reference NIC throughput used to convert communication volumes into
  /// ideal-time estimates (MB/s).
  static constexpr double kReferenceBandwidthMBps = 1000.0;
};

/// A job's compute/communicate duty cycle — pure function of its
/// algorithm (ModelProfile::comm_duty_cycle).
double comm_duty_cycle(MlAlgorithm algorithm);

}  // namespace mlfs
