// Identifier types and the small closed enums of the workload model.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace mlfs {

using JobId = std::uint32_t;
using TaskId = std::uint32_t;
using ServerId = std::uint32_t;

inline constexpr JobId kInvalidJob = std::numeric_limits<JobId>::max();
inline constexpr TaskId kInvalidTask = std::numeric_limits<TaskId>::max();
inline constexpr ServerId kInvalidServer = std::numeric_limits<ServerId>::max();
inline constexpr int kNoGpu = -1;

/// The five ML algorithms the paper's evaluation mixes (§4.1).
enum class MlAlgorithm { AlexNet, ResNet, Mlp, Lstm, Svm };

/// Parameter-accumulation structure (§3.2).
enum class CommStructure { ParameterServer, AllReduce };

/// MLF-C stop-policy options (§3.5): i) run the fixed iteration count,
/// ii) OptStop at the predicted accuracy plateau, iii) stop as soon as the
/// required accuracy is reached.
enum class StopPolicy { FixedIterations = 0, OptStop = 1, AccuracyOnly = 2 };

enum class TaskState { Queued, Running, Finished, Removed };

/// Failed is terminal like Completed: a job that exhausted its fault-retry
/// budget (sim/health.hpp) — it never completes and counts against JCT at
/// the time it was abandoned.
enum class JobState { Waiting, Running, Completed, Failed };

// The last value of each persisted enum: io::read_enum (and every enum
// member of a field-listed record) rejects a byte above it.
constexpr MlAlgorithm enum_last(MlAlgorithm) { return MlAlgorithm::Svm; }
constexpr CommStructure enum_last(CommStructure) { return CommStructure::AllReduce; }
constexpr StopPolicy enum_last(StopPolicy) { return StopPolicy::AccuracyOnly; }
constexpr TaskState enum_last(TaskState) { return TaskState::Removed; }
constexpr JobState enum_last(JobState) { return JobState::Failed; }

std::string to_string(MlAlgorithm a);
std::string to_string(CommStructure c);
std::string to_string(StopPolicy p);

}  // namespace mlfs
