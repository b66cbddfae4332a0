// The benchmark's three workloads (see perfbench/README.md for why each
// was chosen and which layer it stresses). Every input is a pure function
// of (workload, seed): the trace is generated once from the seed and handed
// to the engine as RunRequest::workload, so repeated runs in one process
// simulate the identical job stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/durable.hpp"
#include "exp/runner.hpp"

namespace perfbench {

enum class Workload { PhillyMlfh, RackContendedCassini, StreamDurableMlfs };

/// Parses a workload name; throws std::invalid_argument for unknown names.
Workload parse_workload(const std::string& name);
std::string workload_name(Workload w);

/// Everything one repetition of a workload needs. For the streaming
/// workload `request.workload` holds the start set and `script` the
/// streamed tail; the other workloads leave `script` empty.
struct Inputs {
  mlfs::exp::RunRequest request;
  std::vector<mlfs::exp::ScriptedArrivalSource::Entry> script;
};

/// Configuration of a workload at `seed`, without its trace.
mlfs::exp::RunRequest make_request(Workload w, std::uint64_t seed);

/// Generates the trace for the request (the `workload.generate_s` layer)
/// and, for the streaming workload, splits off the streamed half.
Inputs generate_inputs(Workload w, std::uint64_t seed);

/// Durable-session settings of the streaming workload: a checkpoint every
/// 5000 events, all snapshots kept, no fsync (see README: disk
/// flush latency is deliberately not measured). `halt_at_event` unset.
mlfs::exp::DurableConfig durable_config(const std::string& dir);

}  // namespace perfbench
