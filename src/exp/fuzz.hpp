// Property-based fuzzing of the simulator under the invariant auditor
// (sim/audit.hpp). A FuzzCase is a fully-scalar description of one random
// scenario — topology, workload, fault process, scheduler choice — derived
// deterministically from (master_seed, case index), so any failure is
// replayable from two integers or from its serialized key=value form.
//
// run_fuzz_sweep executes N audited cases across every requested scheduler
// and, on failure, greedily *shrinks* the case (halve jobs/servers, strip
// fault dimensions, shorten horizons) while the same invariant keeps
// failing, then reports the minimal case plus a replayable RunRequest.
// Driven by tools/mlfs_fuzz and tests/prop/.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace mlfs::exp {

/// One randomized scenario, all scalars (serializable / shrinkable).
struct FuzzCase {
  std::uint64_t master_seed = 7;  ///< sweep seed this case was drawn from
  std::uint64_t index = 0;        ///< case number within the sweep
  std::uint64_t trace_seed = 0;
  std::uint64_t engine_seed = 0;
  std::string scheduler = "MLFS";

  // Topology.
  std::size_t servers = 4;
  int gpus_per_server = 4;
  int servers_per_rack = 0;
  double slow_fraction = 0.0;
  /// Non-zero = heterogeneous per-server GPU counts (ClusterConfig::total_gpus).
  std::size_t total_gpus = 0;

  // Workload.
  std::size_t num_jobs = 20;
  double duration_hours = 4.0;
  double max_sim_hours = 24.0 * 7;
  int max_gpu_request = 8;

  // Stragglers.
  double straggler_probability = 0.0;
  int straggler_replicas = 0;

  // Fault process.
  double server_mtbf_hours = 0.0;
  double server_mttr_hours = 0.5;
  double task_kill_probability = 0.0;
  double rack_mtbf_hours = 0.0;
  double rack_mttr_hours = 0.25;
  int checkpoint_interval = 1;
  double flaky_fraction = 0.0;

  // Recovery policies (sim/health.hpp) — default off, like EngineConfig.
  bool recovery = false;
  bool quarantine = true;
  int retry_budget = 0;  ///< 0 = unlimited
  bool adaptive_checkpoint = false;
  bool spread_placement = false;

  // Snapshot/restore dimension: when set, the case runs the three-engine
  // restore-equivalence check (exp/restore_check.hpp) with the snapshot cut
  // at `snapshot_event % total_events`; any divergence fails with invariant
  // "snapshot-restore" and the shrunk case carries a replayable
  // snapshot_event= line.
  bool snapshot_check = false;
  std::uint64_t snapshot_event = 0;

  std::size_t rl_warmup_samples = 2000;

  // Comm-memo capacity, fuzzed down to degenerate values (1 slot) to
  // exercise eviction churn.
  std::size_t comm_memo_slots = 4096;

  // Prediction-service dimension (predict/service.hpp): the opt-in
  // observation-coarsening approximation.
  bool coarsen_curve = false;

  // Link-contention dimensions (sim/link_model.hpp): max-min fair link
  // sharing, optionally with compute/communicate duty cycles, under
  // randomized NIC / rack-uplink capacities (both flags default off like
  // ClusterConfig). The auditor's link-model conservation and link-share
  // invariants run on every audited event whenever contention is on.
  bool link_contention = false;
  bool duty_cycles = false;
  double nic_capacity_mbps = 1000.0;
  double rack_uplink_capacity_mbps = 600.0;

  // Zero-loss crash-recovery dimension (exp/durable.hpp): when set, the
  // case crashes a journaled durable run at `crash_event % total_events`,
  // recovers in a second session (snapshot + journal replay), and any
  // divergence from the never-crashed streamed reference fails with
  // invariant "crash-zero-loss". `stream_jobs` withholds that many trace
  // jobs from the start set and streams them into the running engine, so
  // journaled arrivals cross the crash boundary.
  bool crash_check = false;
  std::uint64_t crash_event = 0;
  std::size_t stream_jobs = 0;

  // Auditing.
  int audit_stride = 1;
  /// Enables ClusterConfig::debug_slot_leak — the deliberate bug the
  /// harness must catch and shrink (self-test; see tests/prop).
  bool inject_slot_leak = false;
};

/// Deterministically draws case `index` of sweep `master_seed`; the
/// scheduler cycles through `schedulers` by index, so any N >= |schedulers|
/// consecutive cases cover every scheduler.
FuzzCase generate_case(std::uint64_t master_seed, std::uint64_t index,
                       const std::vector<std::string>& schedulers);

/// The audited RunRequest this case describes (what execute_run consumes —
/// the replayable artifact reported on failure).
RunRequest to_request(const FuzzCase& c);

/// One-line human description (scheduler, topology, fault dimensions).
std::string describe(const FuzzCase& c);

/// key=value serialization (one field per line, '#' comments ignored on
/// parse). parse_fuzz_case throws ContractViolation on unknown keys or
/// malformed lines.
std::string serialize(const FuzzCase& c);
FuzzCase parse_fuzz_case(std::istream& in);

/// Why a case failed: the violated invariant id for AuditViolations (or
/// "determinism" for replay divergence), empty for any other exception.
struct FuzzFailure {
  FuzzCase failing_case;
  std::string invariant;
  std::string what;  ///< exception message / diagnostic
};

/// Runs one audited case; nullopt = clean pass. With `check_determinism`
/// the case runs twice and any deterministic_equal divergence counts as a
/// failure.
std::optional<FuzzFailure> run_fuzz_case(const FuzzCase& c, bool check_determinism = false);

/// Greedy shrink: repeatedly applies case-reducing transforms (halve
/// jobs/servers/GPUs, drop fault dimensions, flatten racks, shorten
/// horizons), keeping a transform iff the reduced case still fails with
/// the same invariant, until a full pass accepts nothing.
struct ShrinkResult {
  FuzzCase minimal;
  FuzzFailure failure;   ///< failure of the minimal case
  int attempts = 0;      ///< candidate runs executed
  int accepted = 0;      ///< transforms that kept the violation alive
};
ShrinkResult shrink_case(const FuzzCase& original, const FuzzFailure& original_failure,
                         int max_rounds = 8);

struct FuzzSweepOptions {
  std::uint64_t seed = 7;
  std::size_t runs = 100;
  /// Schedulers to cycle through; empty = every registered scheduler.
  std::vector<std::string> schedulers;
  bool check_determinism = false;
  bool inject_slot_leak = false;  ///< self-test mode: every case carries the bug
  int shrink_rounds = 8;
  std::size_t max_failures = 3;  ///< stop collecting (and shrinking) after this many
  unsigned threads = 0;          ///< 0 = hardware concurrency
  /// Progress sink (case index, case, failed) — called serially (under a
  /// lock) as each case resolves; completion order varies with `threads`.
  std::function<void(std::size_t, const FuzzCase&, bool)> progress;
};

struct FuzzSweepOutcome {
  std::size_t runs = 0;
  std::vector<ShrinkResult> failures;  ///< shrunk, ordered by case index
  bool clean() const { return failures.empty(); }
};

/// Runs the sweep (cases execute concurrently up to `threads`; outcome is
/// independent of the thread count), then shrinks the first
/// `max_failures` failing cases serially.
FuzzSweepOutcome run_fuzz_sweep(const FuzzSweepOptions& options);

}  // namespace mlfs::exp
