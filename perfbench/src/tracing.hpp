// Forwarding timing decorators for the traced run. They wrap the
// scheduler and the load controller the registry built, forward every
// virtual unchanged, and time the calls from outside the program, so the
// simulation — and its event_stream_hash — is the same with or without
// them (perfbench_selftest checks this on every workload). The untraced
// run never attaches them.
#pragma once

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/durable.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// What TimedScheduler measured over one run.
struct SchedulerTrace {
  double busy_s = 0.0;    ///< inside schedule()
  double notify_s = 0.0;  ///< inside on_job_arrival / on_job_complete
  std::size_t rounds = 0;
  /// Per-round wall time (ms) of rounds that began with a non-empty queue.
  std::vector<double> busy_round_ms;
  /// RL split, only for the MLFS facade with the RL stack enabled
  /// (MlfsScheduler::rl_active() read before each round).
  bool rl_stack = false;
  double policy_busy_s = 0.0;
  std::size_t policy_rounds = 0;
  double heuristic_busy_s = 0.0;
  double switch_round_ms = 0.0;  ///< the round in which the policy took over
};

class TimedScheduler final : public mlfs::Scheduler {
 public:
  explicit TimedScheduler(mlfs::Scheduler& inner);

  std::string name() const override { return inner_.name(); }
  mlfs::SchedStats sched_stats() const override { return inner_.sched_stats(); }
  void schedule(mlfs::SchedulerContext& ctx) override;
  void on_job_arrival(const mlfs::Job& job, mlfs::SimTime now) override;
  void on_job_complete(const mlfs::Job& job, mlfs::SimTime now) override;
  void audit_invariants(const mlfs::Cluster& cluster, mlfs::SimTime now) const override {
    inner_.audit_invariants(cluster, now);
  }
  void save_state(std::ostream& os) const override { inner_.save_state(os); }
  void restore_state(std::istream& is) override { inner_.restore_state(is); }

  const SchedulerTrace& trace() const { return trace_; }

 private:
  mlfs::Scheduler& inner_;
  SchedulerTrace trace_;
};

class TimedController final : public mlfs::LoadController {
 public:
  explicit TimedController(mlfs::LoadController& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  void before_schedule(mlfs::Cluster& cluster, const std::vector<mlfs::TaskId>& queue,
                       mlfs::SimTime now) override;
  void save_state(std::ostream& os) const override { inner_.save_state(os); }
  void restore_state(std::istream& is) override { inner_.restore_state(is); }

  double busy_s() const { return busy_s_; }

 private:
  mlfs::LoadController& inner_;
  double busy_s_ = 0.0;
};

/// A registry-built scheduler (and controller, for MLFS) wrapped in the
/// timing decorators, with the engine constructed on the decorators.
struct TracedEngine {
  mlfs::exp::SchedulerInstance instance;
  std::unique_ptr<TimedScheduler> scheduler;
  std::unique_ptr<TimedController> controller;  ///< null without a controller
  std::unique_ptr<mlfs::SimEngine> engine;
};

/// exp::build_engine with the decorators in between.
TracedEngine build_traced_engine(const mlfs::exp::RunRequest& request);

/// One step of a streaming drive with the arrival source attached; the
/// same stopping rule as exp::run_streaming, whose drive loop is private
/// to exp/durable.cpp. Returns false when the run is over.
bool streaming_step(mlfs::SimEngine& engine, const mlfs::exp::ScriptedArrivalSource& source);

}  // namespace perfbench
