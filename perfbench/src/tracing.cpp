#include "tracing.hpp"

#include "core/mlfs.hpp"

namespace perfbench {

TimedScheduler::TimedScheduler(mlfs::Scheduler& inner) : inner_(inner) {
  const auto* facade = dynamic_cast<const mlfs::core::MlfsScheduler*>(&inner_);
  trace_.rl_stack = facade != nullptr && !facade->config().heuristic_only;
}

void TimedScheduler::schedule(mlfs::SchedulerContext& ctx) {
  const bool busy = !ctx.queue.empty();
  const auto* facade =
      trace_.rl_stack ? static_cast<const mlfs::core::MlfsScheduler*>(&inner_) : nullptr;
  const bool policy_before = facade != nullptr && facade->rl_active();

  const auto start = Clock::now();
  inner_.schedule(ctx);
  const double s = seconds_since(start);

  trace_.busy_s += s;
  ++trace_.rounds;
  if (busy) trace_.busy_round_ms.push_back(s * 1e3);
  if (facade != nullptr) {
    if (policy_before) {
      trace_.policy_busy_s += s;
      ++trace_.policy_rounds;
    } else {
      trace_.heuristic_busy_s += s;
      if (facade->rl_active()) trace_.switch_round_ms = s * 1e3;
    }
  }
}

void TimedScheduler::on_job_arrival(const mlfs::Job& job, mlfs::SimTime now) {
  const auto start = Clock::now();
  inner_.on_job_arrival(job, now);
  trace_.notify_s += seconds_since(start);
}

void TimedScheduler::on_job_complete(const mlfs::Job& job, mlfs::SimTime now) {
  const auto start = Clock::now();
  inner_.on_job_complete(job, now);
  trace_.notify_s += seconds_since(start);
}

void TimedController::before_schedule(mlfs::Cluster& cluster,
                                      const std::vector<mlfs::TaskId>& queue, mlfs::SimTime now) {
  const auto start = Clock::now();
  inner_.before_schedule(cluster, queue, now);
  busy_s_ += seconds_since(start);
}

TracedEngine build_traced_engine(const mlfs::exp::RunRequest& request) {
  // Mirrors exp::build_engine, including its recovery → placement coupling.
  mlfs::core::MlfsConfig mlfs_config = request.mlfs_config;
  if (request.engine.recovery.enabled && request.engine.recovery.spread_placement) {
    mlfs_config.placement.spread_racks = true;
  }
  TracedEngine t;
  t.instance = mlfs::exp::make_scheduler(request.scheduler, mlfs_config);
  t.scheduler = std::make_unique<TimedScheduler>(*t.instance.scheduler);
  if (t.instance.controller) {
    t.controller = std::make_unique<TimedController>(*t.instance.controller);
  }
  t.engine = std::make_unique<mlfs::SimEngine>(request.cluster, request.engine, *request.workload,
                                               *t.scheduler, t.controller.get());
  return t;
}

bool streaming_step(mlfs::SimEngine& engine, const mlfs::exp::ScriptedArrivalSource& source) {
  const std::uint64_t before_events = engine.events_processed();
  const std::size_t before_injected = engine.injected_specs().size();
  if (engine.step()) return true;
  if (!source.pending()) return false;
  return engine.events_processed() != before_events ||
         engine.injected_specs().size() != before_injected;
}

}  // namespace perfbench
