// Self-test of the tracing decorators (ctest -R perfbench_selftest in the
// benchmark's build directory, or run the binary directly):
//  1. every Scheduler / LoadController virtual reaches the wrapped object;
//  2. on every workload, a run with the decorators attached has the same
//     event_stream_hash and deterministic RunMetrics as one without;
//  3. a snapshot taken from a decorated engine restores into a plain one
//     and the resumed run ends identical (save_state/restore_state and
//     name() forward, so the config fingerprint matches).
#include <exception>
#include <iostream>
#include <sstream>

#include "tracing.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
  if (!ok) ++failures;
}

/// Records which virtuals were called.
class RecordingScheduler final : public mlfs::Scheduler {
 public:
  mutable int calls[7] = {};
  std::string name() const override { return "recording"; }
  mlfs::SchedStats sched_stats() const override {
    ++calls[0];
    return {1, 2, 3, 4};
  }
  void schedule(mlfs::SchedulerContext&) override { ++calls[1]; }
  void on_job_arrival(const mlfs::Job&, mlfs::SimTime) override { ++calls[2]; }
  void on_job_complete(const mlfs::Job&, mlfs::SimTime) override { ++calls[3]; }
  void audit_invariants(const mlfs::Cluster&, mlfs::SimTime) const override { ++calls[4]; }
  void save_state(std::ostream& os) const override {
    ++calls[5];
    os << "state";
  }
  void restore_state(std::istream&) override { ++calls[6]; }
};

class RecordingController final : public mlfs::LoadController {
 public:
  mutable int calls[3] = {};
  std::string name() const override { return "recording-c"; }
  void before_schedule(mlfs::Cluster&, const std::vector<mlfs::TaskId>&, mlfs::SimTime) override {
    ++calls[0];
  }
  void save_state(std::ostream&) const override { ++calls[1]; }
  void restore_state(std::istream&) override { ++calls[2]; }
};

void test_forwarding() {
  mlfs::exp::RunRequest request = make_request(Workload::StreamDurableMlfs, 1);
  request.trace.num_jobs = 4;
  const mlfs::exp::EngineBundle bundle = mlfs::exp::build_engine(request);
  mlfs::Cluster& cluster = bundle.engine->cluster();
  const mlfs::Job& job = cluster.job(0);

  RecordingScheduler inner;
  TimedScheduler timed(inner);
  const mlfs::SchedStats stats = timed.sched_stats();
  std::vector<mlfs::TaskId> queue;
  struct NoOps final : mlfs::SchedulerOps {
    bool place(mlfs::TaskId, mlfs::ServerId, int) override { return false; }
    void preempt_to_queue(mlfs::TaskId) override {}
    bool migrate(mlfs::TaskId, mlfs::ServerId, int) override { return false; }
    void release(mlfs::TaskId) override {}
  } ops;
  mlfs::SchedulerContext ctx{cluster, queue, ops};
  timed.schedule(ctx);
  timed.on_job_arrival(job, 0.0);
  timed.on_job_complete(job, 0.0);
  timed.audit_invariants(cluster, 0.0);
  std::stringstream state;
  timed.save_state(state);
  timed.restore_state(state);
  bool all = timed.name() == "recording" && stats.candidates_linear == 2 &&
             state.str() == "state";
  for (const int c : inner.calls) all = all && c == 1;
  expect(all, "TimedScheduler forwards every Scheduler virtual");

  RecordingController inner_c;
  TimedController timed_c(inner_c);
  timed_c.before_schedule(cluster, queue, 0.0);
  timed_c.save_state(state);
  timed_c.restore_state(state);
  bool all_c = timed_c.name() == "recording-c";
  for (const int c : inner_c.calls) all_c = all_c && c == 1;
  expect(all_c, "TimedController forwards every LoadController virtual");
}

/// Drives an engine to the end (streaming the script when present).
mlfs::RunMetrics drive(mlfs::SimEngine& engine, const Inputs& in) {
  mlfs::exp::ScriptedArrivalSource source(in.script);
  if (!in.script.empty()) engine.set_arrival_source(&source);
  while (in.script.empty() ? engine.step() : streaming_step(engine, source)) {
  }
  return engine.finalize();
}

void test_workload(Workload w) {
  const std::string name = workload_name(w);
  const Inputs in = generate_inputs(w, 1);
  const mlfs::RunMetrics plain = in.script.empty()
                                     ? mlfs::exp::build_engine(in.request).engine->run()
                                     : mlfs::exp::run_streaming(in.request, in.script);

  TracedEngine traced = build_traced_engine(in.request);
  const mlfs::RunMetrics decorated = drive(*traced.engine, in);
  expect(decorated.event_stream_hash == plain.event_stream_hash &&
             mlfs::deterministic_equal(decorated, plain),
         name + ": decorated run identical to the plain run");
  expect(traced.scheduler->trace().rounds == plain.sched_rounds && plain.sched_rounds > 0,
         name + ": decorator saw every scheduling round");

  // Snapshot a decorated engine halfway and resume it in a plain one.
  TracedEngine half = build_traced_engine(in.request);
  mlfs::exp::ScriptedArrivalSource source(in.script);
  if (!in.script.empty()) half.engine->set_arrival_source(&source);
  while (half.engine->events_processed() < plain.events_processed / 2) {
    if (in.script.empty() ? !half.engine->step() : !streaming_step(*half.engine, source)) break;
  }
  std::stringstream snapshot;
  half.engine->save_snapshot(snapshot);
  mlfs::exp::EngineBundle resumed = mlfs::exp::build_engine(in.request);
  resumed.engine->restore_snapshot(snapshot);
  // The resumed engine continues the script after what the snapshot holds.
  Inputs rest = in;
  rest.script.erase(rest.script.begin(),
                    rest.script.begin() +
                        static_cast<std::ptrdiff_t>(resumed.engine->injected_specs().size()));
  const mlfs::RunMetrics finished = drive(*resumed.engine, rest);
  expect(finished.event_stream_hash == plain.event_stream_hash &&
             mlfs::deterministic_equal(finished, plain),
         name + ": decorated snapshot resumes identically in a plain engine");
}

}  // namespace

int main() {
  test_forwarding();
  for (const Workload w : {Workload::PhillyMlfh, Workload::RackContendedCassini,
                           Workload::StreamDurableMlfs}) {
    try {
      test_workload(w);
    } catch (const std::exception& e) {
      expect(false, workload_name(w) + ": threw " + e.what());
    }
  }
  std::cout << (failures == 0 ? "all passed" : "FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}
