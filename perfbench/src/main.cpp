// perfbench: runs one workload in this process and prints one JSON object
// as the last line of stdout (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// --trace 0 measures the end-to-end metrics with nothing attached to the
// program; --trace 1 is the separate traced run that times each layer
// through the decorators in tracing.hpp. Both check the outputs and exit
// non-zero when a check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/journal.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace perfbench;
using mlfs::RunMetrics;

namespace {

/// Set-up samples taken before every measured repetition; setup_s is the
/// fastest of all of them (one set-up is only tens of ms, see README).
constexpr int kSetupsPerRep = 10;
/// Repetitions a run always makes, even past its time budget.
constexpr int kMinReps = 2;
/// An engine drive is timed in stretches of this many events (~0.1 s).
constexpr std::uint64_t kStretchEvents = 10000;
/// The durable workload's drive loop is inside exp::run_durable and cannot
/// be cut from outside, so the untraced run crashes it at this many - 1
/// evenly spaced events, recovering each time; each session is a stretch.
constexpr std::uint64_t kDurableSessions = 8;
/// snapshot.save_ms / restore_ms are medians over this many round trips.
constexpr int kSnapshotTrips = 5;

struct Args {
  Workload workload = Workload::PhillyMlfh;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = parse_workload(value);
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || a.workdir.empty() || !(a.seconds > 0.0)) {
    throw std::invalid_argument("need --workload, --workdir and a positive --seconds");
  }
  return a;
}

/// Low median: the lower of the two middle values when the count is even.
/// Host interference only ever slows a repetition, so with two samples
/// this keeps the unhindered one instead of averaging in the hindered one.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

/// The fastest sample. Other tenants of the host only ever slow the
/// program down, by up to 2x and for seconds to minutes at a time, so the
/// fastest of many samples of the same work is the steadiest estimate of
/// what it costs.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Wall time of every repetition, cut into stretches of the same work in
/// each: stretch k ends at the same event in every repetition of a seed.
/// A burst of interference slows a few seconds of one repetition, so the
/// fastest sample of each stretch comes from some other repetition, and
/// their sum is the cost of one repetition without the bursts.
class StretchTimes {
 public:
  void begin() {
    next_ = 0;
    mark_ = Clock::now();
  }
  /// Ends the current stretch and starts the next.
  void lap() {
    const auto now = Clock::now();
    if (samples_.size() <= next_) samples_.emplace_back();
    samples_[next_++].push_back(std::chrono::duration<double>(now - mark_).count());
    mark_ = now;
  }
  /// Sum over stretches of each one's fastest sample; `complete` is false
  /// if the repetitions did not all cut the same stretches.
  double sum_of_fastest(bool& complete) const {
    double sum = 0.0;
    complete = !samples_.empty();
    for (const std::vector<double>& stretch : samples_) {
      complete = complete && stretch.size() == samples_.front().size();
      sum += fastest(stretch);
    }
    return sum;
  }

 private:
  std::vector<std::vector<double>> samples_;  ///< [stretch][repetition]
  std::size_t next_ = 0;
  Clock::time_point mark_;
};

/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Outcome accounting shared by both modes.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Jobs the engine charged the horizon to (censored, never terminal): their
/// JCT reaches past max_sim_time minus the arrival window.
std::size_t censored_jobs(const RunMetrics& m, const mlfs::exp::RunRequest& request) {
  const double threshold = mlfs::to_minutes(request.engine.max_sim_time -
                                            request.trace.duration_hours * 3600.0);
  return static_cast<std::size_t>(std::count_if(m.jct_minutes.samples().begin(),
                                                m.jct_minutes.samples().end(),
                                                [&](double jct) { return jct >= threshold; }));
}

/// Every job submitted must end terminal (completed or failed permanently);
/// each censored or permanently failed job counts as a failed attempt, and
/// the run must repeat the first repetition exactly.
void check_run(Report& report, const Inputs& in, const RunMetrics& m, const RunMetrics& first,
               const std::string& what) {
  const std::size_t submitted = in.request.workload->size() + in.script.size();
  const std::size_t censored = censored_jobs(m, in.request);
  report.attempted += submitted;
  report.failed += censored + m.jobs_failed_permanent;
  report.check(m.job_count == submitted, what + ": job count " + std::to_string(m.job_count) +
                                             " != submitted " + std::to_string(submitted));
  report.check(censored == 0, what + ": " + std::to_string(censored) + " jobs never finished");
  report.check(m.event_stream_hash == first.event_stream_hash &&
                   mlfs::deterministic_equal(m, first),
               what + ": diverged from the first run of the same inputs");
}

/// Set-up as a user pays it: trace generation plus scheduler and engine
/// construction; for the durable workload, opening a fresh session (engine
/// build, journal-0 and snap-0) instead of a bare engine.
double time_setup(const Args& args, const std::string& dir) {
  const auto start = Clock::now();
  Inputs in = generate_inputs(args.workload, args.seed);
  double s = 0.0;
  if (args.workload == Workload::StreamDurableMlfs) {
    mlfs::exp::DurableConfig config = durable_config(dir);
    config.halt_at_event = 0;
    if (!mlfs::exp::run_durable(in.request, in.script, config).halted) {
      throw std::runtime_error("session open did not halt at event 0");
    }
    s = seconds_since(start);
    fs::remove_all(dir);
  } else {
    mlfs::exp::EngineBundle bundle = mlfs::exp::build_engine(in.request);
    s = seconds_since(start);
  }
  return s;
}

/// Repeats `rep` until `seconds` have passed since `start`, starting a new
/// repetition only if the previous one still fits; at least kMinReps.
template <typename Rep>
void repeat_for(Clock::time_point start, double seconds, Rep&& rep) {
  int reps = 0;
  double took = 0.0;
  do {
    const auto rep_start = Clock::now();
    rep();
    took = seconds_since(rep_start);
    ++reps;
  } while (reps < kMinReps || seconds_since(start) + took <= seconds);
}

/// Crash at each of `crash_events` in turn, recovering each time, then
/// recover to completion: the durable workload's measured unit, timed as
/// one stretch per session. Returns the final session's metrics.
RunMetrics crash_and_recover(const Inputs& in, const std::string& dir,
                             const std::vector<std::uint64_t>& crash_events, StretchTimes& times,
                             Report& report) {
  fs::remove_all(dir);
  mlfs::exp::DurableConfig config = durable_config(dir);
  bool halted = true;
  times.begin();
  for (const std::uint64_t event : crash_events) {
    config.halt_at_event = event;
    halted = mlfs::exp::run_durable(in.request, in.script, config).halted && halted;
    times.lap();
  }
  config.halt_at_event.reset();
  const mlfs::exp::DurableResult alive = mlfs::exp::run_durable(in.request, in.script, config);
  times.lap();
  fs::remove_all(dir);
  report.check(halted, "a crash session did not halt");
  report.check(alive.recovered && !alive.halted, "recovery session did not resume");
  return alive.metrics;
}

/// Zero-loss gate: the recovered run equals the never-crashed reference.
void check_recovery(Report& report, const RunMetrics& recovered, const RunMetrics& reference) {
  const bool zero_loss = recovered.event_stream_hash == reference.event_stream_hash &&
                         mlfs::deterministic_equal(recovered, reference);
  ++report.attempted;
  if (!zero_loss) ++report.failed;
  report.check(zero_loss, "recovered run differs from the never-crashed run_streaming");
}

void add_simulated(Report& report, const RunMetrics& m) {
  report.add("avg_jct_min", m.average_jct_minutes(), "sim-min");
  report.add("jct_p50_min", m.jct_minutes.percentile(50.0), "sim-min");
  report.add("jct_p99_min", m.jct_minutes.percentile(99.0), "sim-min");
  report.add("deadline_ratio", m.deadline_ratio, "ratio");
  report.add("accuracy_ratio", m.accuracy_ratio, "ratio");
  report.add("bandwidth_tb", m.bandwidth_tb, "TB");
}

// ------------------------------------------------------------ untraced run

void run_untraced(const Args& args, Report& report) {
  const auto start = Clock::now();
  const std::string session_dir = args.workdir + "/session";
  const std::string setup_dir = args.workdir + "/setup";
  const Inputs in = generate_inputs(args.workload, args.seed);
  const bool durable = args.workload == Workload::StreamDurableMlfs;

  RunMetrics reference;
  std::vector<std::uint64_t> crash_events;
  if (durable) {
    reference = mlfs::exp::run_streaming(in.request, in.script);
    for (std::uint64_t k = 1; k < kDurableSessions; ++k) {
      crash_events.push_back(reference.events_processed * k / kDurableSessions);
    }
  }

  std::vector<double> setups;
  StretchTimes stretches;
  int reps = 0;
  std::optional<RunMetrics> first;
  repeat_for(start, args.seconds, [&] {
    for (int i = 0; i < kSetupsPerRep; ++i) setups.push_back(time_setup(args, setup_dir));
    RunMetrics m;
    const auto rep_start = Clock::now();
    if (durable) {
      m = crash_and_recover(in, session_dir, crash_events, stretches, report);
      check_recovery(report, m, reference);
    } else {
      mlfs::exp::EngineBundle bundle = mlfs::exp::build_engine(in.request);
      mlfs::SimEngine& engine = *bundle.engine;
      std::uint64_t stretch_end = kStretchEvents;
      stretches.begin();
      while (engine.step()) {
        if (engine.events_processed() >= stretch_end) {
          stretches.lap();
          stretch_end += kStretchEvents;
        }
      }
      m = engine.finalize();
      stretches.lap();
    }
    ++reps;
    std::cerr << "perfbench: repetition " << reps << " took " << seconds_since(rep_start)
              << " s\n";
    if (!first) first = m;
    check_run(report, in, m, *first, "repetition " + std::to_string(reps));
  });

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  bool complete = false;
  const double wall_s = stretches.sum_of_fastest(complete);
  report.check(complete, "repetitions cut different stretches of the same run");
  report.add("setup_s", fastest(setups), "s");
  report.add("wall_s", wall_s, "s");
  std::cerr << "perfbench: wall_s " << wall_s << " (fastest of each stretch, " << reps
            << " repetitions)\n";
  report.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  add_simulated(report, *first);
  std::cerr << "perfbench: " << first->summary() << "\n";
}

// -------------------------------------------------------------- traced run

/// Per-layer figures of one traced repetition.
struct LayerSample {
  double construct_s = 0.0;
  double step_s = 0.0;
  double finalize_s = 0.0;
  SchedulerTrace sched;
  bool has_controller = false;
  double mlfc_busy_s = 0.0;
  std::uint64_t fingerprint = 0;
  RunMetrics metrics;
};

/// Builds the decorated engine, drives it to the end timing every step(),
/// and finalizes. For the streaming workload the script is attached and
/// `at_crash` runs once the crash event is reached (outside the timers).
template <typename AtCrash>
LayerSample traced_rep(const Inputs& in, bool streaming, std::uint64_t crash_event,
                       AtCrash&& at_crash) {
  LayerSample s;
  auto start = Clock::now();
  TracedEngine t = build_traced_engine(in.request);
  s.construct_s = seconds_since(start);
  mlfs::SimEngine& engine = *t.engine;

  mlfs::exp::ScriptedArrivalSource source(in.script);
  if (streaming) engine.set_arrival_source(&source);
  bool crashed = false;
  for (bool more = true; more;) {
    if (streaming && !crashed && engine.events_processed() >= crash_event) {
      at_crash(engine);
      crashed = true;
    }
    start = Clock::now();
    more = streaming ? streaming_step(engine, source) : engine.step();
    s.step_s += seconds_since(start);
  }
  start = Clock::now();
  s.metrics = engine.finalize();
  s.finalize_s = seconds_since(start);
  s.sched = t.scheduler->trace();
  s.has_controller = t.controller != nullptr;
  s.mlfc_busy_s = s.has_controller ? t.controller->busy_s() : 0.0;
  s.fingerprint = engine.config_fingerprint();
  return s;
}

/// Durable-session figures of one traced repetition.
struct DurableSample {
  double wall_s = 0.0;     ///< crash session + full recovery session
  double recover_s = 0.0;  ///< resume until back at the crash event
  mlfs::exp::DurableResult result;
  double snapshot_mb = 0.0;  ///< newest checkpoint on disk
  std::size_t journal_records = 0;
  std::uintmax_t journal_bytes = 0;
};

DurableSample traced_durable(const Inputs& in, const std::string& dir,
                             std::uint64_t crash_event, std::uint64_t fingerprint,
                             Report& report) {
  DurableSample d;
  fs::remove_all(dir);
  mlfs::exp::DurableConfig config = durable_config(dir);
  config.halt_at_event = crash_event;
  auto start = Clock::now();
  const mlfs::exp::DurableResult dead = mlfs::exp::run_durable(in.request, in.script, config);
  d.wall_s = seconds_since(start);
  // A second crashed session replays the same journal up to the same
  // event and leaves the directory as it found it: its time is recovery.
  start = Clock::now();
  const mlfs::exp::DurableResult again = mlfs::exp::run_durable(in.request, in.script, config);
  d.recover_s = seconds_since(start);
  config.halt_at_event.reset();
  start = Clock::now();
  d.result = mlfs::exp::run_durable(in.request, in.script, config);
  d.wall_s += seconds_since(start);
  report.check(dead.halted && again.halted && again.recovered && d.result.recovered,
               "traced durable sessions did not crash and recover as scripted");
  d.result.snapshots_written += dead.snapshots_written + again.snapshots_written;

  std::uint64_t newest = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("journal-", 0) == 0) {
      d.journal_bytes += entry.file_size();
      d.journal_records +=
          mlfs::read_journal_file(entry.path().string(), fingerprint).records.size();
    } else if (name.rfind("snap-", 0) == 0) {
      const std::uint64_t event = std::stoull(name.substr(5));
      if (event >= newest) {
        newest = event;
        d.snapshot_mb = static_cast<double>(entry.file_size()) / 1e6;
      }
    }
  }
  fs::remove_all(dir);
  return d;
}

void run_traced(const Args& args, Report& report) {
  const auto start = Clock::now();
  const std::string session_dir = args.workdir + "/session";
  const bool durable = args.workload == Workload::StreamDurableMlfs;

  Inputs in;
  std::vector<double> generate;
  for (int i = 0; i < kSetupsPerRep; ++i) {
    const auto t = Clock::now();
    in = generate_inputs(args.workload, args.seed);
    generate.push_back(seconds_since(t));
  }

  // The untraced reference: exp::run_streaming for the streaming workload
  // (its recovered runs must equal it), a plain drive otherwise.
  std::vector<double> untraced_walls;
  std::optional<RunMetrics> reference;
  std::uint64_t crash_event = 0;
  if (durable) {
    const auto t = Clock::now();
    reference = mlfs::exp::run_streaming(in.request, in.script);
    untraced_walls.push_back(seconds_since(t));
    crash_event = reference->events_processed / 2;
  }

  std::vector<LayerSample> layers;
  std::vector<DurableSample> sessions;
  std::vector<double> save_ms;
  std::vector<double> restore_ms;
  double snapshot_bytes = 0.0;
  const auto snapshot_trips = [&](const mlfs::SimEngine& engine) {
    for (int i = 0; i < kSnapshotTrips; ++i) {
      std::stringstream buffer;
      auto t = Clock::now();
      engine.save_snapshot(buffer);
      save_ms.push_back(seconds_since(t) * 1e3);
      snapshot_bytes = static_cast<double>(buffer.str().size());
      mlfs::exp::EngineBundle twin = mlfs::exp::build_engine(in.request);
      t = Clock::now();
      twin.engine->restore_snapshot(buffer);
      restore_ms.push_back(seconds_since(t) * 1e3);
      report.check(twin.engine->event_stream_hash() == engine.event_stream_hash(),
                   "restored twin differs from the snapshotted engine");
    }
  };

  repeat_for(start, args.seconds, [&] {
    if (!durable) {
      mlfs::exp::EngineBundle bundle = mlfs::exp::build_engine(in.request);
      const auto t = Clock::now();
      while (bundle.engine->step()) {
      }
      const RunMetrics m = bundle.engine->finalize();
      untraced_walls.push_back(seconds_since(t));
      if (!reference) reference = m;
      check_run(report, in, m, *reference, "untraced repetition");
    }
    layers.push_back(traced_rep(in, durable, crash_event, snapshot_trips));
    const LayerSample& s = layers.back();
    check_run(report, in, s.metrics, *reference, "traced repetition");
    report.check(s.sched.rounds == s.metrics.sched_rounds,
                 "decorator saw a different number of scheduling rounds than the engine");
    if (durable) {
      sessions.push_back(traced_durable(in, session_dir, crash_event, s.fingerprint, report));
      check_run(report, in, sessions.back().result.metrics, *reference, "recovered session");
      check_recovery(report, sessions.back().result.metrics, *reference);
    }
  });

  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const LayerSample& s : layers) v.push_back(field(s));
    return median(v);
  };
  const LayerSample& last = layers.back();
  const RunMetrics& m = last.metrics;
  const double step_s = med([](const LayerSample& s) { return s.step_s; });
  const double sched_s = med([](const LayerSample& s) { return s.sched.busy_s; });
  const double notify_s = med([](const LayerSample& s) { return s.sched.notify_s; });
  const double mlfc_s = med([](const LayerSample& s) { return s.mlfc_busy_s; });
  const double fit_s = med([](const LayerSample& s) { return s.metrics.fit_wall_ms / 1e3; });
  const double self_s = step_s - sched_s - notify_s - mlfc_s - fit_s;
  const double traced_wall = med([](const LayerSample& s) { return s.step_s + s.finalize_s; });
  const bool rl = last.sched.rl_stack;

  report.add("workload.generate_s", median(generate), "s");
  report.add("engine.construct_s", med([](const LayerSample& s) { return s.construct_s; }), "s");
  report.add("engine.finalize_s", med([](const LayerSample& s) { return s.finalize_s; }), "s");
  report.add("engine.step_s", step_s, "s");
  report.add("engine.self_s", self_s, "s");
  report.add("engine.self_us_per_event", ratio(self_s * 1e6, m.events_processed), "us");
  report.add("engine.events", m.events_processed, "count");
  report.add("engine.ticks", m.sched_rounds, "count");
  report.add("engine.injected_jobs", m.jobs_injected, "count");

  report.add("sched.busy_s", sched_s, "s");
  report.add("sched.notify_s", notify_s, "s");
  report.add("sched.rounds", last.sched.rounds, "count");
  report.add("sched.busy_rounds", last.sched.busy_round_ms.size(), "count");
  report.add("sched.round_ms_p50", percentile(last.sched.busy_round_ms, 50.0), "ms");
  report.add("sched.round_ms_p99", percentile(last.sched.busy_round_ms, 99.0), "ms");
  report.add("sched.scan_ratio", ratio(m.candidates_linear, m.candidates_scanned), "ratio");
  report.add("sched.comm_cache_hit_ratio",
             ratio(m.comm_cache_hits, m.comm_cache_hits + m.comm_cache_misses), "ratio");
  report.add("sched.migrations", m.migrations, "count");
  report.add("sched.preemptions", m.preemptions, "count");

  report.add("pindex.queries", m.pindex_queries, "count");
  report.add("pindex.servers_pruned", m.pindex_servers_pruned, "count");
  report.add("pindex.servers_bypassed", m.pindex_servers_bypassed, "count");

  const double policy_s = med([](const LayerSample& s) { return s.sched.policy_busy_s; });
  const double heuristic_s = med([](const LayerSample& s) { return s.sched.heuristic_busy_s; });
  report.add("rl.policy_busy_s", rl ? policy_s : 0.0, "s");
  report.add("rl.policy_rounds", last.sched.policy_rounds, "count");
  report.add("rl.heuristic_busy_s", rl ? heuristic_s : 0.0, "s");
  const double switch_ms = med([](const LayerSample& s) { return s.sched.switch_round_ms; });
  report.add("rl.switch_round_ms", switch_ms, "ms");

  report.add("mlfc.busy_s", mlfc_s, "s");
  report.add("mlfc.iterations_saved", last.has_controller ? m.iterations_saved : 0, "count");

  report.add("predict.fit_s", fit_s, "s");
  report.add("predict.nm_evals", m.nm_objective_evals, "count");
  report.add("predict.fits_cold", m.fits_cold, "count");
  report.add("predict.fits_warm", m.fits_warm, "count");
  report.add("predict.cache_hits", m.prediction_cache_hits, "count");

  report.add("link.busy_sim_s", m.link_busy_seconds, "sim-s");
  report.add("link.slowdown_sim_s", m.contention_slowdown_seconds, "sim-s");
  report.add("link.phase_offset_hits", m.phase_offset_hits, "count");

  const auto dmed = [&](auto field) {
    std::vector<double> v;
    for (const DurableSample& d : sessions) v.push_back(field(d));
    return median(v);
  };
  const DurableSample none;
  const DurableSample& d = sessions.empty() ? none : sessions.back();
  const double durable_wall = dmed([](const DurableSample& x) { return x.wall_s; });
  report.add("durable.overhead_s", durable ? durable_wall - untraced_walls.front() : 0.0, "s");
  report.add("durable.recover_s", dmed([](const DurableSample& x) { return x.recover_s; }), "s");
  report.add("durable.snapshots_written", d.result.snapshots_written, "count");
  report.add("durable.snapshot_mb", d.snapshot_mb, "MB");
  report.add("durable.journal_records", d.journal_records, "count");
  report.add("durable.journal_bytes", static_cast<double>(d.journal_bytes), "bytes");
  report.add("durable.records_replayed", d.result.records_replayed, "count");
  report.add("snapshot.save_ms", median(save_ms), "ms");
  report.add("snapshot.restore_ms", median(restore_ms), "ms");
  report.add("snapshot.bytes", snapshot_bytes, "bytes");

  report.add("trace.overhead_s", traced_wall - median(untraced_walls), "s");
}

void print_json(const Report& report) {
  const bool correct = report.problems.empty() && report.failed == 0;
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(report.attempted) +
                    ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  std::cout << out << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Report report;
  try {
    args = parse_args(argc, argv);
    fs::create_directories(args.workdir);
    if (args.trace) {
      run_traced(args, report);
    } else {
      run_untraced(args, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  for (const Metric& m : report.metrics) {
    report.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  for (const std::string& p : report.problems) std::cerr << "perfbench: FAILED: " << p << "\n";
  if (report.failed > 0) {
    std::cerr << "perfbench: " << report.failed << " of " << report.attempted
              << " attempts failed\n";
  }
  print_json(report);
  return report.problems.empty() && report.failed == 0 ? 0 : 1;
}
