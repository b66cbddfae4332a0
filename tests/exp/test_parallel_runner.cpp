// Parallel experiment-runner tests: the work-stealing pool itself, by-index
// result placement, exception propagation, and the determinism contract
// (parallel == serial, bit for bit — see DESIGN.md "Experiment runner &
// concurrency model").
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "exp/parallel.hpp"
#include "exp/runner.hpp"

namespace mlfs::exp {
namespace {

RunOptions quiet(unsigned threads = 1) {
  RunOptions options;
  options.threads = threads;
  options.verbose = false;
  return options;
}

TEST(ParallelRunner, ResolveThreads) {
  EXPECT_EQ(resolve_threads(3), 3u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_GE(resolve_threads(0), 1u);  // hardware concurrency, clamped to >= 1
}

TEST(ParallelRunner, RunsEveryIndexExactlyOnce) {
  const std::size_t count = 100;
  std::vector<std::atomic<int>> hits(count);
  ParallelRunner runner(4);
  EXPECT_EQ(runner.thread_count(), 4u);
  runner.run(count, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelRunner, SerialModeRunsInIndexOrder) {
  std::vector<std::size_t> order;
  ParallelRunner runner(1);
  runner.run(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelRunner, ZeroCountIsANoop) {
  ParallelRunner runner(4);
  runner.run(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelRunner, PropagatesFirstException) {
  ParallelRunner runner(4);
  EXPECT_THROW(
      runner.run(64,
                 [&](std::size_t i) {
                   if (i == 7) throw std::runtime_error("boom");
                 }),
      std::runtime_error);
}

TEST(ParallelRunner, ExceptionInSerialModePropagates) {
  ParallelRunner runner(1);
  EXPECT_THROW(runner.run(3, [](std::size_t) { throw std::logic_error("no"); }),
               std::logic_error);
}

TEST(RunBatch, ResultsLandByRequestIndex) {
  Scenario s = smoke_scenario(12, 11);
  const std::vector<std::string> names = {"Gandiva", "SLAQ", "Tiresias", "MLF-H"};
  std::vector<RunRequest> requests;
  for (const std::string& name : names) requests.push_back(make_request(s, name, 12));
  const std::vector<RunMetrics> results = run_batch(requests, quiet(4));
  ASSERT_EQ(results.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) EXPECT_EQ(results[i].scheduler, names[i]);
}

TEST(RunBatch, ProgressFiresOncePerRunWithMatchingIndex) {
  Scenario s = smoke_scenario(10, 2);
  std::vector<RunRequest> requests;
  for (const char* name : {"Gandiva", "SLAQ", "Optimus"}) {
    requests.push_back(make_request(s, name, 10));
  }
  std::mutex mutex;
  std::vector<int> seen(requests.size(), 0);
  RunOptions options = quiet(4);
  options.progress = [&](const RunProgress& p) {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_LT(p.index, requests.size());
    EXPECT_EQ(p.total, requests.size());
    EXPECT_EQ(p.request, &requests[p.index]);
    EXPECT_EQ(p.metrics->scheduler, requests[p.index].scheduler);
    ++seen[p.index];
  };
  run_batch(requests, options);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 1) << "index " << i;
}

// The determinism guarantee behind the whole refactor: the same requests
// produce bitwise-identical metrics whether run twice serially or on a
// 4-thread pool (sched_overhead_ms excluded — it is wall-clock).
TEST(RunBatch, ParallelIsBitwiseIdenticalToSerial) {
  Scenario s = smoke_scenario(25, 9);
  std::vector<RunRequest> requests;
  for (const char* name : {"MLFS", "MLF-H", "Tiresias", "SLAQ", "Gandiva", "Optimus"}) {
    requests.push_back(make_request(s, name, 25));
  }
  const std::vector<RunMetrics> serial_a = run_batch(requests, quiet(1));
  const std::vector<RunMetrics> serial_b = run_batch(requests, quiet(1));
  const std::vector<RunMetrics> parallel = run_batch(requests, quiet(4));
  ASSERT_EQ(serial_a.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(deterministic_equal(serial_a[i], serial_b[i]))
        << requests[i].scheduler << ": serial re-run diverged";
    EXPECT_TRUE(deterministic_equal(serial_a[i], parallel[i]))
        << requests[i].scheduler << ": parallel run diverged from serial";
  }
}

TEST(RunSweep, ThreadCountDoesNotChangeResults) {
  Scenario s = smoke_scenario(15, 5);
  s.sweep_multipliers = {0.5, 1.0};
  const SweepResults serial = run_sweep(s, {"Gandiva", "SLAQ"}, {}, quiet(1));
  const SweepResults parallel = run_sweep(s, {"Gandiva", "SLAQ"}, {}, quiet(4));
  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& [name, runs] : serial) {
    const auto it = parallel.find(name);
    ASSERT_NE(it, parallel.end());
    ASSERT_EQ(runs.size(), it->second.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_TRUE(deterministic_equal(runs[i], it->second[i]))
          << name << " point " << i << " diverged across thread counts";
    }
  }
}

TEST(Metrics, DeterministicEqualIgnoresOnlyWallClockFields) {
  Scenario s = smoke_scenario(10, 4);
  const RunMetrics a = run_experiment(s, "Gandiva", 10);
  const auto equal_after = [&a](auto change) {
    RunMetrics b = a;
    change(b);
    return deterministic_equal(a, b);
  };
  // Real-clock fields: excluded.
  EXPECT_TRUE(equal_after([](RunMetrics& m) { m.sched_overhead_ms += 123.0; }));
  EXPECT_TRUE(equal_after([](RunMetrics& m) { m.fit_wall_ms += 5.0; }));
  EXPECT_TRUE(equal_after([](RunMetrics& m) { m.run_wall_ms += 7.0; }));
  // Simulation-derived fields: compared.
  EXPECT_FALSE(equal_after([](RunMetrics& m) { m.preemptions += 1; }));
  EXPECT_FALSE(equal_after([](RunMetrics& m) { m.jct_minutes.add(1.0); }));
  EXPECT_FALSE(equal_after([](RunMetrics& m) { m.scheduler += "-twin"; }));
  EXPECT_FALSE(equal_after([](RunMetrics& m) { m.event_stream_hash ^= 1; }));
  EXPECT_FALSE(equal_after([](RunMetrics& m) { m.goodput -= 0.25; }));
}

}  // namespace
}  // namespace mlfs::exp
