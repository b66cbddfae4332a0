// Micro-benchmarks (google-benchmark) of MLFS's hot decision paths: the
// Eq. 2-6 priority computation, RIAL host selection, migration-victim
// selection, and the cluster utilization queries they lean on. These are
// the per-round costs behind the Fig. 4(h)/5(h) scheduler-overhead curves.
//
// Usage: bench_micro_components [--threads N] [google-benchmark flags]
// --threads feeds the shared-runner batch benchmark (0 = hardware).
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/migration.hpp"
#include "core/mlf_h.hpp"
#include "core/placement.hpp"
#include "core/priority.hpp"
#include "exp/parallel.hpp"
#include "exp/runner.hpp"
#include "predict/service.hpp"
#include "workload/model_zoo.hpp"
#include "workload/trace.hpp"

namespace {

using namespace mlfs;

/// Thread count for the shared-runner benchmark (set by main, 0 = hardware).
unsigned g_threads = 0;

struct NoopOps : SchedulerOps {
  bool place(TaskId, ServerId, int) override { return false; }
  void preempt_to_queue(TaskId) override {}
  bool migrate(TaskId, ServerId, int) override { return false; }
  void release(TaskId) override {}
};

/// A populated cluster: `servers` x 4 GPUs, ~2 tasks placed per GPU.
struct World {
  Cluster cluster;
  NoopOps ops;
  std::vector<TaskId> queue;

  explicit World(std::size_t servers)
      : cluster(ClusterConfig{servers, 4, 1000.0}) {
    TraceConfig config;
    config.num_jobs = servers * 6;
    config.duration_hours = 1.0;
    config.seed = 7;
    config.max_gpu_request = 8;
    Rng rng(13);
    auto specs = PhillyTraceGenerator(config).generate();
    for (auto& spec : specs) {
      auto inst = ModelZoo::instantiate(spec, static_cast<TaskId>(cluster.task_count()));
      cluster.register_job(std::move(inst.job), std::move(inst.tasks));
    }
    // Greedy-place roughly half the tasks; queue the rest.
    for (std::size_t t = 0; t < cluster.task_count(); ++t) {
      const TaskId tid = static_cast<TaskId>(t);
      bool placed = false;
      if (rng.bernoulli(0.6)) {
        for (std::size_t s = 0; s < cluster.server_count() && !placed; ++s) {
          const Server& server = cluster.server(static_cast<ServerId>(s));
          const int gpu = server.least_loaded_gpu();
          if (server.fits_without_overload(cluster.task(tid), gpu, 0.9)) {
            cluster.place_task(tid, static_cast<ServerId>(s), gpu);
            placed = true;
          }
        }
      }
      if (!placed) queue.push_back(tid);
    }
  }

  SchedulerContext ctx() {
    return SchedulerContext{cluster, queue, ops, 3600.0, 0.9, nullptr, kInvalidJob};
  }
};

void BM_PriorityJobVector(benchmark::State& state) {
  World world(20);
  const core::PriorityCalculator calc{core::PriorityParams{}};
  std::size_t i = 0;
  for (auto _ : state) {
    const Job& job = world.cluster.job(static_cast<JobId>(i++ % world.cluster.job_count()));
    benchmark::DoNotOptimize(calc.job_priorities(world.cluster, job, 3600.0));
  }
}
BENCHMARK(BM_PriorityJobVector);

void BM_RialChooseHost(benchmark::State& state) {
  World world(static_cast<std::size_t>(state.range(0)));
  const core::MlfPlacement placement{core::PlacementParams{}};
  auto ctx = world.ctx();
  std::size_t i = 0;
  for (auto _ : state) {
    const Task& task = world.cluster.task(world.queue[i++ % world.queue.size()]);
    benchmark::DoNotOptimize(placement.choose_host(ctx, task, false));
  }
}
BENCHMARK(BM_RialChooseHost)->Arg(20)->Arg(100)->Arg(550);

void BM_MigrationVictim(benchmark::State& state) {
  World world(20);
  const core::MigrationSelector selector{core::MigrationParams{}};
  auto priority = [](TaskId id) { return static_cast<double>(id % 17); };
  std::size_t i = 0;
  for (auto _ : state) {
    const Server& server =
        world.cluster.server(static_cast<ServerId>(i++ % world.cluster.server_count()));
    benchmark::DoNotOptimize(selector.select_victim(world.cluster, server, 0.5, priority));
  }
}
BENCHMARK(BM_MigrationVictim);

void BM_ServerUtilization(benchmark::State& state) {
  World world(20);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        world.cluster.server(static_cast<ServerId>(i++ % 20)).utilization());
  }
}
BENCHMARK(BM_ServerUtilization);

void BM_OverloadDegree(benchmark::State& state) {
  World world(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(world.cluster.overload_degree());
}
BENCHMARK(BM_OverloadDegree)->Arg(20)->Arg(550);

void BM_MlfHFullRound(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    World world(20);
    core::MlfsConfig config;
    core::MlfH scheduler{config};
    auto ctx = world.ctx();
    state.ResumeTiming();
    scheduler.schedule(ctx);
  }
}
BENCHMARK(BM_MlfHFullRound)->Unit(benchmark::kMicrosecond);

/// A trace job with a long enough iteration budget to grow a deep fit
/// chain (falls back to the longest job in the draw).
Job make_curve_job(int min_iters) {
  TraceConfig config;
  config.num_jobs = 64;
  config.duration_hours = 1.0;
  config.seed = 21;
  config.max_gpu_request = 8;
  auto specs = PhillyTraceGenerator(config).generate();
  std::size_t pick = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].max_iterations >= min_iters) { pick = i; break; }
    if (specs[i].max_iterations > specs[pick].max_iterations) pick = i;
  }
  return std::move(ModelZoo::instantiate(specs[pick], 0).job);
}

/// The engine's OptStop pattern: one job advances iteration by iteration
/// with a predict_at_max query at every check point. Arg selects the mode:
/// 0 = a fresh service per check (the stateless reference: the full chain
///     recomputed from scratch each time),
/// 1 = the incremental service (one new warm link per check),
/// 2 = service + an immediately repeated query per check (the MLF-C
///     controller's pattern — the memo hit).
void BM_CurveFitChain(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  constexpr int kCheckInterval = 5;
  for (auto _ : state) {
    state.PauseTiming();
    Job job = make_curve_job(100);
    PredictionService service(kCheckInterval);
    const int iters = std::min(100, job.spec().max_iterations);
    state.ResumeTiming();
    double acc = 0.0;
    for (int i = 0; i < iters; ++i) {
      job.complete_iteration();
      service.on_iteration_complete(job);
      if (job.completed_iterations() % kCheckInterval != 0) continue;
      if (mode == 0) {
        acc += PredictionService(kCheckInterval).predict_at_max(job).accuracy;
        continue;
      }
      acc += service.predict_at_max(job).accuracy;
      if (mode == 2) acc += service.predict_at_max(job).accuracy;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetLabel(mode == 0 ? "fresh-per-check" : mode == 1 ? "service" : "service+memo");
}
BENCHMARK(BM_CurveFitChain)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

/// End-to-end cost of a small scheduler batch through the shared experiment
/// runner — the unit the figure harnesses parallelize. Honors --threads.
void BM_RunnerBatch(benchmark::State& state) {
  exp::Scenario scenario = exp::smoke_scenario();
  const std::vector<std::string> schedulers = {"MLF-H", "Tiresias", "SLAQ",
                                               "TensorFlow"};
  std::vector<exp::RunRequest> requests;
  for (const std::string& name : schedulers) {
    core::MlfsConfig config;
    config.heuristic_only = true;
    requests.push_back(exp::make_request(scenario, name, scenario.trace.num_jobs, config));
  }
  exp::RunOptions options;
  options.threads = g_threads;
  options.verbose = false;
  for (auto _ : state) benchmark::DoNotOptimize(exp::run_batch(requests, options));
  state.SetLabel(std::to_string(exp::resolve_threads(g_threads)) + " threads");
}
BENCHMARK(BM_RunnerBatch)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: consume --threads N before google-benchmark parses flags
// (it rejects unknown arguments).
int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      g_threads = static_cast<unsigned>(std::stoul(argv[++i]));
      continue;
    }
    args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
