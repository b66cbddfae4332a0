// Micro-benchmarks of the DRL substrate: policy inference (the per-task
// cost of MLF-RL decisions), REINFORCE updates, imitation steps, and the
// learning-curve fit behind OptStop.
//
// Usage: bench_micro_rl [--threads N] [google-benchmark flags]
// --threads feeds the shared-runner batch benchmark (0 = hardware).
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "exp/parallel.hpp"
#include "exp/runner.hpp"
#include "predict/learning_curve.hpp"
#include "rl/reinforce.hpp"

namespace {

using namespace mlfs;

/// Thread count for the shared-runner benchmark (set by main, 0 = hardware).
unsigned g_threads = 0;

rl::ReinforceConfig agent_config() {
  rl::ReinforceConfig config;
  config.state_dim = 40;
  config.action_dim = 4;
  config.hidden = {48, 48};
  config.seed = 5;
  return config;
}

void BM_PolicyInference(benchmark::State& state) {
  rl::ReinforceAgent agent(agent_config());
  Rng rng(3);
  std::vector<double> obs(40);
  for (auto& v : obs) v = rng.uniform();
  for (auto _ : state) benchmark::DoNotOptimize(agent.act_greedy(obs));
}
BENCHMARK(BM_PolicyInference);

void BM_PolicySample(benchmark::State& state) {
  rl::ReinforceAgent agent(agent_config());
  Rng rng(3);
  std::vector<double> obs(40);
  for (auto& v : obs) v = rng.uniform();
  for (auto _ : state) benchmark::DoNotOptimize(agent.act(obs));
}
BENCHMARK(BM_PolicySample);

void BM_ReinforceUpdate(benchmark::State& state) {
  rl::ReinforceAgent agent(agent_config());
  Rng rng(7);
  std::vector<rl::Episode> episodes(1);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    rl::Transition tr;
    tr.state.resize(40);
    for (auto& v : tr.state) v = rng.uniform();
    tr.action = static_cast<int>(rng.uniform_int(0, 3));
    tr.reward = rng.uniform();
    episodes[0].push_back(std::move(tr));
  }
  for (auto _ : state) benchmark::DoNotOptimize(agent.update(episodes));
}
// 12 rows is the size of an MLF-RL update in the stream-durable-mlfs
// perfbench workload (12.3 on average).
BENCHMARK(BM_ReinforceUpdate)->Arg(12)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_ImitationStep(benchmark::State& state) {
  rl::ReinforceAgent agent(agent_config());
  Rng rng(9);
  nn::Matrix states(64, 40);
  for (auto& v : states.raw()) v = rng.uniform();
  std::vector<int> actions(64);
  for (auto& a : actions) a = static_cast<int>(rng.uniform_int(0, 3));
  for (auto _ : state) benchmark::DoNotOptimize(agent.imitation_step(states, actions));
}
BENCHMARK(BM_ImitationStep)->Unit(benchmark::kMicrosecond);

void BM_LearningCurveFit(benchmark::State& state) {
  const LearningCurvePredictor predictor;
  std::vector<double> observed;
  for (int i = 1; i <= static_cast<int>(state.range(0)); ++i) {
    observed.push_back(0.9 * i / (i + 12.0));
  }
  for (auto _ : state) benchmark::DoNotOptimize(predictor.predict_at(observed, 400));
}
BENCHMARK(BM_LearningCurveFit)->Arg(10)->Arg(50)->Arg(200)->Unit(benchmark::kMicrosecond);

/// End-to-end MLF-RL smoke runs (policy inference + imitation inside a full
/// simulation) through the shared experiment runner. Honors --threads.
void BM_RunnerRlBatch(benchmark::State& state) {
  exp::Scenario scenario = exp::smoke_scenario();
  std::vector<exp::RunRequest> requests;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    exp::Scenario s = scenario;
    s.engine.seed = seed;
    requests.push_back(exp::make_request(s, "MLF-RL", s.trace.num_jobs));
  }
  exp::RunOptions options;
  options.threads = g_threads;
  options.verbose = false;
  for (auto _ : state) benchmark::DoNotOptimize(exp::run_batch(requests, options));
  state.SetLabel(std::to_string(exp::resolve_threads(g_threads)) + " threads");
}
BENCHMARK(BM_RunnerRlBatch)->Unit(benchmark::kMillisecond);

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
