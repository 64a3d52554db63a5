// A7 — scheduler-overhead micro-benchmarks (google-benchmark).
//
// The paper's case for the heuristic ratio (§3.3) is that the scheduler
// runs on the managed processor itself, so its own cost is power and
// schedulability overhead.  These micro-benchmarks quantify the
// r_heu-vs-r_opt cost gap and the engine's event throughput.
#include <benchmark/benchmark.h>

#include "core/engine.h"
#include "core/speed_ratio.h"
#include "power/frequency.h"
#include "workloads/example.h"
#include "workloads/ins.h"

namespace {

using namespace lpfps;

void BM_HeuristicRatio(benchmark::State& state) {
  double window = 40.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::heuristic_ratio(20.0, window));
    window += 1e-9;  // Defeat constant folding.
  }
}
BENCHMARK(BM_HeuristicRatio);

void BM_OptimalRatio(benchmark::State& state) {
  double window = 40.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimal_ratio(20.0, window, 0.07));
    window += 1e-9;
  }
}
BENCHMARK(BM_OptimalRatio);

void BM_QuantizeUp(benchmark::State& state) {
  const power::FrequencyTable table = power::FrequencyTable::arm8_like();
  double desired = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.quantize_up(desired));
    desired += 1e-4;
    if (desired > 1.0) desired = 0.1;
  }
}
BENCHMARK(BM_QuantizeUp);

void BM_EngineTable1Hyperperiod(benchmark::State& state) {
  const sched::TaskSet tasks = workloads::example_table1();
  const auto cpu = power::ProcessorConfig::arm8_default();
  const auto policy = core::SchedulerPolicy::lpfps();
  core::EngineOptions options;
  options.horizon = 400.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::simulate(tasks, cpu, policy, nullptr, options));
  }
  state.SetItemsProcessed(state.iterations() * 17);  // Jobs per run.
}
BENCHMARK(BM_EngineTable1Hyperperiod);

void BM_EngineInsHyperperiod(benchmark::State& state) {
  const sched::TaskSet tasks = workloads::ins();
  const auto cpu = power::ProcessorConfig::arm8_default();
  const auto policy = core::SchedulerPolicy::lpfps();
  core::EngineOptions options;
  options.horizon = 5e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::simulate(tasks, cpu, policy, nullptr, options));
  }
  state.SetItemsProcessed(state.iterations() * 2063);  // Jobs per run.
}
BENCHMARK(BM_EngineInsHyperperiod);

}  // namespace

BENCHMARK_MAIN();
