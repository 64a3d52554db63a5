// The runner's determinism contract, asserted end-to-end: a batch of
// real LPFPS simulations fanned out over 4 threads must be
// bit-identical — not merely close — to the same batch run serially.
// This is what licenses running the experiment pipeline on parallel
// workers without perturbing any published number.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/engine.h"
#include "exec/exec_model.h"
#include "metrics/experiment.h"
#include "multicore/partition.h"
#include "multicore/simulate.h"
#include "runner/runner.h"
#include "sched/analysis.h"
#include "sched/priority.h"
#include "workloads/generator.h"
#include "workloads/registry.h"

namespace lpfps {
namespace {

/// 50 RM-feasible random task sets, generated from one serial stream
/// (generation is cheap; only the simulations fan out).
std::vector<sched::TaskSet> random_task_sets() {
  workloads::GeneratorConfig config;
  config.task_count = 4;
  config.total_utilization = 0.6;
  config.bcet_ratio = 0.4;
  config.period_min = 1'000;
  config.period_max = 32'000;
  config.period_granularity = 1'000;

  Rng rng(99);
  std::vector<sched::TaskSet> sets;
  while (sets.size() < 50) {
    sched::TaskSet tasks = workloads::generate_task_set(config, rng);
    if (!sched::is_schedulable_rta(tasks)) continue;
    sets.push_back(std::move(tasks));
  }
  return sets;
}

TEST(RunnerDeterminism, FourThreadBatchBitIdenticalToSerial) {
  const std::vector<sched::TaskSet> sets = random_task_sets();
  const auto cpu = power::ProcessorConfig::arm8_default();
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();

  const auto job = [&](std::size_t i) {
    core::EngineOptions options;
    options.horizon = 64'000.0;
    options.seed = runner::derive_seed(42, i);
    return core::simulate(sets[i], cpu, core::SchedulerPolicy::lpfps(),
                          exec, options);
  };

  const auto serial = runner::run_batch(sets.size(), job, 1);
  const auto parallel = runner::run_batch(sets.size(), job, 4);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Exact floating-point equality: same seeds, same order, same bits.
    EXPECT_EQ(serial[i].total_energy, parallel[i].total_energy) << i;
    EXPECT_EQ(serial[i].average_power, parallel[i].average_power) << i;
    EXPECT_EQ(serial[i].mean_running_ratio, parallel[i].mean_running_ratio)
        << i;
    EXPECT_EQ(serial[i].jobs_completed, parallel[i].jobs_completed) << i;
    EXPECT_EQ(serial[i].speed_changes, parallel[i].speed_changes) << i;
    EXPECT_EQ(serial[i].power_downs, parallel[i].power_downs) << i;
  }
}

/// Runs `fn` with LPFPS_JOBS pinned to `jobs`, restoring the prior
/// value afterwards (the sweep and multicore layers read the env var
/// through runner::default_job_count on every call).
template <typename Fn>
auto with_jobs(const char* jobs, Fn&& fn) {
  const char* old = std::getenv("LPFPS_JOBS");
  const std::string saved = old ? old : "";
  EXPECT_EQ(setenv("LPFPS_JOBS", jobs, 1), 0);
  auto result = fn();
  if (old) {
    EXPECT_EQ(setenv("LPFPS_JOBS", saved.c_str(), 1), 0);
  } else {
    EXPECT_EQ(unsetenv("LPFPS_JOBS"), 0);
  }
  return result;
}

TEST(RunnerDeterminism, BcetSweepInvariantUnderLpfpsJobs) {
  const workloads::Workload ins = workloads::workload_by_name("INS");
  metrics::SweepConfig config;
  config.bcet_ratios = {0.3, 0.7, 1.0};
  config.seeds = 2;
  config.horizon = 500'000.0;

  const auto sweep = [&] {
    return metrics::run_bcet_sweep(ins.tasks,
                                   power::ProcessorConfig::arm8_default(),
                                   core::SchedulerPolicy::lpfps(), config);
  };
  const auto serial = with_jobs("1", sweep);
  const auto parallel = with_jobs("4", sweep);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].fps_power, parallel[i].fps_power) << i;
    EXPECT_EQ(serial[i].policy_power, parallel[i].policy_power) << i;
    EXPECT_EQ(serial[i].normalized, parallel[i].normalized) << i;
    EXPECT_EQ(serial[i].reduction_vs_wcet_pct,
              parallel[i].reduction_vs_wcet_pct)
        << i;
  }
}

TEST(RunnerDeterminism, MulticoreSimulationInvariantUnderLpfpsJobs) {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("a", 100, 60.0));
  tasks.add(sched::make_task("b", 200, 100.0));
  tasks.add(sched::make_task("c", 400, 160.0));
  tasks.add(sched::make_task("d", 100, 30.0));
  tasks.add(sched::make_task("e", 200, 80.0));
  tasks.add(sched::make_task("f", 400, 120.0));
  sched::assign_rate_monotonic(tasks);
  const auto partition = multicore::partition_tasks(
      tasks, 4, multicore::PackingHeuristic::kWorstFitDecreasing);
  ASSERT_TRUE(partition.has_value());

  const auto run = [&] {
    core::EngineOptions options;
    options.horizon = 4'000.0;
    return multicore::simulate_partitioned(
        tasks, *partition, power::ProcessorConfig::arm8_default(),
        core::SchedulerPolicy::lpfps(),
        std::make_shared<exec::ClampedGaussianModel>(), options);
  };
  const auto serial = with_jobs("1", run);
  const auto parallel = with_jobs("4", run);

  EXPECT_EQ(serial.total_energy, parallel.total_energy);
  EXPECT_EQ(serial.mean_core_power, parallel.mean_core_power);
  ASSERT_EQ(serial.per_core.size(), parallel.per_core.size());
  for (std::size_t i = 0; i < serial.per_core.size(); ++i) {
    EXPECT_EQ(serial.per_core[i].total_energy,
              parallel.per_core[i].total_energy)
        << i;
  }
}

}  // namespace
}  // namespace lpfps
