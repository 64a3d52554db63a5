#include "multicore/simulate.h"

#include "audit/harness.h"
#include "common/check.h"
#include "fleet/fleet.h"
#include "runner/runner.h"

namespace lpfps::multicore {

MulticoreResult simulate_partitioned(const sched::TaskSet& tasks,
                                     const Partition& partition,
                                     const power::ProcessorConfig& cpu,
                                     const core::SchedulerPolicy& policy,
                                     const exec::ExecModelPtr& exec_model,
                                     const core::EngineOptions& options) {
  partition.validate(tasks.size());
  LPFPS_CHECK(options.horizon > 0.0);
  LPFPS_CHECK_MSG(options.release_jitter.empty(),
                  "per-core jitter vectors are not remapped; configure "
                  "jitter per core-level run instead");

  // An empty core never runs: account it as parked (power-down
  // fraction for the whole horizon) — what a real integration would do
  // with an unused core.
  const auto parked_core = [&]() {
    core::SimulationResult idle;
    idle.policy_name = policy.name + " (parked core)";
    idle.simulated_time = options.horizon;
    const auto ladder = cpu.sleep_ladder();
    double deepest = 1.0;
    for (const auto& state : ladder) {
      deepest = std::min(deepest, state.power_fraction);
    }
    idle.total_energy = options.horizon * deepest;
    idle.average_power = deepest;
    return idle;
  };

  // Cores are independent once partitioned: the non-empty ones run as
  // one sharded audited fleet batch, and parked cores are spliced back
  // in around it.  Each core's seed derives from (options.seed, core
  // index) and results come back in core order, so the result is
  // bit-identical for any LPFPS_JOBS.  A violation on any core throws
  // the whole batch (partitioned results are only as trustworthy as
  // their weakest core).  Sharing exec_model across concurrent cores
  // is safe: execution-time models are stateless.
  std::vector<fleet::SimSpec> specs;
  for (std::size_t index = 0; index < partition.cores.size(); ++index) {
    if (partition.cores[index].empty()) continue;
    fleet::SimSpec spec;
    spec.tasks = core_task_set(tasks, partition.cores[index]);
    spec.processor = cpu;
    spec.policy = policy;
    spec.exec_model = exec_model;
    spec.options = options;
    spec.options.seed = runner::derive_seed(options.seed, index);
    specs.push_back(std::move(spec));
  }
  std::vector<core::SimulationResult> active =
      audit::simulate_fleet_sharded(std::move(specs), {});
  std::vector<core::SimulationResult> per_core;
  per_core.reserve(partition.cores.size());
  std::size_t next_active = 0;
  for (const auto& members : partition.cores) {
    per_core.push_back(members.empty() ? parked_core()
                                       : std::move(active[next_active++]));
  }

  MulticoreResult result;
  for (core::SimulationResult& run : per_core) {
    result.total_energy += run.total_energy;
    result.deadline_misses += run.deadline_misses;
    result.jobs_completed += run.jobs_completed;
    result.per_core.push_back(std::move(run));
  }
  result.mean_core_power =
      result.total_energy /
      (static_cast<double>(partition.cores.size()) * options.horizon);
  return result;
}

}  // namespace lpfps::multicore
