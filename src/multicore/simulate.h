// Per-core simulation of a partitioned system.
//
// Each core runs the engine independently (partitioned fixed-priority
// scheduling has no cross-core interference), with per-core derived
// seeds so results stay reproducible and core-count-independent draws
// are avoided.
#pragma once

#include "core/engine.h"
#include "multicore/partition.h"

namespace lpfps::multicore {

struct MulticoreResult {
  std::vector<core::SimulationResult> per_core;
  Energy total_energy = 0.0;
  /// Mean power per core (total energy / (cores * horizon)): the
  /// fraction of one core's full power each core draws on average.
  double mean_core_power = 0.0;
  int deadline_misses = 0;
  int jobs_completed = 0;
};

/// Simulates every core of `partition` under the same policy/processor.
/// Cores with no tasks contribute idle energy per the policy (a real
/// chip's unused core would be parked; park it by choosing a power-down
/// policy).  Core i uses seed runner::derive_seed(options.seed, i).
///
/// Every per-core run is trace-audited by default (audit::enabled();
/// opt out with LPFPS_AUDIT=0); an invariant violation on any core
/// throws std::runtime_error out of the batch.
MulticoreResult simulate_partitioned(const sched::TaskSet& tasks,
                                     const Partition& partition,
                                     const power::ProcessorConfig& cpu,
                                     const core::SchedulerPolicy& policy,
                                     const exec::ExecModelPtr& exec_model,
                                     const core::EngineOptions& options);

}  // namespace lpfps::multicore
