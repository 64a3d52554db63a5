#include "core/engine.h"

#include <utility>

#include "common/check.h"
#include "core/sim_state.h"

namespace lpfps::core {

// The engine main loop lives in core::SimState (sim_state.cc): the loop
// was opened up into begin/step/finish so the fleet engine can run many
// simulations on one reused state, and Engine::run delegates to the
// very same code — one implementation, two drivers, bit-identical
// results.

Engine::Engine(sched::TaskSet tasks, power::ProcessorConfig processor,
               SchedulerPolicy policy, exec::ExecModelPtr exec_model)
    : tasks_(std::move(tasks)),
      processor_(std::move(processor)),
      policy_(std::move(policy)),
      exec_model_(std::move(exec_model)) {
  LPFPS_CHECK_MSG(!tasks_.empty(), "engine needs at least one task");
  tasks_.validate();
  processor_.validate();
  policy_.validate();
}

SimulationResult Engine::run(const EngineOptions& options) const {
  SimState simulation(tasks_, processor_, policy_, exec_model_, options);
  return simulation.run();
}

SimulationResult simulate(const sched::TaskSet& tasks,
                          const power::ProcessorConfig& processor,
                          const SchedulerPolicy& policy,
                          const exec::ExecModelPtr& exec_model,
                          const EngineOptions& options) {
  const Engine engine(tasks, processor, policy, exec_model);
  return engine.run(options);
}

double normalized_power(const sched::TaskSet& tasks,
                        const power::ProcessorConfig& processor,
                        const SchedulerPolicy& policy,
                        const exec::ExecModelPtr& exec_model,
                        const EngineOptions& options) {
  const SimulationResult fps = simulate(
      tasks, processor, SchedulerPolicy::fps(), exec_model, options);
  const SimulationResult other =
      simulate(tasks, processor, policy, exec_model, options);
  LPFPS_CHECK(fps.average_power > 0.0);
  return other.average_power / fps.average_power;
}

}  // namespace lpfps::core
