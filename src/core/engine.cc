#include "core/engine.h"

#include "common/check.h"
#include "core/sim_state.h"

namespace lpfps::core {

// The engine main loop lives in core::SimState (sim_state.cc), opened
// up into begin/step/finish so the fleet engine can run many
// simulations on one reused state.  simulate() steps the very same
// code once — one implementation, two callers, bit-identical results.
SimulationResult simulate(const sched::TaskSet& tasks,
                          const power::ProcessorConfig& processor,
                          const SchedulerPolicy& policy,
                          const exec::ExecModelPtr& exec_model,
                          const EngineOptions& options) {
  SimState::validate(tasks, processor, policy, options);
  SimState simulation(tasks, processor, policy, exec_model, options);
  simulation.begin(/*validated=*/true);
  while (!simulation.finished()) simulation.step();
  return simulation.finish();
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
