#include "core/engine.h"

#include "core/sim_state.h"

namespace lpfps::core {

// The engine main loop lives in core::SimState (sim_state.cc), opened
// up into begin/step/finish so the fleet engine can step each
// simulation of a batch itself.  simulate() steps the very same code —
// one implementation, two callers, bit-identical results.
SimulationResult simulate(const sched::TaskSet& tasks,
                          const power::ProcessorConfig& processor,
                          const SchedulerPolicy& policy,
                          const exec::ExecModelPtr& exec_model,
                          const EngineOptions& options) {
  SimState simulation(tasks, processor, policy, exec_model, options);
  simulation.begin();
  while (!simulation.finished()) simulation.step();
  return simulation.finish();
}

}  // namespace lpfps::core
