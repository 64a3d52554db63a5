// Ablation A1 — heuristic (eq. 3) vs optimal (eq. 2) speed ratio.
//
// The paper's §5 defers the trade-off analysis of using r_opt when
// timing parameters are comparable to the transition delay; this bench
// runs it.  CNC (WCETs 35..720 us vs a ~10 us transition) is exactly the
// regime where the two diverge; a synthetic even-shorter-window set
// stresses it further.
//
// Every cell runs through metrics::run_bcet_sweep, which runs its job
// grid as one sharded audited fleet batch (output identical at any
// LPFPS_JOBS; see docs/EXPERIMENTS.md).
#include <cstdio>

#include "metrics/experiment.h"
#include "metrics/table.h"
#include "sched/priority.h"
#include "workloads/registry.h"

namespace {

lpfps::sched::TaskSet tiny_windows() {
  using namespace lpfps::sched;
  TaskSet tasks;
  tasks.add(make_task("burst_a", 150, 30.0));
  tasks.add(make_task("burst_b", 300, 45.0));
  tasks.add(make_task("burst_c", 600, 60.0));
  assign_rate_monotonic(tasks);
  return tasks;
}

}  // namespace

int main() {
  using namespace lpfps;
  const auto cpu = power::ProcessorConfig::arm8_default();

  std::puts("== Ablation A1: heuristic vs optimal speed ratio ==");
  metrics::Table table({"workload", "BCET/WCET", "LPFPS (heu)",
                        "LPFPS (opt)", "opt advantage %"});

  auto run = [&](const std::string& name, const sched::TaskSet& tasks,
                 Time horizon) {
    metrics::SweepConfig config;
    config.bcet_ratios = {0.2, 0.5, 1.0};
    config.seeds = 5;
    config.horizon = horizon;
    const auto heuristic = metrics::run_bcet_sweep(
        tasks, cpu, core::SchedulerPolicy::lpfps(), config);
    const auto optimal = metrics::run_bcet_sweep(
        tasks, cpu, core::SchedulerPolicy::lpfps_optimal(), config);
    for (std::size_t i = 0; i < heuristic.size(); ++i) {
      const double advantage =
          100.0 * (heuristic[i].policy_power - optimal[i].policy_power) /
          heuristic[i].policy_power;
      table.add_row({name, metrics::Table::num(heuristic[i].bcet_ratio, 1),
                     metrics::Table::num(heuristic[i].policy_power, 4),
                     metrics::Table::num(optimal[i].policy_power, 4),
                     metrics::Table::num(advantage, 2)});
    }
  };

  for (const workloads::Workload& w : workloads::paper_workloads()) {
    run(w.name, w.tasks, std::min(w.horizon, 5e6));
  }
  run("tiny-windows", tiny_windows(), 600.0 * 2000);

  std::fputs(table.to_aligned().c_str(), stdout);
  std::puts(
      "\nThe optimal ratio only pays when slack windows are of the same\n"
      "order as the transition delay (paper Fig. 7's corner); for the\n"
      "millisecond-scale applications the heuristic is essentially free.");
  return 0;
}
