// Ablation A8 — kernel context-switch overhead.
//
// The paper keeps the scheduler "simple enough to be implemented in
// most kernels" precisely because its cost lands on the managed
// processor.  This bench charges an explicit save+restore cost per
// preemption and reports both the energy impact and the point where
// unbudgeted overhead breaks the schedule.
#include <cstdio>
#include <string>
#include <vector>

#include "audit/harness.h"
#include "core/engine.h"
#include "exec/exec_model.h"
#include "fleet/fleet.h"
#include "metrics/table.h"
#include "workloads/registry.h"

int main() {
  using namespace lpfps;
  const auto cpu = power::ProcessorConfig::arm8_default();
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();

  std::puts("== Ablation A8: context-switch overhead (FPS, BCET/WCET=0.5) ==");
  metrics::Table table({"workload", "cost (us)", "avg power",
                        "preemptions", "verdict"});
  // Gather the whole grid as specs, run them as one sharded audited
  // fleet batch (bit-identical at any LPFPS_JOBS), consume in grid
  // order.
  struct Row {
    std::string workload;
    double cost;
  };
  std::vector<Row> rows;
  std::vector<fleet::SimSpec> specs;
  for (const workloads::Workload& w : workloads::paper_workloads()) {
    for (const double cost : {0.0, 1.0, 10.0, 100.0, 1000.0}) {
      fleet::SimSpec spec;
      spec.tasks = w.tasks.with_bcet_ratio(0.5);
      spec.processor = cpu;
      spec.policy = core::SchedulerPolicy::fps();
      spec.exec_model = exec;
      spec.options.horizon = std::min(w.horizon, 2e6);
      spec.options.context_switch_cost = cost;
      spec.options.throw_on_miss = false;
      specs.push_back(std::move(spec));
      rows.push_back({w.name, cost});
    }
  }
  const auto results = audit::simulate_fleet_sharded(std::move(specs), {});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    table.add_row(
        {rows[i].workload, metrics::Table::num(rows[i].cost, 0),
         metrics::Table::num(result.average_power, 4),
         std::to_string(result.context_switches),
         result.deadline_misses == 0
             ? "ok"
             : std::to_string(result.deadline_misses) + " misses"});
  }
  std::fputs(table.to_aligned().c_str(), stdout);
  std::puts(
      "\nMicrosecond-scale switch costs are invisible on millisecond\n"
      "workloads; CNC (periods of a few ms, WCETs down to 35 us) is the\n"
      "first to buckle as overhead grows — the same short-timescale\n"
      "fragility the paper notes for its DVS transitions.");
  return 0;
}
