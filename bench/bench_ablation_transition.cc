// Ablation A3 — sensitivity to the speed-transition rate rho.
//
// The paper fixes rho = 0.07/us (worst-case ~10 us swing, per Pering/
// Burd's ring-oscillator design) and notes CNC's timing parameters are
// of the same order.  This bench sweeps rho from 10x slower to
// effectively instant and reports the LPFPS saving on the two extreme
// workloads: CNC (short windows) and INS (long windows).
//
// Every cell runs through metrics::run_bcet_sweep, which runs its job
// grid as one sharded audited fleet batch (output identical at any
// LPFPS_JOBS; see docs/EXPERIMENTS.md).
#include <cstdio>

#include "metrics/experiment.h"
#include "metrics/table.h"
#include "workloads/registry.h"

int main() {
  using namespace lpfps;
  const double rhos[] = {0.007, 0.035, 0.07, 0.35, 0.7, 1e6};
  const char* rho_labels[] = {"0.007 (~140us)", "0.035 (~28us)",
                              "0.07 (paper)",   "0.35 (~2.8us)",
                              "0.7 (~1.4us)",   "instant"};

  std::puts("== Ablation A3: transition-rate sensitivity ==");
  std::puts("cells: LPFPS power reduction vs FPS (%) at BCET/WCET = 0.5");
  metrics::Table table({"rho (full swing)", "CNC", "INS"});

  for (std::size_t i = 0; i < std::size(rhos); ++i) {
    std::vector<std::string> row = {rho_labels[i]};
    for (const char* name : {"CNC", "INS"}) {
      const workloads::Workload w = workloads::workload_by_name(name);
      power::ProcessorConfig cpu = power::ProcessorConfig::arm8_default();
      cpu.ramp_rate = rhos[i];
      metrics::SweepConfig config;
      config.bcet_ratios = {0.5};
      config.seeds = 5;
      config.horizon = std::min(w.horizon, 5e6);
      const auto points = metrics::run_bcet_sweep(
          w.tasks, cpu, core::SchedulerPolicy::lpfps(), config);
      row.push_back(metrics::Table::num(points.front().reduction_pct, 1));
    }
    table.add_row(row);
  }
  std::fputs(table.to_aligned().c_str(), stdout);
  std::puts(
      "\nCNC's saving collapses as transitions slow (windows of tens of\n"
      "microseconds cannot amortize a 100+ us swing); INS, whose slack\n"
      "windows span milliseconds, barely notices (paper §4/§5).");
  return 0;
}
