// Ablation A5 — voltage-law sensitivity.
//
// The saving from DVS is governed by how far the supply voltage can
// drop at reduced frequency.  Compares the realistic ring-oscillator
// law (paper's reference [20]; V stays well above Vt) with idealized
// proportional laws, which overstate the saving.
//
// Every cell runs through metrics::run_bcet_sweep, which runs its job
// grid as one sharded audited fleet batch (output identical at any
// LPFPS_JOBS; see docs/EXPERIMENTS.md).
#include <cstdio>
#include <memory>

#include "metrics/experiment.h"
#include "metrics/table.h"
#include "workloads/registry.h"

int main() {
  using namespace lpfps;

  struct Law {
    const char* label;
    power::VoltageModelPtr model;
  };
  const Law laws[] = {
      {"linear V~f, 1.1 V floor (default; Burd/Pering ARM8 endpoints)",
       std::make_shared<power::ProportionalVoltageModel>(3.3, 1.1)},
      {"ring-oscillator inverter law, Vt=0.8 (pessimistic)",
       std::make_shared<power::RingOscillatorVoltageModel>(3.3, 0.8)},
      {"ring-oscillator inverter law, Vt=0.66",
       std::make_shared<power::RingOscillatorVoltageModel>(3.3, 0.66)},
      {"proportional, no floor (ideal cubic)",
       std::make_shared<power::ProportionalVoltageModel>(3.3, 0.0)},
  };

  std::puts("== Ablation A5: voltage-law sensitivity ==");
  std::puts("cells: LPFPS power reduction vs FPS (%) at BCET/WCET = 0.5");
  std::vector<std::string> header = {"voltage law"};
  for (const workloads::Workload& w : workloads::paper_workloads()) {
    header.push_back(w.name);
  }
  metrics::Table table(header);

  for (const Law& law : laws) {
    std::vector<std::string> row = {law.label};
    for (const workloads::Workload& w : workloads::paper_workloads()) {
      power::ProcessorConfig cpu = power::ProcessorConfig::arm8_default();
      cpu.voltage = law.model;
      metrics::SweepConfig config;
      config.bcet_ratios = {0.5};
      config.seeds = 3;
      config.horizon = std::min(w.horizon, 5e6);
      const auto points = metrics::run_bcet_sweep(
          w.tasks, cpu, core::SchedulerPolicy::lpfps(), config);
      row.push_back(metrics::Table::num(points.front().reduction_pct, 1));
    }
    table.add_row(row);
  }
  std::fputs(table.to_aligned().c_str(), stdout);
  return 0;
}
