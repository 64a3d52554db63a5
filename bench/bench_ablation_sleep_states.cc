// Ablation A10 — sleep-state hierarchy (paper §2.1).
//
// The paper models a single power-down state (5% / 10 cycles); real
// processors (its PowerPC 603 example) expose a ladder of modes.
// Because LPFPS knows each idle gap's exact length, it can pick the
// energy-optimal state per gap — deeper modes only once their longer
// full-power wake-up amortizes.  This bench compares the classic single
// state against the ladder across the workloads.
#include <cstdio>
#include <vector>

#include "audit/harness.h"
#include "core/engine.h"
#include "exec/exec_model.h"
#include "fleet/fleet.h"
#include "metrics/table.h"
#include "workloads/registry.h"

int main() {
  using namespace lpfps;
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();

  std::puts("== Ablation A10: sleep-state hierarchy (LPFPS, BCET/WCET=0.5) ==");
  metrics::Table table({"workload", "single 5%/10cyc", "PPC-style ladder",
                        "extra saving %"});
  // Gather the (workload x processor x seed) grid as specs, run them
  // as one sharded audited fleet batch (bit-identical at any
  // LPFPS_JOBS), consume in grid order.
  const power::ProcessorConfig processors[] = {
      power::ProcessorConfig::arm8_default(),
      power::ProcessorConfig::with_sleep_hierarchy()};
  const auto workloads_list = workloads::paper_workloads();
  std::vector<fleet::SimSpec> specs;
  for (const workloads::Workload& w : workloads_list) {
    const sched::TaskSet tasks = w.tasks.with_bcet_ratio(0.5);
    for (const auto& cpu : processors) {
      for (int seed = 1; seed <= 3; ++seed) {
        fleet::SimSpec spec;
        spec.tasks = tasks;
        spec.processor = cpu;
        spec.policy = core::SchedulerPolicy::lpfps();
        spec.exec_model = exec;
        spec.options.horizon = std::min(w.horizon, 5e6);
        spec.options.seed = static_cast<std::uint64_t>(seed);
        specs.push_back(std::move(spec));
      }
    }
  }
  const auto results = audit::simulate_fleet_sharded(std::move(specs), {});

  std::size_t next = 0;
  for (const workloads::Workload& w : workloads_list) {
    double mean[2] = {};
    for (double& cpu_mean : mean) {
      for (int seed = 1; seed <= 3; ++seed) {
        cpu_mean += results[next++].average_power;
      }
      cpu_mean /= 3.0;
    }
    const double classic = mean[0];
    const double ladder = mean[1];
    table.add_row({w.name, metrics::Table::num(classic, 4),
                   metrics::Table::num(ladder, 4),
                   metrics::Table::num(
                       100.0 * (classic - ladder) / classic, 2)});
  }
  std::fputs(table.to_aligned().c_str(), stdout);
  std::puts(
      "\nThe ladder wins where gaps run long enough (several ms) for the\n"
      "2% deep-sleep state to amortize its ~100 us full-power wake-up\n"
      "(Avionics, Flight control), and loses slightly where gaps sit\n"
      "near 2 ms (INS, CNC): there the paper's single 5%-with-10-cycle\n"
      "state — optimistically cheap AND instant — beats every realistic\n"
      "ladder member.  Either way, it is LPFPS's exact gap knowledge\n"
      "that makes the per-gap choice safe: a timeout-based governor\n"
      "cannot know whether committing to the deep state will violate a\n"
      "wake-up deadline (paper §2.1).");
  return 0;
}
