// Ablation A9 — release jitter vs LPFPS's exact-knowledge premise.
//
// LPFPS's two mechanisms both hinge on the delay queue's *exact* next
// release time.  Release jitter (interrupt latency, tick granularity,
// bus contention) erodes that knowledge; the engine then conservatively
// refuses to slow down or sleep while a released-but-not-yet-visible
// job is in flight.  This bench measures how quickly the savings decay
// as jitter grows, with the jitter-aware RTA confirming schedulability
// at every point.
#include <cstdio>

#include "audit/harness.h"
#include "core/engine.h"
#include "exec/exec_model.h"
#include "fleet/fleet.h"
#include "metrics/table.h"
#include "sched/analysis.h"
#include "workloads/registry.h"

int main() {
  using namespace lpfps;
  const auto cpu = power::ProcessorConfig::arm8_default();
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();

  std::puts("== Ablation A9: release jitter (BCET/WCET = 0.5) ==");
  std::puts("cells: LPFPS power reduction vs FPS (%); '-' = jitter-RTA fails");
  metrics::Table table(
      {"jitter (fraction of period)", "INS", "CNC", "Flight control"});

  // Two passes: gather every schedulable cell's (fps, lpfps) spec pair
  // in grid order, run them as one sharded audited fleet batch
  // (bit-identical at any LPFPS_JOBS), then rebuild the table
  // consuming results pairwise.
  constexpr int kSeeds = 3;
  struct Cell {
    double fraction;
    bool schedulable;
  };
  std::vector<Cell> cells;
  std::vector<fleet::SimSpec> specs;
  for (const double fraction : {0.0, 0.01, 0.05, 0.1, 0.2}) {
    for (const char* name : {"INS", "CNC", "Flight control"}) {
      const workloads::Workload w = workloads::workload_by_name(name);
      const sched::TaskSet tasks = w.tasks.with_bcet_ratio(0.5);

      std::vector<Time> jitter;
      sched::AnalysisExtras extras = sched::AnalysisExtras::zero(tasks);
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const double j =
            fraction *
            static_cast<double>(tasks[static_cast<TaskIndex>(i)].period);
        jitter.push_back(j);
        extras.jitter[i] = j;
      }
      if (!sched::is_schedulable_extended(tasks, extras)) {
        cells.push_back({fraction, false});
        continue;
      }
      cells.push_back({fraction, true});

      for (int seed = 1; seed <= kSeeds; ++seed) {
        for (const auto& policy :
             {core::SchedulerPolicy::fps(), core::SchedulerPolicy::lpfps()}) {
          fleet::SimSpec spec;
          spec.tasks = tasks;
          spec.processor = cpu;
          spec.policy = policy;
          spec.exec_model = exec;
          spec.options.horizon = std::min(w.horizon, 2e6);
          spec.options.seed = static_cast<std::uint64_t>(seed);
          spec.options.release_jitter = jitter;
          specs.push_back(std::move(spec));
        }
      }
    }
  }
  const auto results = audit::simulate_fleet_sharded(std::move(specs), {});

  std::size_t cell = 0;
  std::size_t next = 0;
  for (const double fraction : {0.0, 0.01, 0.05, 0.1, 0.2}) {
    std::vector<std::string> row = {metrics::Table::num(fraction, 2)};
    for (int column = 0; column < 3; ++column) {
      if (!cells[cell++].schedulable) {
        row.push_back("-");
        continue;
      }
      double fps_total = 0.0;
      double lpfps_total = 0.0;
      for (int seed = 1; seed <= kSeeds; ++seed) {
        fps_total += results[next++].average_power;
        lpfps_total += results[next++].average_power;
      }
      row.push_back(metrics::Table::num(
          100.0 * (1.0 - lpfps_total / fps_total), 1));
    }
    table.add_row(row);
  }
  std::fputs(table.to_aligned().c_str(), stdout);
  std::puts(
      "\nModerate jitter costs little: most of LPFPS's saving comes from\n"
      "windows far longer than the jitter bound.  The decay accelerates\n"
      "once jitter spans a meaningful share of the shortest period,\n"
      "because the scheduler then spends long stretches unable to trust\n"
      "its queues (and hard schedulability itself erodes: '-').");
  return 0;
}
