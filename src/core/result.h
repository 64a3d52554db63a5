// Outcome of one simulated run of a policy over a task set.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "power/energy.h"
#include "sim/trace.h"

namespace lpfps::core {

struct SimulationResult {
  std::string policy_name;
  Time simulated_time = 0.0;
  Energy total_energy = 0.0;
  /// total_energy / simulated_time, normalized to full power == 1.
  double average_power = 0.0;

  /// Per-mode (energy, time) — indexed by sim::ProcessorMode.
  std::array<power::ModeTotals, 5> by_mode{};

  int jobs_completed = 0;
  int deadline_misses = 0;  ///< Non-zero only with throw_on_miss=false.
  int context_switches = 0;
  int scheduler_invocations = 0;
  int speed_changes = 0;  ///< Ramp initiations (down or up).
  int power_downs = 0;    ///< Power-down mode entries.
  int dvs_slowdowns = 0;  ///< DVS slowdown plans activated (L16-L20).
  /// Deepest the ready set ever got (run queue + active task) — how much
  /// simultaneous released work the scheduler had to juggle.
  int run_queue_high_water = 0;
  /// Deepest the delay queue ever got at a scheduler invocation.
  int delay_queue_high_water = 0;

  /// Time-weighted mean speed ratio while executing task work.
  double mean_running_ratio = 1.0;

  /// Fault detection / containment counters (EngineOptions::faults and
  /// ::containment; all zero when neither is configured).  Excluded
  /// from io::result_csv_row — the pre-fault row format is golden-hashed
  /// — and exported via io::result_fault_csv_row / bench JSON instead.
  int overruns_detected = 0;      ///< WCET-budget exhaustions observed.
  int jobs_killed = 0;            ///< Jobs aborted at their budget.
  /// Releases *displaced* by kill containment: periods an overrunning
  /// job consumed, forfeited when the task is requeued.  Not a
  /// scheduling decision — for deliberate weakly-hard policy skips see
  /// jobs_skipped_weakly.
  int jobs_skipped = 0;
  int safe_mode_entries = 0;      ///< Safe-mode episodes entered.

  /// Weakly-hard governor counters (EngineOptions::weakly_hard,
  /// docs/WEAKLY_HARD.md); all zero when the governor is disarmed.
  /// Excluded from io::result_csv_row like the fault counters above;
  /// exported via io::result_fault_csv_row / bench JSON / AUDIT meta.
  int jobs_skipped_weakly = 0;  ///< Jobs skipped at release by policy.
  int mk_violations = 0;  ///< Settled k-windows that fell below m met.
  /// Per-task minimum over settled windows of (met jobs in window - m),
  /// indexed like the TaskSet; negative entries are (m,k) violations.
  /// INT_MAX marks hard tasks.  Empty when the governor is disarmed.
  std::vector<int> weakly_hard_worst_slack;

  /// Per-task execution energy and processor time, indexed like the
  /// TaskSet (idle/power-down/wake energy is not attributed to tasks).
  /// Lets analyses answer the paper's §4 question — *which* task's
  /// stretching produces the saving — directly.
  std::vector<power::ModeTotals> per_task;

  /// Recorded only when EngineOptions::record_trace is set.
  std::optional<sim::Trace> trace;

  power::ModeTotals mode(sim::ProcessorMode m) const {
    return by_mode[static_cast<std::size_t>(m)];
  }

  /// Multi-line human-readable summary (used by examples).
  std::string summary() const;
};

}  // namespace lpfps::core
