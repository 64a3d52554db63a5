// Post-hoc trace auditor.
//
// A simulation's Trace is its ground truth; the auditor re-derives every
// global claim the engine makes from that trace alone and reports where
// the two disagree.  It is deliberately independent of the engine: it
// reconstructs job windows from the periodic task model, re-integrates
// work and energy from the recorded speed profile, and re-checks the
// LPFPS slowdown-plan arithmetic (paper eqs. 1-3) from first principles.
// A regression anywhere in sim/, sched/, core/ or power/ therefore fails
// loudly instead of silently skewing the Table 2 numbers.
//
// Invariant catalog (see docs/OBSERVABILITY.md for the full semantics):
//
//   T1  timeline    segments contiguous, monotone, start at t=0
//   T2  ratios      speed ratios within [r_min, base] and continuous
//   T3  levels      steady slowed ratios sit exactly on frequency levels
//   T4  tasks       running segments name a valid task
//   T5  modes       idle/power-down/wake-up at base ratio, constant
//   T6  ramps       ramp slope matches the processor's rho
//   J1  releases    release/deadline arithmetic matches phase + k*period
//   J2  work        per-job trace work integral == recorded demand
//   J3  demand      0 < executed <= WCET (skipped with context-switch cost)
//   J4  deadlines   miss flags consistent; no misses when promised
//   J5  placement   a task runs only inside one of its job windows
//   S1  conserving  idle/power-down/wake-up only while nothing is pending
//   S2  releases    full (base) speed at every release; never asleep
//   S3  priority    no running segment overlaps a higher-priority
//                   task's job window by more than epsilon
//   D1  plan end    a slowdown plan ends by min(next arrival, deadline)
//   D2  capacity    plan capacity (eq. 1) covers the remaining WCET
//   E1  energy      per-mode energy equals re-integration of the profile
//   E2  time        per-mode time equals the trace's
//   E3  totals      total energy / average power / horizon consistent
//   E4  mean ratio  reported mean running ratio matches the trace
//   C1  counters    jobs_completed / deadline_misses match the records
//   C2  counters    power_downs matches the power-down segment count
//   C3  counters    observed plans <= reported dvs_slowdowns
//   F1  budgets     under containment, no enforcement window executes
//                   past WCET + epsilon (docs/ROBUSTNESS.md)
//   F2  safe mode   after a detected overrun the clock never decreases
//                   and stays at base until the processor next idles;
//                   detections imply safe_mode_entries > 0
//   F3  kills       killed records are unfinished with executed ~= WCET,
//                   and their count matches jobs_killed
//   W1  windows     every settled k-window of a weakly-hard task keeps
//                   >= m met jobs (re-derived from the records alone;
//                   docs/WEAKLY_HARD.md)
//   W2  skips       every recorded skip was permitted by the task's own
//                   window history at the decision instant
//   W3  skip shape  skip records name a weakly-hard task, are unfinished
//                   and unkilled, carry zero demand, and are decided at
//                   the release instant
//   W4  counters    jobs_skipped_weakly equals the skip-record count and
//                   the recomputed (m,k) violations reconcile with the
//                   reported mk_violations
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "core/result.h"
#include "faults/faults.h"
#include "power/processor.h"
#include "sched/task_set.h"
#include "sim/trace.h"

namespace lpfps::audit {

/// One invariant breach, anchored at a trace instant.
struct Violation {
  std::string invariant;  ///< Catalog code, e.g. "T1.overlap".
  Time at = 0.0;          ///< Trace time the breach is anchored to.
  std::string message;    ///< Actionable diagnostic.
};

struct AuditOptions {
  /// Absolute time tolerance (us) for boundary comparisons.
  Time epsilon = 1e-5;
  /// Tolerance for speed-ratio comparisons.
  double ratio_epsilon = 1e-6;
  /// Absolute work tolerance (us of full-speed work) for J2/D2.
  Work work_epsilon = 1e-4;
  /// Relative tolerance for energy re-integration (Simpson splits are
  /// not exactly additive across segment boundaries).
  double energy_rel_tolerance = 1e-6;
  /// Stop collecting after this many violations (the report stays small
  /// and actionable even for a badly corrupted trace).
  int max_violations = 32;

  /// The scheduler's "full speed": 1.0, or the static ratio of the
  /// static/hybrid policies.  Ramp-up targets and idle ratios are
  /// checked against it.
  Ratio base_ratio = 1.0;
  /// J4: treat any recorded deadline miss as a violation (matches
  /// EngineOptions::throw_on_miss).
  bool expect_no_misses = true;
  /// J3: executed <= WCET.  Disable when context-switch overhead
  /// inflates job demand past the nominal WCET by design.
  bool check_job_demand = true;
  /// S1 and S3, which both read the recorded job windows as the
  /// scheduler's pending set: disable under release jitter, where the
  /// scheduler legally idles or runs a lower-priority job while an
  /// invisible (staged) job is pending.
  bool check_work_conserving = true;
  /// S2: disable under release jitter (a plan may legally span the
  /// nominal release of a job that arrives late).
  bool check_full_speed_at_releases = true;
  /// D1/D2: disable under release jitter (staged arrivals abort plans).
  bool check_dvs_plans = true;

  /// Fault-aware auditing (docs/ROBUSTNESS.md).  Set when the run had a
  /// non-empty faults::FaultPlan: relaxes J1 (instances may skip ahead
  /// when containment forfeits windows) and J3 (overruns are the point)
  /// while keeping every structural check armed.
  bool faults_injected = false;
  /// The run's containment action.  kThrottle/kKill arm F1 (budget
  /// ceiling per enforcement window) and, for kKill, F3 (kill-record
  /// shape and counter agreement).
  faults::OverrunAction containment = faults::OverrunAction::kNone;
  /// The run's safe-mode flag.  Arms F2: from each derived overrun
  /// instant the clock must be non-decreasing and at base until the
  /// next non-running segment, and detections must be accompanied by
  /// safe-mode entries.
  bool safe_mode_fallback = false;
  /// Weakly-hard auditing (docs/WEAKLY_HARD.md).  Set when the run's
  /// skip governor was armed: arms the W checks — per-task (m,k)-window
  /// invariants replacing the blanket zero-miss expectation for
  /// weakly-hard tasks, skip-permission replay, skip-record shape, and
  /// counter agreement — exempts governor-skipped releases from S2, and
  /// lets D1 plan windows extend past skipped arrivals (skip-aware DVS).
  bool weakly_hard = false;
  /// Effective ramp-rate multiplier of an injected DVS ramp fault
  /// (faults::RampFault::rho_factor).  T6 slope and E1 ramp-energy
  /// re-integration use rho * ramp_rate_factor; planning checks (D1/D2)
  /// must instead be disabled by the caller, as plans are built against
  /// the spec rho.
  double ramp_rate_factor = 1.0;
};

struct AuditReport {
  std::vector<Violation> violations;
  std::int64_t segments_checked = 0;
  std::int64_t jobs_checked = 0;
  std::int64_t plans_checked = 0;

  bool ok() const { return violations.empty(); }

  /// Human-readable multi-line summary ("audit: N violation(s) ...").
  std::string to_string() const;
};

/// Full battery over an engine run.  `result.trace` must be populated
/// (EngineOptions::record_trace); throws std::logic_error otherwise.
/// `tasks` and `cpu` must be the exact inputs of the simulation.
AuditReport audit_run(const core::SimulationResult& result,
                      const sched::TaskSet& tasks,
                      const power::ProcessorConfig& cpu,
                      const AuditOptions& options = {});

/// Trace-only subset (T/J/S checks; no power model, no counters): for
/// sched::FixedPriorityKernel traces and hand-built traces.  `horizon`
/// is the intended end of the simulated window (the last segment must
/// reach it, tolerantly).
AuditReport audit_trace(const sim::Trace& trace, const sched::TaskSet& tasks,
                        Time horizon, const AuditOptions& options = {});

}  // namespace lpfps::audit
