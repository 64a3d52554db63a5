// The LPFPS simulation engine.
//
// Executes a SchedulerPolicy over a periodic task set on the variable
// voltage processor model, implementing the scheduler of the paper's
// Figure 4:
//
//   L1-L4   on any scheduler invocation below full speed, first ramp the
//           clock/voltage back to maximum and exit; the scheduler
//           re-enters when the transition completes;
//   L5-L7   move due tasks from the delay queue to the run queue;
//   L8-L11  preempt the active task if a higher-priority task arrived;
//   L12-L15 run queue empty and no active task: set the wake-up timer to
//           (next release - wakeup delay) and enter power-down;
//   L16-L20 run queue empty with an active task: compute the speed ratio
//           (heuristic eq. 3 or optimal eq. 2), quantize *up* to the
//           next available frequency, and slow down, scheduling a
//           just-in-time ramp back to full speed.
//
// One deliberate strengthening over the paper's text: the slowdown
// window is capped at min(t_a, active task's absolute deadline).  The
// paper uses t_a (next release) alone, which is unsafe when the next
// release of every sleeping task lies beyond the active task's own
// deadline (possible even with deadline == period; see
// tests/core/engine_safety_test.cc).  With the cap, LPFPS preserves
// exactly the guarantees of the underlying fixed-priority schedule.
//
// Timing model details:
//  * the processor executes through frequency transitions (ramps) at the
//    instantaneous speed (paper §3.3 / [20]);
//  * ramps change the speed ratio linearly at rate `ramp_rate` per us;
//  * power-down wake-up takes wakeup_cycles at f_max and burns full
//    power; the timer is set early by that amount (L14).
#pragma once

#include <cstdint>
#include <vector>

#include "core/policy.h"
#include "core/result.h"
#include "exec/exec_model.h"
#include "faults/faults.h"
#include "power/processor.h"
#include "sched/queues.h"
#include "sched/task_set.h"
#include "weakly_hard/governor.h"

namespace lpfps::core {

/// Weakly-hard scheduling configuration (docs/WEAKLY_HARD.md).  Inert
/// unless the task set declares weakly-hard constraints *and* the
/// policy is not kNever — the engine stays bit-identical to the hard
/// engine otherwise (pinned differentially).
struct WeaklyHardOptions {
  /// When the governor spends permitted skips.  The default kOverload
  /// degrades only while the overload latch is raised: from t = 0 on
  /// sets whose hard RTA fails (structural overload), and from the
  /// first predicted miss / detected overrun / actual miss until the
  /// next idle instant otherwise.
  weakly_hard::SkipPolicy policy = weakly_hard::SkipPolicy::kOverload;
  /// Skip-aware DVS (skip-to-slack conversion): slowdown windows extend
  /// past arrivals whose jobs the governor will certainly skip, and
  /// such releases are consumed without ramping back to base speed —
  /// a granted skip's reclaimed demand becomes a deeper slowdown.
  /// Without it, skips shed the same load but every arrival still
  /// interrupts the plan (plain LPFPS energy behavior).
  bool skip_dvs = false;
};

struct EngineOptions {
  Time horizon = 0.0;  ///< Required: simulate [0, horizon).
  std::uint64_t seed = 1;
  bool record_trace = false;
  /// Throw std::runtime_error on a deadline miss (hard real-time default)
  /// instead of recording it in the result.  Misses are detected when a
  /// job *completes* after its deadline; a job still unfinished at the
  /// horizon is not counted (size horizons in whole hyperperiods, or
  /// long enough for backlog to drain, when probing overload).
  bool throw_on_miss = true;
  /// Kernel overhead charged per preemptive context switch (save +
  /// restore combined), in full-speed-equivalent microseconds.  The cost
  /// is added to the incoming job's demand, so it executes at the
  /// prevailing clock ratio like real kernel code would.  Non-zero costs
  /// are unmodelled by the schedulability analysis: inflate WCETs
  /// accordingly or expect (deliberate) deadline throws under overload.
  Work context_switch_cost = 0.0;
  /// Per-task maximum release jitter (empty = none; otherwise one entry
  /// per task).  Each job becomes visible to the scheduler at
  /// release + Uniform(0, jitter_i); deadlines stay relative to the
  /// nominal release (the standard jitter model of
  /// sched::response_time_extended).  The scheduler's delay queue still
  /// predicts the *nominal* release — a safe lower bound on the actual
  /// arrival — and LPFPS conservatively abstains from DVS and
  /// power-down while a released-but-not-yet-visible job is in flight.
  /// For a jittered run audit::derive_options disarms the auditor's
  /// S1-S3 and D checks, which assume visible nominal releases.
  std::vector<Time> release_jitter;
  /// Wake-up timer granularity in microseconds (0 = a free-running
  /// comparator, the paper's implicit assumption).  Tick-based kernels
  /// can only program wake-ups on a tick grid: the timer is rounded
  /// *down* to a multiple of the granularity (waking early is safe,
  /// late is not), shaving the tail off every power-down interval.
  Time timer_granularity = 0.0;
  /// Opt-in observer called with a QueueSnapshot after every scheduler
  /// invocation (the engine-side twin of FixedPriorityKernel's hook).
  /// Building a snapshot copies both scheduler queues, so the default —
  /// no hook — keeps the hot path snapshot-free; install one only for
  /// inspection, debugging, or queue-shape tests.
  sched::InvocationHook invocation_hook;
  /// Fault injection (docs/ROBUSTNESS.md).  Overrun specs wrap the
  /// execution-time model in exec::FaultyExecModel internally — this
  /// plan is the single configuration point; do not pre-wrap the model
  /// yourself.  Ramp and wakeup faults perturb the engine's physical
  /// layer while every scheduling computation keeps using the spec
  /// values.  A default-constructed (empty) plan leaves the engine
  /// bit-identical to a fault-free build.
  faults::FaultPlan faults;
  /// Detection and containment: budget enforcement at WCET exhaustion
  /// (throttle/kill) and the safe-mode fallback that runs plain FPS
  /// from the first detected anomaly until the next idle instant.
  /// Enabling containment without faults changes nothing observable
  /// (in-contract jobs never exhaust their budget), which the
  /// differential test in tests/core/engine_fault_injection_test.cc
  /// pins bit-for-bit.  kThrottle and kKill displace overrun windows,
  /// so pair them with throw_on_miss=false when probing overload.
  faults::ContainmentPolicy containment;
  /// Weakly-hard skip governor (docs/WEAKLY_HARD.md).  Armed only when
  /// the task set declares (m,k)/skip constraints and the policy is not
  /// kNever; disarmed runs are bit-identical to the hard engine.
  /// Pair with throw_on_miss=false when probing overload.
  WeaklyHardOptions weakly_hard;
};

/// Runs one simulation over [0, options.horizon).  `tasks` must be
/// non-empty and validate (unique priorities assigned); `exec_model`
/// may be null, in which case every job takes its WCET.  Throws
/// std::logic_error on invalid input (core::SimState's constructor) and
/// std::runtime_error on a deadline miss when options.throw_on_miss.
SimulationResult simulate(const sched::TaskSet& tasks,
                          const power::ProcessorConfig& processor,
                          const SchedulerPolicy& policy,
                          const exec::ExecModelPtr& exec_model,
                          const EngineOptions& options);

}  // namespace lpfps::core
