// Reference fixed-priority preemptive kernel simulator (full speed, no
// power model).
//
// This is the conventional scheduler of paper §3.1, implemented exactly
// on the run-queue / delay-queue model: it reproduces Example 1 and the
// Figure 3 queue snapshots, and serves as an independent cross-check for
// the power-aware engine in core/engine.h (with DVS and power-down
// disabled, the engine must produce the identical schedule).
#pragma once

#include <functional>

#include "faults/faults.h"
#include "sched/queues.h"
#include "sched/task_set.h"
#include "sim/trace.h"
#include "weakly_hard/governor.h"

namespace lpfps::sched {

/// Supplies the actual execution time of a job.  Arguments: task index,
/// 0-based instance number.  Must return a value in [BCET, WCET].
using ExecTimeProvider = std::function<Work(TaskIndex, std::int64_t)>;

// InvocationHook (the opt-in QueueSnapshot observer) lives in
// sched/queues.h next to the snapshot type it delivers.

struct KernelResult {
  sim::Trace trace;
  int context_switches = 0;   ///< Preemptive switches (paper's sense).
  int scheduler_invocations = 0;
  int deadline_misses = 0;
  /// Deepest the ready set ever got (run queue + running task).
  int run_queue_high_water = 0;
  // Budget-enforcement counters; non-zero only after
  // set_overrun_containment with an out-of-contract provider.
  int overruns_detected = 0;  ///< WCET-budget exhaustions observed.
  int jobs_killed = 0;
  int jobs_throttled = 0;
  int jobs_skipped = 0;       ///< Releases displaced by kill/throttle.
  // Weakly-hard governor counters; non-zero only after set_skip_policy
  // on a task set declaring (m,k)/skip constraints (docs/WEAKLY_HARD.md).
  int jobs_skipped_weakly = 0;  ///< Jobs skipped at release by policy.
  int mk_violations = 0;  ///< Settled k-windows that fell below m met.
};

class FixedPriorityKernel {
 public:
  /// The task set must validate; priorities must already be assigned.
  explicit FixedPriorityKernel(TaskSet tasks);

  /// Overrides the default all-jobs-take-WCET behaviour.
  void set_exec_time_provider(ExecTimeProvider provider);

  /// Installs an observer called after every scheduler invocation.
  void set_invocation_hook(InvocationHook hook);

  /// Arms WCET-budget enforcement: the provider contract relaxes to
  /// allow out-of-range execution times, and a job reaching its budget
  /// triggers `action` — count only (kNone), suspend to the next period
  /// window with a replenished budget (kThrottle), or abort with the
  /// remaining work discarded (kKill).  Mirrors the containment
  /// semantics of core::simulate (docs/ROBUSTNESS.md) so the two
  /// simulators stay cross-checkable under faults.
  void set_overrun_containment(faults::OverrunAction action);

  /// Arms the weakly-hard skip governor with the same decision rule as
  /// core::simulate (docs/WEAKLY_HARD.md): at each release of a task
  /// declaring an (m,k) or skip constraint, a permitted skip is spent —
  /// always under kAlways, only while the overload latch (hard RTA
  /// failure at rest, or a detected overrun / actual miss until the next
  /// idle instant, or a release-time predicted miss) is raised under
  /// kOverload.  Inert with kNever or on a purely hard task set, keeping
  /// the engine cross-check exact.  Cannot combine with kThrottle
  /// containment (out-of-order window settlement).
  void set_skip_policy(weakly_hard::SkipPolicy policy);

  /// Simulates [0, horizon) and returns the schedule.  Jobs still running
  /// at the horizon are recorded unfinished (not counted as misses unless
  /// their deadline already passed).
  KernelResult run(Time horizon);

 private:
  TaskSet tasks_;
  ExecTimeProvider exec_time_;
  InvocationHook hook_;
  bool containment_armed_ = false;
  faults::OverrunAction overrun_action_ = faults::OverrunAction::kNone;
  weakly_hard::SkipPolicy skip_policy_ = weakly_hard::SkipPolicy::kNever;
};

}  // namespace lpfps::sched
