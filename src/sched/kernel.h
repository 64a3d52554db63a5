// Reference fixed-priority preemptive kernel simulator (full speed, no
// power model).
//
// This is the conventional scheduler of paper §3.1, implemented exactly
// on the run-queue / delay-queue model: it reproduces Example 1 and the
// Figure 3 queue snapshots, and serves as an independent cross-check for
// the power-aware engine in core/engine.h on fault-free runs (with DVS
// and power-down disabled, the engine must produce the identical
// schedule).  Containment and the weakly-hard governor live in the
// engine alone, which its own tests pin.
#pragma once

#include <functional>

#include "sched/queues.h"
#include "sched/task_set.h"
#include "sim/trace.h"

namespace lpfps::sched {

/// Supplies the actual execution time of a job.  Arguments: task index,
/// 0-based instance number.  Must return a value in (0, WCET].
using ExecTimeProvider = std::function<Work(TaskIndex, std::int64_t)>;

// InvocationHook (the opt-in QueueSnapshot observer) lives in
// sched/queues.h next to the snapshot type it delivers.

struct KernelResult {
  sim::Trace trace;
  int context_switches = 0;   ///< Preemptive switches (paper's sense).
  int scheduler_invocations = 0;
  int deadline_misses = 0;
};

class FixedPriorityKernel {
 public:
  /// The task set must validate; priorities must already be assigned.
  explicit FixedPriorityKernel(TaskSet tasks);

  /// Overrides the default all-jobs-take-WCET behaviour.
  void set_exec_time_provider(ExecTimeProvider provider);

  /// Installs an observer called after every scheduler invocation.
  void set_invocation_hook(InvocationHook hook);

  /// Simulates [0, horizon) and returns the schedule.  Only completed
  /// jobs get a record: a job still in flight at the horizon has none and
  /// is not counted as a miss.
  KernelResult run(Time horizon);

 private:
  TaskSet tasks_;
  ExecTimeProvider exec_time_;
  InvocationHook hook_;
};

}  // namespace lpfps::sched
