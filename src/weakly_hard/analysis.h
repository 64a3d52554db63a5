// Schedulability analysis for weakly-hard task sets.
//
// In full degradation the skip governor skips every job its constraint
// permits, and a task's executed jobs settle into the mandatory cyclic
// pattern: exactly m of every k consecutive jobs run (for skip-over
// tasks, s-1 of every s).  The classic (m,k) interference bound then
// caps how many of any n consecutive jobs can be mandatory, which
// plugs straight into response-time analysis: a weakly-hard
// higher-priority task contributes only its mandatory jobs.  The
// resulting test admits sets whose *hard* utilization exceeds 1 —
// exactly the overloaded sets the weakly-hard sweep runs — while still
// guaranteeing every executed job (and every hard task) meets its
// deadline in degraded mode.
//
// Per Baskaran & Thambidurai, "Dynamic Scheduling of Skippable Periodic
// Tasks with Energy Efficiency in Weakly Hard Real-Time System"
// (PAPERS.md); the window bound is the deeply-red pattern bound of the
// (m,k)-firm literature.
#pragma once

#include <optional>

#include "common/units.h"
#include "sched/task_set.h"

namespace lpfps::weakly_hard {

/// Maximum mandatory (executed) jobs among any `n` consecutive jobs of
/// a task in the degraded m-of-k cyclic pattern:
///   floor(n/k)*m + min(n mod k, m).
/// For hard tasks pass k == 0 (returns n).  Preconditions: n >= 0,
/// k == 0 or 1 <= m <= k.
std::int64_t max_met_jobs(std::int64_t n, int m, int k);

/// Degraded-mode utilization: sum of u_i * m_i/k_i over weakly-hard
/// tasks plus full u_i over hard tasks — the long-run processor demand
/// when every permitted skip is taken.
double weakly_hard_utilization(const sched::TaskSet& tasks);

/// Worst-case response time of task `index` in degraded mode, counting
/// only mandatory jobs of weakly-hard higher-priority tasks, or nullopt
/// on divergence past the deadline.  With no weakly-hard tasks this is
/// sched::response_time bit for bit: both run sched::solve_response_time.
/// Preconditions: unique priorities; D <= T for the task and every
/// higher-priority task (checked).
std::optional<Time> degraded_response_time(const sched::TaskSet& tasks,
                                           TaskIndex index);

/// Degraded-mode schedulability: every task's degraded response time
/// exists and is <= its deadline.  This is the admission test for
/// overloaded weakly-hard sets: it guarantees hard tasks never miss and
/// every executed weakly-hard job meets its deadline once the governor
/// is spending permitted skips.
bool is_schedulable_weakly_hard_rta(const sched::TaskSet& tasks);

}  // namespace lpfps::weakly_hard
