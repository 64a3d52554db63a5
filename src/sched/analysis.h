// Schedulability analysis for fixed-priority preemptive scheduling.
//
// Two classic tests:
//  * the Liu & Layland utilization bound U <= n(2^{1/n} - 1), sufficient
//    for rate-monotonic with implicit deadlines;
//  * exact response-time analysis (Joseph & Pandya [3], Audsley et al.):
//      R_i = C_i + sum_{j in hp(i)} ceil(R_i / T_j) * C_j
//    iterated to a fixed point, valid for D_i <= T_i and synchronous
//    release (critical instant), which covers every workload in the
//    paper.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.h"
#include "sched/task_set.h"

namespace lpfps::sched {

/// Iteration budget of every fixed-point loop: a loop that has not
/// converged after this many steps reports divergence.
inline constexpr int kRtaIterationCap = 100000;

/// Liu & Layland utilization bound for n tasks: n(2^{1/n} - 1).
double liu_layland_bound(int task_count);

/// True if the set passes the (sufficient, not necessary) LL bound.
bool passes_utilization_bound(const TaskSet& tasks);

/// Worst-case response time of task `index` under the set's current
/// priorities, or nullopt if the iteration diverges past the deadline
/// (unschedulable at this priority level).  Preconditions: unique
/// priorities, D_i <= T_i for all tasks.
std::optional<Time> response_time(const TaskSet& tasks, TaskIndex index);

/// Response times for all tasks (nullopt entries where divergent).
std::vector<std::optional<Time>> response_times(const TaskSet& tasks);

/// Response time of task `index` iterated from an explicit seed and
/// terminated only on an *exact* (bitwise) fixed point — the primitive
/// the incremental analysis (sched/incremental_rta.h) is built on.
///
/// Exactness: each iterate is C_i + sum_j n_j * C_j where the n_j are
/// integer job counts, so the iterate's double value is a pure function
/// of the count vector; the counts are non-decreasing along the
/// iteration and bounded, hence eventually constant, at which point
/// next == r holds bitwise.  Because the convergent value depends only
/// on the final count vector (summed in task-index order), *any* seed
/// below the least fixed point converges to the bit-identical result:
/// seeding from C_i (from scratch) and seeding from a previous response
/// time after interference grew (incremental) agree to the last ulp.
///
/// Preconditions (checked where cheap): D_i <= T_i; seed <= the least
/// fixed point — holds for seed == C_i and for seed == the exact
/// response time under a subset of the current interference (seeds
/// below C_i are clamped up to C_i, the from-scratch start).
/// Unlike response_time() this does not re-validate the whole set per
/// call; the admission service validates once per mutation instead.
std::optional<Time> response_time_from_seed(const TaskSet& tasks,
                                            TaskIndex index, Time seed);

/// Exact fixed-priority schedulability: every task's response time exists
/// and is <= its deadline.
bool is_schedulable_rta(const TaskSet& tasks);

/// O(1)-per-task sufficient test ahead of the fixed points: the
/// response-time upper bound of Bini, Nguyen, Richard and Baruah (IEEE
/// Trans. Computers 58(2), 2009),
///   R_ub = (C_i + sum_hp C_j (1 - U_j)) / (1 - sum_hp U_j),
/// evaluated from running sums in priority order.  Sets cleared[i] to 1
/// iff the bound proves task i feasible with a rounding margin (see
/// analysis.cc for the four conditions), else 0, and returns how many
/// it cleared.  A cleared task's iteration from any seed at or below
/// its least fixed point (response_time_from_seed, or admission's
/// kernel) converges within kRtaIterationCap to a response no later
/// than D_i + kTimeEpsilon, so skipping its solve changes no answer.
///
/// `wcet[i]` stands in for tasks[i].wcet (a stretched or scaled view;
/// every entry >= 0); `by_priority` lists every index of `tasks`
/// highest priority first (priorities unique).  Builds no TaskSet and
/// allocates only `cleared`.
std::size_t clear_by_response_bound(const std::vector<Task>& tasks,
                                    const std::vector<double>& wcet,
                                    const std::vector<std::size_t>& by_priority,
                                    std::vector<std::uint8_t>& cleared);

/// EDF schedulability for implicit deadlines: U <= 1 (exact; Liu &
/// Layland).  For constrained deadlines this is only necessary.
bool is_schedulable_edf(const TaskSet& tasks);

/// Demand bound function: the total work of jobs with both release and
/// deadline inside [0, t] under synchronous release:
///   h(t) = sum_i max(0, floor((t - D_i) / T_i) + 1) * C_i.
Work demand_bound(const TaskSet& tasks, Time t);

/// Exact EDF test for constrained deadlines (Baruah/Rosier processor
/// demand analysis): U <= 1 and h(t) <= t at every absolute deadline in
/// (0, min(hyperperiod, busy-period bound)].  Reduces to the U <= 1
/// test for implicit deadlines.
bool is_schedulable_edf_exact(const TaskSet& tasks);

/// Total slack of the synchronous busy period: the amount of idle time in
/// [0, hyperperiod) when every job takes its WCET at full speed.  This is
/// the "inherent" slack LPFPS exploits even at BCET == WCET.
Time static_idle_time_per_hyperperiod(const TaskSet& tasks);

// ---------------------------------------------------------------------
// Extended response-time analysis (Audsley/Burns/Tindell/Wellings —
// the framework of the paper's references [4] and [18]).
// ---------------------------------------------------------------------

/// Per-task analysis extensions.  Indexed like the TaskSet.
struct AnalysisExtras {
  /// Release jitter J_i: a job released at t may only become visible to
  /// the scheduler by t + J_i.  Interference from tau_j then counts
  /// ceil((R + J_j) / T_j) jobs, and the reported response time is
  /// measured from the nominal release: R_i = w_i + J_i.
  std::vector<Time> jitter;
  /// Blocking B_i: the longest time tau_i can be delayed by a lower-
  /// priority task holding a shared resource (priority-ceiling bound).
  std::vector<Time> blocking;

  /// All-zero extras sized for `tasks`.
  static AnalysisExtras zero(const TaskSet& tasks);
  void validate(const TaskSet& tasks) const;
};

/// Response time with jitter and blocking:
///   w = C_i + B_i + sum_{j in hp} ceil((w + J_j) / T_j) C_j,
///   R_i = w + J_i,
/// or nullopt on divergence past the deadline.  With zero extras this
/// reduces exactly to response_time().
std::optional<Time> response_time_extended(const TaskSet& tasks,
                                           TaskIndex index,
                                           const AnalysisExtras& extras);

/// Schedulability under the extended model.
bool is_schedulable_extended(const TaskSet& tasks,
                             const AnalysisExtras& extras);

/// The critical scaling factor: the largest multiplier alpha such that
/// the set stays RTA-schedulable with every WCET scaled by alpha
/// (bisection to `tolerance`).  alpha < 1 means unschedulable as given;
/// alpha == 1 + epsilon characterizes "just meets schedulability"
/// (paper §2.3's Table 1 has alpha ~= 1).  Its reciprocal is the
/// minimal feasible static clock ratio on a continuous table.
double critical_scaling_factor(const TaskSet& tasks,
                               double tolerance = 1e-6);

}  // namespace lpfps::sched
