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
//
// Every response-time analysis in the library (plain, jitter and
// blocking, scaled WCETs, degraded (m,k)) runs the one kernel
// solve_response_time with its own interference term.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/float_compare.h"
#include "common/units.h"
#include "sched/task_set.h"

namespace lpfps::sched {

/// Iteration budget of the response-time kernel: an iteration that has
/// not converged after this many steps reports divergence.
inline constexpr int kRtaIterationCap = 100000;

/// The window of the plain recurrence: releases within the response.
struct ResponseWindow {
  double operator()(std::size_t, double r) const { return r; }
};

/// The response-time kernel: task i's least fixed point of
///   r <- base + sum_{j in hp(i)} demand(tasks[j], j, n_j(r)),
///   n_j(r) = max(1, ceil((window(j, r) - kTimeEpsilon) / T_j)),
/// summed in index order over hp(i), the tasks of numerically lower
/// priority value, from max(seed, base).  Returns r at the first exact
/// fixed point (next == r bitwise), or nullopt once next + tail >
/// D_i + kTimeEpsilon (tail: the task's own release jitter) or after
/// kRtaIterationCap steps.  The caller checks D <= T for task i and
/// hp(i) and passes a seed at or below the least fixed point.
///
/// Both functors are template arguments taken by value, never a
/// std::function or a virtual call (this loop is admission's hot path);
/// one that reads beyond task j captures a data pointer by value, which
/// stays in a register instead of being reloaded per term.
/// demand(task_j, j, n) is the work of n releases of task j (n C_j, or
/// C_j per mandatory job among them), non-decreasing in n; window(j, r)
/// is the span whose releases interfere (r, or r + J_j under jitter).
/// The -kTimeEpsilon keeps out a job released exactly at the response
/// when the sum lands a few ulps past the period multiple (1.2 + 6 * 0.8
/// is 6.0000000000000009); on inputs in ticks far above kTimeEpsilon
/// every count is then exact (tests/sched/rta_oracle_test.cc).
///
/// Exactness: an iterate is base plus one demand per j, each a function
/// of an integer release count, summed in one order, so its double is a
/// pure function of the count vector; every operation of the step is
/// monotone, so the rounded step is monotone in r and every C_j.  A
/// seed s <= R* (the least fixed point) that is base or a response
/// under no more interference has step(s) >= s, so the iterates rise,
/// stay <= step(R*) = R* and stop there: seeding from C_i, from a
/// response before interference grew (IncrementalRta), from a higher
/// frequency level (admission) or from the next-higher task's response
/// (seed_from_above, below) gives R* to the last ulp.  Each
/// non-final step raises a count bounded by its value at D_i +
/// kTimeEpsilon, so the cap decides nothing unless hp(i) releases
/// within a deadline reach the tens of thousands (condition 4 of
/// clear_by_response_bound).
template <typename Demand, typename Window = ResponseWindow>
std::optional<Time> solve_response_time(const std::vector<Task>& tasks,
                                        std::size_t i, Time base, Time seed,
                                        Demand demand, Time tail = 0.0,
                                        Window window = {}) {
  const Priority priority = tasks[i].priority;
  const double limit = static_cast<double>(tasks[i].deadline) + kTimeEpsilon;
  double r = std::max(seed, base);
  for (int iter = 0; iter < kRtaIterationCap; ++iter) {
    double next = base;
    for (std::size_t j = 0; j < tasks.size(); ++j) {
      const Task& other = tasks[j];
      if (other.priority >= priority) continue;
      const double releases = std::max(
          1.0, std::ceil((window(j, r) - kTimeEpsilon) /
                         static_cast<double>(other.period)));
      next += demand(other, j, releases);
    }
    if (next == r) return r;
    if (next + tail > limit) return std::nullopt;
    r = next;
  }
  return std::nullopt;
}

/// The seed of a walk that solves tasks highest priority first
/// (Sjödin and Hansson, "Improved response-time analysis calculations",
/// RTSS 1998): task i may start from `above`, the final response of k,
/// the task just above it (hp(i) = hp(k) + {k}), when that exceeds its
/// own `seed`.  `wcet_i` is c_i in the walk's WCET view (stretched or
/// scaled alike for every task), `deadline_above` is D_k and `n` the
/// set's size; pass 0 for `above` when k diverged (no seed).
///
/// Why R_k lies at or below task i's float least fixed point R_i*.  F_i
/// and F_k are the two rounded steps over one WCET view.  At any r the
/// term of each j in hp(k) is the same double t_j in both (it depends
/// on r, T_j and c_j only).  F_k sums c_k and the t_j; F_i sums c_i,
/// the t_j and t_k >= c_k (n_k >= 1), so the exact sums obey S_i >= c_i
/// + S_k.  A recursive sum of at most n non-negative doubles is within
/// a factor gamma = n u / (1 - n u) of its exact value (u = 2^-53), so
/// F_i(r) >= (c_i + S_k)(1 - gamma) and F_k(r) <= S_k (1 + gamma):
/// F_i(r) > F_k(r) once c_i (1 - gamma) > 2 gamma S_k.  Where F_k(r) <=
/// B = D_k + kTimeEpsilon, S_k <= B / (1 - gamma), and the guard below,
/// c_i > (n + 1) 2^-50 B (four times 2 (n + 1) u B), implies that
/// condition.  k's solve from c_k rises to R_k <= B (R_k passed k's
/// deadline test, or the closed-form bound cleared k, which puts R_k
/// within B), so F_k(r) <= B at every r <= R_k.  So:
///  * R_k <= R_i*.  k's iterates r_m from c_k stay at or below R_i*:
///    c_k <= t_k <= F_i(R_i*) = R_i*, and r_{m+1} = F_k(r_m) < F_i(r_m)
///    <= F_i(R_i*) = R_i* by the monotone step.  A walk may pass on any
///    s <= R_k with F_k(s) >= s instead (a cleared k's own seed).
///  * No such s is a fixed point of F_i: F_i(s) > F_k(s) >= s.  So the
///    solve from s rises and tests each iterate against D_i as the one
///    from c_i does: where R_i* lies past D_i + kTimeEpsilon (possible
///    when D_i < D_k), both give up; the cap aside, a fixed point the
///    solve from s reached within D_i would stop the one from c_i too.
/// When the guard fails (c_i within the rounding of a sum near D_k),
/// the walk keeps the task's own seed: an unguarded R_k can be a fixed
/// point of F_i past D_i where the solve from c_i gives up
/// (tests/sched/rta_oracle_test.cc, TinyWcetTakesTheFallback).
inline Time seed_from_above(Time seed, Time above, double wcet_i,
                            std::int64_t deadline_above, std::size_t n) {
  const double bound = static_cast<double>(deadline_above) + kTimeEpsilon;
  if (above > seed &&
      wcet_i > static_cast<double>(n + 1) * 0x1p-50 * bound) {
    return above;
  }
  return seed;
}

/// Task i's response under the WCET view `wcet` (wcet[j] stands in for
/// tasks[j].wcet) from max(seed, wcet[i]) (pass 0 for C_i): bitwise
/// response_time_from_seed's on the set with those WCETs materialised,
/// or nullopt when wcet[i] alone overruns D_i or the response is
/// definitely past D_i.  Checks nothing; the caller has checked D <= T.
/// Inline: admission's level and headroom probes call it per task.
inline std::optional<Time> response_fixed_point(const std::vector<Task>& tasks,
                                                const std::vector<double>& wcet,
                                                std::size_t i, Time seed) {
  const double deadline = static_cast<double>(tasks[i].deadline);
  if (wcet[i] > deadline) return std::nullopt;  // C_i alone overruns D_i.
  const std::optional<Time> r = solve_response_time(
      tasks, i, wcet[i], seed,
      [c = wcet.data()](const Task&, std::size_t j, double n) {
        return n * c[j];
      });
  if (r.has_value() && definitely_greater(*r, deadline)) return std::nullopt;
  return r;
}

/// The whole-set verdict over a WCET view: every task's
/// response_fixed_point from C_i exists.  Equals is_schedulable_rta on
/// the set with those WCETs materialised when every wcet[i] <= D_i;
/// one past its deadline makes the set infeasible, not invalid.  Builds
/// no TaskSet and checks nothing; the caller has validated the set and
/// checked D <= T once.
bool schedulable_with_wcets(const std::vector<Task>& tasks,
                            const std::vector<double>& wcet);

/// The whole-set RTA verdict: every task's response(i) exists and is not
/// definitely past its deadline.
template <typename Response>
bool all_meet_deadlines(const TaskSet& tasks, const Response& response) {
  for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks.size()); ++i) {
    const std::optional<Time> r = response(i);
    if (!r.has_value() ||
        definitely_greater(*r, static_cast<double>(tasks[i].deadline))) {
      return false;
    }
  }
  return true;
}

/// Liu & Layland utilization bound for n tasks: n(2^{1/n} - 1).
double liu_layland_bound(int task_count);

/// True if the set passes the (sufficient, not necessary) LL bound.
bool passes_utilization_bound(const TaskSet& tasks);

/// The RTA precondition, and the engine's: throws std::logic_error
/// naming the first task of priority value <= `through` (default: any)
/// with D > T, its deadline and its period.
void check_constrained_deadlines(
    const TaskSet& tasks,
    Priority through = std::numeric_limits<Priority>::max());

/// check_constrained_deadlines for one task.
void check_constrained_deadline(const Task& task);

/// Worst-case response time of task `index` under the set's current
/// priorities, or nullopt if the iteration diverges past the deadline
/// (unschedulable at this priority level).  Validates the set and
/// checks D <= T for the task and every higher-priority task.
std::optional<Time> response_time(const TaskSet& tasks, TaskIndex index);

/// Response times for all tasks (nullopt entries where divergent).
/// Validates the set and checks D <= T for every task, once per call.
std::vector<std::optional<Time>> response_times(const TaskSet& tasks);

/// Response time of task `index` iterated from an explicit seed — the
/// primitive the incremental analysis (sched/incremental_rta.h) is
/// built on.  Any seed at or below the least fixed point gives the
/// bit-identical response_time() (see solve_response_time).
///
/// Preconditions: D_i <= T_i (checked) and D <= T for every
/// higher-priority task; seed <= the least fixed point — holds for seed
/// == C_i, for seed == the exact response time under a subset of the
/// current interference and for seed_from_above's seed (seeds below C_i
/// are clamped up to C_i, the from-scratch start).  Unlike
/// response_time() this does not re-validate the whole set per call;
/// the admission service validates once per mutation instead.
std::optional<Time> response_time_from_seed(const TaskSet& tasks,
                                            TaskIndex index, Time seed);

/// Exact fixed-priority schedulability: every task's response time exists
/// and is <= its deadline.  Checks like response_times().
bool is_schedulable_rta(const TaskSet& tasks);

/// O(1)-per-task sufficient test ahead of the fixed points: the
/// response-time upper bound of Bini, Nguyen, Richard and Baruah (IEEE
/// Trans. Computers 58(2), 2009),
///   R_ub = (C_i + sum_hp C_j (1 - U_j)) / (1 - sum_hp U_j),
/// evaluated from running sums in priority order.  Sets cleared[i] to 1
/// iff the bound proves task i feasible with a rounding margin (see
/// analysis.cc for the four conditions), else 0, and returns how many
/// it cleared.  A cleared task's iteration from any seed at or below
/// its least fixed point (solve_response_time, under any view of the
/// WCETs) converges within kRtaIterationCap to a response no later
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
/// is bitwise response_time().  Checks like response_time(), plus the
/// extras.
std::optional<Time> response_time_extended(const TaskSet& tasks,
                                           TaskIndex index,
                                           const AnalysisExtras& extras);

/// Schedulability under the extended model.  Validates the set and the
/// extras and checks D <= T for every task, once per call.
bool is_schedulable_extended(const TaskSet& tasks,
                             const AnalysisExtras& extras);

/// The critical scaling factor: the largest multiplier alpha such that
/// the set stays RTA-schedulable with every WCET scaled by alpha
/// (bisection to `tolerance`; each probe runs schedulable_with_wcets
/// over wcet * alpha).  Validates the set and checks D <= T once.
/// alpha < 1 means unschedulable as given; alpha == 1 + epsilon
/// characterizes "just meets schedulability" (paper §2.3's Table 1 has
/// alpha ~= 1).  Its reciprocal is the minimal feasible static clock
/// ratio on a continuous table.
double critical_scaling_factor(const TaskSet& tasks,
                               double tolerance = 1e-6);

}  // namespace lpfps::sched
