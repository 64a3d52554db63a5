#include "sched/analysis.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "common/float_compare.h"

namespace lpfps::sched {

double liu_layland_bound(int task_count) {
  LPFPS_CHECK(task_count > 0);
  const double n = task_count;
  return n * (std::pow(2.0, 1.0 / n) - 1.0);
}

bool passes_utilization_bound(const TaskSet& tasks) {
  LPFPS_CHECK(!tasks.empty());
  return tasks.utilization() <=
         liu_layland_bound(static_cast<int>(tasks.size())) + 1e-12;
}

namespace {

constexpr auto plain_demand = [](const Task& task, std::size_t,
                                 double releases) {
  return releases * task.wcet;
};

std::optional<Time> plain_response_time(const TaskSet& tasks,
                                        TaskIndex index, Time seed) {
  const auto i = static_cast<std::size_t>(index);
  return solve_response_time(tasks.tasks(), i, tasks.tasks()[i].wcet, seed,
                             plain_demand);
}

// Release jitter J_j widens tau_j's window; blocking sits in the base.
std::optional<Time> jittered_response_time(const TaskSet& tasks,
                                           TaskIndex index,
                                           const AnalysisExtras& extras) {
  const std::vector<Task>& all = tasks.tasks();
  const auto i = static_cast<std::size_t>(index);
  const Time base = all[i].wcet + extras.blocking[i];
  const Time own_jitter = extras.jitter[i];
  const std::optional<Time> w = solve_response_time(
      all, i, base, base, plain_demand, own_jitter,
      [jitter = extras.jitter.data()](std::size_t j, double r) {
        return r + jitter[j];
      });
  if (!w.has_value()) return std::nullopt;
  return *w + own_jitter;
}

}  // namespace

void check_constrained_deadlines(const TaskSet& tasks, Priority through) {
  for (const Task& t : tasks.tasks()) {
    if (t.priority > through || t.deadline <= t.period) continue;
    throw std::logic_error("task '" + t.name + "': deadline " +
                           std::to_string(t.deadline) +
                           " exceeds its period " + std::to_string(t.period) +
                           " (D <= T required)");
  }
}

std::optional<Time> response_time(const TaskSet& tasks, TaskIndex index) {
  tasks.validate();
  check_constrained_deadlines(tasks, tasks[index].priority);
  return plain_response_time(tasks, index, 0.0);
}

// The whole-set entry points validate once (n task checks plus one
// priority-uniqueness pass) and check D <= T once, not once per task.
std::vector<std::optional<Time>> response_times(const TaskSet& tasks) {
  tasks.validate();
  check_constrained_deadlines(tasks);
  std::vector<std::optional<Time>> out;
  out.reserve(tasks.size());
  for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks.size()); ++i) {
    out.push_back(plain_response_time(tasks, i, 0.0));
  }
  return out;
}

std::optional<Time> response_time_from_seed(const TaskSet& tasks,
                                            TaskIndex index, Time seed) {
  LPFPS_CHECK_MSG(tasks[index].deadline <= tasks[index].period,
                  "RTA requires constrained deadlines (D <= T)");
  return plain_response_time(tasks, index, seed);
}

bool is_schedulable_rta(const TaskSet& tasks) {
  tasks.validate();
  check_constrained_deadlines(tasks);
  return all_meet_deadlines(
      tasks, [&](TaskIndex i) { return plain_response_time(tasks, i, 0.0); });
}

bool schedulable_with_wcets(const std::vector<Task>& tasks,
                            const std::vector<double>& wcet) {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!response_fixed_point(tasks, wcet, i, 0.0).has_value()) return false;
  }
  return true;
}

// Why a task the bound clears is feasible under the float iteration.
// Notation: c_j = wcet[j]; T_j and D_i are the integer periods and
// deadline as doubles; u = 2^-53; n = tasks.size(); G is the real step
// R -> c_i + sum_hp max(1, ceil(R / T_j)) c_j on these same inputs.
//
//  * The bound.  With sum_hp U_j < 1, G has a least fixed point R*, and
//    R* <= R_ub.  Let k_j = max(1, ceil(R* / T_j)).  If k_j >= 2 and
//    R* - c_j < t = (k_j - 1) T_j, then G(t) <= R* - c_j < t (one job
//    of j fewer, no other job more), so G iterated from c_i stays below
//    t and stops at a fixed point below R*: impossible.  So k_j c_j <=
//    c_j + U_j (R* - c_j) for every j (for k_j = 1 because R* >= c_j),
//    and summing gives R* (1 - sum_hp U_j) <= c_i + sum_hp c_j (1 - U_j).
//  * Condition 1: the computed sum_hp U_j <= 1 - 2^-10.  Then every U_j
//    and the real 1 - sum_hp U_j are at least 2^-11, so the numerator's
//    and denominator's subtractions magnify the rounding of the sums
//    (a sum of k non-negative terms is within about k u of its real
//    value) at most 2^12-fold: the computed R_ub is within (n + 1)
//    2^-40 of the real one, relatively.
//  * Condition 2: R_ub (1 + delta) <= D_i with delta = (n + 1) 2^-39,
//    twice that error, which also absorbs the rounding of the product.
//    So R* <= D_i.
//  * Condition 3: D_i (n + 1) u <= kTimeEpsilon.  At any r <= R* + eps
//    the float step counts no more jobs than G does at R*: fl(r - eps)
//    lies at or below the double k_j T_j >= R* (an exact integer), so
//    its quotient by T_j lies at or below k_j, and so does its ceil.  Its
//    at most n rounded products and sums then stay within a factor
//    1 + (n + 1) u of G(R*) = R*.  By induction from c_i <= R*, every
//    iterate lies at or below R* (1 + (n + 1) u) <= R* + eps <= D_i +
//    eps, so the loop never exits on the deadline; rising and bounded,
//    it stops at the least float fixed point, which is not definitely
//    past D_i.  A seed at or below that fixed point reaches the same one.
//  * Condition 4: R_ub sum_hp 1/T_j <= kRtaIterationCap / 2.  Each
//    non-final step raises some job count, each count running from >= 1
//    to <= k_j, so a solve takes at most 2 + sum_hp (k_j - 1) < 2 + R*
//    sum_hp 1/T_j steps, and the cap never decides the answer.
//
// Condition 3 with D_i >= 1 also keeps (n + 1) u <= 10^-6, where the
// first-order rounding estimates above hold with room to spare.
std::size_t clear_by_response_bound(const std::vector<Task>& tasks,
                                    const std::vector<double>& wcet,
                                    const std::vector<std::size_t>& by_priority,
                                    std::vector<std::uint8_t>& cleared) {
  constexpr double kUnitRoundoff = 0x1p-53;
  constexpr double kMaxHigherUtilization = 1.0 - 0x1p-10;
  const std::size_t n = tasks.size();
  const double terms = static_cast<double>(n + 1);
  const double slack = 1.0 + terms * 0x1p-39;  // 1 + delta.
  cleared.assign(n, 0);
  std::size_t count = 0;
  // Running sums over the tasks of higher priority than the current one.
  double sum_c = 0.0;      // sum C_j
  double sum_u = 0.0;      // sum U_j
  double sum_cu = 0.0;     // sum C_j U_j
  double sum_inv_t = 0.0;  // sum 1 / T_j
  for (const std::size_t i : by_priority) {
    if (sum_u > kMaxHigherUtilization) break;  // Condition 1, for all below.
    const double c = wcet[i];
    const double period = static_cast<double>(tasks[i].period);
    const double deadline = static_cast<double>(tasks[i].deadline);
    const double r_ub = (c + sum_c - sum_cu) / (1.0 - sum_u);
    if (r_ub * slack <= deadline &&
        deadline * terms * kUnitRoundoff <= kTimeEpsilon &&
        r_ub * sum_inv_t <= 0.5 * kRtaIterationCap) {
      cleared[i] = 1;
      ++count;
    }
    const double util = c / period;
    sum_c += c;
    sum_u += util;
    sum_cu += c * util;
    sum_inv_t += 1.0 / period;
  }
  return count;
}

bool is_schedulable_edf(const TaskSet& tasks) {
  return approx_le(tasks.utilization(), 1.0);
}

Work demand_bound(const TaskSet& tasks, Time t) {
  LPFPS_CHECK(t >= 0.0);
  Work demand = 0.0;
  for (const Task& task : tasks.tasks()) {
    const double jobs =
        std::floor((t - static_cast<double>(task.deadline)) /
                   static_cast<double>(task.period)) +
        1.0;
    if (jobs > 0.0) demand += jobs * task.wcet;
  }
  return demand;
}

bool is_schedulable_edf_exact(const TaskSet& tasks) {
  LPFPS_CHECK(!tasks.empty());
  for (const Task& t : tasks.tasks()) {
    LPFPS_CHECK_MSG(t.deadline <= t.period,
                    "PDA here requires constrained deadlines");
    LPFPS_CHECK_MSG(t.phase == 0, "PDA assumes synchronous release");
  }
  const double u = tasks.utilization();
  if (definitely_greater(u, 1.0, 1e-9)) return false;
  if (tasks.implicit_deadlines()) return true;  // U <= 1 is exact.

  // Deadlines need checking only up to the smaller of the hyperperiod
  // and the Baruah-Rosier bound U/(1-U) * max(T_i - D_i) (when U < 1).
  double limit = static_cast<double>(tasks.hyperperiod());
  if (u < 1.0) {
    double max_gap = 0.0;
    for (const Task& t : tasks.tasks()) {
      max_gap = std::max(
          max_gap, static_cast<double>(t.period - t.deadline));
    }
    limit = std::min(limit, u / (1.0 - u) * max_gap);
  }

  for (const Task& t : tasks.tasks()) {
    for (double d = static_cast<double>(t.deadline); d <= limit + 1e-9;
         d += static_cast<double>(t.period)) {
      if (definitely_greater(demand_bound(tasks, d), d)) return false;
    }
  }
  return true;
}

AnalysisExtras AnalysisExtras::zero(const TaskSet& tasks) {
  AnalysisExtras extras;
  extras.jitter.assign(tasks.size(), 0.0);
  extras.blocking.assign(tasks.size(), 0.0);
  return extras;
}

void AnalysisExtras::validate(const TaskSet& tasks) const {
  LPFPS_CHECK(jitter.size() == tasks.size());
  LPFPS_CHECK(blocking.size() == tasks.size());
  for (const Time j : jitter) LPFPS_CHECK(j >= 0.0);
  for (const Time b : blocking) LPFPS_CHECK(b >= 0.0);
}

std::optional<Time> response_time_extended(const TaskSet& tasks,
                                           TaskIndex index,
                                           const AnalysisExtras& extras) {
  tasks.validate();
  extras.validate(tasks);
  check_constrained_deadlines(tasks, tasks[index].priority);
  return jittered_response_time(tasks, index, extras);
}

bool is_schedulable_extended(const TaskSet& tasks,
                             const AnalysisExtras& extras) {
  tasks.validate();
  extras.validate(tasks);
  check_constrained_deadlines(tasks);
  return all_meet_deadlines(tasks, [&](TaskIndex i) {
    return jittered_response_time(tasks, i, extras);
  });
}

double critical_scaling_factor(const TaskSet& tasks, double tolerance) {
  tasks.validate();
  check_constrained_deadlines(tasks);
  LPFPS_CHECK(tolerance > 0.0);

  std::vector<double> scaled(tasks.size());
  const auto schedulable_scaled = [&](double alpha) {
    for (std::size_t i = 0; i < scaled.size(); ++i) {
      scaled[i] = tasks.tasks()[i].wcet * alpha;
    }
    return schedulable_with_wcets(tasks.tasks(), scaled);
  };

  // Bracket: utilization bounds alpha above by 1/U (processor capacity).
  double lo = 0.0;
  double hi = 1.0 / tasks.utilization() + 1.0;
  if (!schedulable_scaled(tolerance)) return 0.0;
  lo = tolerance;
  while (hi - lo > tolerance) {
    const double mid = (lo + hi) / 2.0;
    if (schedulable_scaled(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Time static_idle_time_per_hyperperiod(const TaskSet& tasks) {
  // With synchronous release, D <= T and a schedulable set, every job
  // released in [0, H) also completes in [0, H), so idle time is exactly
  // H * (1 - U).
  LPFPS_CHECK(!tasks.empty());
  for (const Task& t : tasks.tasks()) LPFPS_CHECK(t.phase == 0);
  const double h = static_cast<double>(tasks.hyperperiod());
  const double u = tasks.utilization();
  LPFPS_CHECK_MSG(approx_le(u, 1.0), "overloaded task set");
  return h * (1.0 - u);
}

}  // namespace lpfps::sched
