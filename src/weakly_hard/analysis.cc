#include "weakly_hard/analysis.h"

#include <algorithm>
#include <cstddef>

#include "common/check.h"
#include "sched/analysis.h"

namespace lpfps::weakly_hard {

std::int64_t max_met_jobs(std::int64_t n, int m, int k) {
  LPFPS_CHECK(n >= 0);
  if (k <= 0) return n;
  LPFPS_CHECK(m >= 1 && m <= k);
  return (n / k) * m + std::min<std::int64_t>(n % k, m);
}

double weakly_hard_utilization(const sched::TaskSet& tasks) {
  double u = 0.0;
  for (const sched::Task& t : tasks.tasks()) {
    const int k = t.effective_k();
    const double fraction =
        k > 0 ? static_cast<double>(t.effective_m()) / k : 1.0;
    u += t.utilization() * fraction;
  }
  return u;
}

namespace {

// Only the mandatory jobs among a higher-priority task's releases run.
constexpr auto mandatory_demand = [](const sched::Task& task, std::size_t,
                                     double releases) {
  const std::int64_t mandatory =
      max_met_jobs(static_cast<std::int64_t>(releases), task.effective_m(),
                   task.effective_k());
  return static_cast<Work>(mandatory) * task.wcet;
};

std::optional<Time> mandatory_response_time(const sched::TaskSet& tasks,
                                            TaskIndex index) {
  const auto i = static_cast<std::size_t>(index);
  return sched::solve_response_time(tasks.tasks(), i, tasks.tasks()[i].wcet,
                                    0.0, mandatory_demand);
}

}  // namespace

std::optional<Time> degraded_response_time(const sched::TaskSet& tasks,
                                           TaskIndex index) {
  sched::check_constrained_deadlines(tasks, tasks[index].priority);
  return mandatory_response_time(tasks, index);
}

bool is_schedulable_weakly_hard_rta(const sched::TaskSet& tasks) {
  LPFPS_CHECK(tasks.priorities_are_unique());
  sched::check_constrained_deadlines(tasks);
  return sched::all_meet_deadlines(
      tasks, [&](TaskIndex i) { return mandatory_response_time(tasks, i); });
}

}  // namespace lpfps::weakly_hard
