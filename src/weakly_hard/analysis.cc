#include "weakly_hard/analysis.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/float_compare.h"

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

std::optional<Time> degraded_response_time(const sched::TaskSet& tasks,
                                           TaskIndex index) {
  const sched::Task& task = tasks[index];
  LPFPS_CHECK_MSG(task.deadline <= task.period, task.name);
  const auto deadline = static_cast<Time>(task.deadline);

  Time r = task.wcet;
  for (;;) {
    Time next = task.wcet;
    for (const sched::Task& other : tasks.tasks()) {
      if (other.priority >= task.priority) continue;
      LPFPS_CHECK_MSG(other.deadline <= other.period, other.name);
      // The plain RTA's release count (sched::response_time): a response
      // that lands on a period multiple up to float noise must not book
      // a job released at that instant.
      const auto releases = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(std::ceil(
                 (r - kTimeEpsilon) / static_cast<double>(other.period))));
      next += static_cast<Work>(max_met_jobs(releases, other.effective_m(),
                                             other.effective_k())) *
              other.wcet;
    }
    if (definitely_greater(next, deadline)) return std::nullopt;
    if (next == r) return r;  // Exact fixed point (integer job counts).
    r = next;
  }
}

bool is_schedulable_weakly_hard_rta(const sched::TaskSet& tasks) {
  LPFPS_CHECK(tasks.priorities_are_unique());
  for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks.size()); ++i) {
    const auto r = degraded_response_time(tasks, i);
    if (!r.has_value() ||
        definitely_greater(*r, static_cast<Time>(tasks[i].deadline))) {
      return false;
    }
  }
  return true;
}

}  // namespace lpfps::weakly_hard
