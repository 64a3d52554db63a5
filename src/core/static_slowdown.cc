#include "core/static_slowdown.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "sched/analysis.h"

namespace lpfps::core {

namespace {

/// schedulable_at_ratio on a set already validated, with D <= T
/// checked: the RTA over every WCET divided by `ratio`, in `scaled`.
bool schedulable_scaled(const sched::TaskSet& tasks, Ratio ratio,
                        std::vector<double>& scaled) {
  scaled.resize(tasks.size());
  for (std::size_t i = 0; i < scaled.size(); ++i) {
    scaled[i] = tasks.tasks()[i].wcet / ratio;
  }
  return sched::schedulable_with_wcets(tasks.tasks(), scaled);
}

}  // namespace

bool schedulable_at_ratio(const sched::TaskSet& tasks, Ratio ratio) {
  tasks.validate();
  sched::check_constrained_deadlines(tasks);
  LPFPS_CHECK(ratio > 0.0 && ratio <= 1.0 + 1e-12);
  std::vector<double> scaled;
  return schedulable_scaled(tasks, ratio, scaled);
}

std::optional<Ratio> min_feasible_static_ratio(
    const sched::TaskSet& tasks,
    const power::FrequencyTable& frequencies) {
  // Validates the set and checks D <= T, once for every probe below.
  if (!sched::is_schedulable_rta(tasks)) return std::nullopt;
  std::vector<double> scaled;

  // Utilization is a hard floor: below U the processor cannot keep up
  // regardless of priorities.
  const double floor = tasks.utilization();

  if (!frequencies.is_continuous()) {
    for (const MegaHertz level : frequencies.levels()) {
      const Ratio ratio = frequencies.ratio_of(level);
      if (ratio < floor) continue;
      if (schedulable_scaled(tasks, ratio, scaled)) return ratio;
    }
    return 1.0;  // Schedulable at full speed by the check above.
  }

  const Ratio lowest = frequencies.f_min() / frequencies.f_max();
  Ratio lo = std::max(lowest, floor);
  if (schedulable_scaled(tasks, lo, scaled)) return lo;
  Ratio hi = 1.0;
  // Invariant: infeasible at lo, feasible at hi.
  while (hi - lo > 1e-6) {
    const Ratio mid = (lo + hi) / 2.0;
    if (schedulable_scaled(tasks, mid, scaled)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace lpfps::core
