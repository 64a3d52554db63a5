#include "weakly_hard/governor.h"

#include <algorithm>

#include "common/check.h"
#include "sched/analysis.h"

namespace lpfps::weakly_hard {

const char* to_string(SkipPolicy policy) {
  switch (policy) {
    case SkipPolicy::kNever:
      return "never";
    case SkipPolicy::kOverload:
      return "overload";
    case SkipPolicy::kAlways:
      return "always";
  }
  return "?";
}

void SkipGovernor::bind(const sched::TaskSet& tasks, SkipPolicy policy,
                        bool skip_dvs) {
  policy_ = tasks.has_weakly_hard() ? policy : SkipPolicy::kNever;
  skip_dvs_ = armed() && skip_dvs;
  // kOverload's structural trigger: a set the hard RTA rejects at base
  // speed is in overload from the first release, before any miss can be
  // observed.
  overload_structural_ =
      policy_ == SkipPolicy::kOverload &&
      (tasks.utilization() > 1.0 || !sched::is_schedulable_rta(tasks));
  overload_dynamic_ = false;
  jobs_skipped_weakly_ = 0;
  mk_violations_ = 0;
  // Disarmed, nothing reads per-task state, so none is sized.
  const std::size_t n = armed() ? tasks.size() : 0;
  params_.assign(n, Params{});
  histories_.assign(n, WindowHistory{});
  worst_slack_.assign(n, kHardTaskSlack);
  for (std::size_t i = 0; i < n; ++i) {
    const sched::Task& task = tasks[static_cast<TaskIndex>(i)];
    if (!task.weakly_hard()) continue;
    params_[i] = {task.effective_m(), task.effective_k(), task.skip_s};
    worst_slack_[i] = params_[i].k - params_[i].m;
  }
}

bool SkipGovernor::skip_permitted(TaskIndex task) const {
  const Params& p = params_[static_cast<std::size_t>(task)];
  return p.k > 0 &&
         histories_[static_cast<std::size_t>(task)].may_skip(p.m, p.k,
                                                             p.skip_s);
}

void SkipGovernor::record(TaskIndex task, bool met, bool skipped) {
  const auto index = static_cast<std::size_t>(task);
  const Params& p = params_[index];
  if (p.k == 0) {
    LPFPS_CHECK_MSG(!skipped, "policy skip on a hard task");
    return;
  }
  WindowHistory& history = histories_[index];
  history.record(met, skipped);
  const int slack = history.window_slack(p.m, p.k);
  worst_slack_[index] = std::min(worst_slack_[index], slack);
  if (slack < 0) ++mk_violations_;
  if (skipped) ++jobs_skipped_weakly_;
}

}  // namespace lpfps::weakly_hard
