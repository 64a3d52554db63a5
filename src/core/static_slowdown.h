// Static slowdown: the strongest *non-adaptive* DVS baseline.
//
// The paper's §2.2 discusses static scheduling methods [14-16] that fix
// processor speeds offline assuming WCET execution.  For fixed-priority
// periodic tasks the natural static policy is a single constant clock
// ratio — the slowest available frequency at which the task set is
// still schedulable by exact response-time analysis with every WCET
// inflated by 1/ratio.  LPFPS should beat it exactly when execution
// times vary (the static schedule cannot reclaim dynamic slack), which
// is the paper's §2.2 criticism; bench_baselines quantifies it.
#pragma once

#include <optional>

#include "power/frequency.h"
#include "sched/task_set.h"

namespace lpfps::core {

/// True if the set remains RTA-schedulable when run at `ratio` in
/// (0, 1]: every WCET divided by `ratio` (one past its deadline is
/// infeasible, not an error).  Validates the set and checks D <= T.
bool schedulable_at_ratio(const sched::TaskSet& tasks, Ratio ratio);

/// The smallest available frequency ratio at which the set is still
/// schedulable (exact RTA), or nullopt if it is unschedulable even at
/// full speed.  For a continuous table the ratio is found by bisection
/// to 1e-6; for discrete tables by scanning levels upward.
std::optional<Ratio> min_feasible_static_ratio(
    const sched::TaskSet& tasks, const power::FrequencyTable& frequencies);

}  // namespace lpfps::core
