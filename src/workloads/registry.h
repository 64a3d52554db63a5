// Central registry of the paper's benchmark applications (Table 2).
#pragma once

#include <string>
#include <vector>

#include "sched/task_set.h"

namespace lpfps::workloads {

struct Workload {
  std::string name;         ///< Table 2 name: Avionics / INS / ...
  std::string description;
  sched::TaskSet tasks;
  /// Simulation horizon benches use by default: a whole number of
  /// hyperperiods, at least ~1 second of simulated time, capped so that
  /// the 236 s avionics hyperperiod stays tractable inside sweeps.
  Time horizon = 0.0;
};

/// Picks a simulation horizon of whole hyperperiods: the smallest
/// multiple covering `minimum` microseconds, shortened to the largest
/// multiple still under `maximum` when they conflict.  Only when even a
/// single hyperperiod exceeds `maximum` does it fall back to `maximum`
/// itself (a partial cycle — the avionics set's 236 s hyperperiod is
/// the one Table 2 case that needs this).  Whole-hyperperiod horizons
/// keep energy comparisons unbiased: every task's release pattern is
/// counted over complete periods.
Time pick_horizon(const sched::TaskSet& tasks, Time minimum, Time maximum);

/// The paper's four applications in Table 2 order.
std::vector<Workload> paper_workloads();

/// Look up one workload by its Table 2 name (case-sensitive).  Throws
/// std::out_of_range for unknown names.
Workload workload_by_name(const std::string& name);

}  // namespace lpfps::workloads
