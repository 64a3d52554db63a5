// A set of periodic tasks plus whole-set utilities.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "sched/task.h"

namespace lpfps::sched {

class TaskSet {
 public:
  TaskSet() = default;
  explicit TaskSet(std::vector<Task> tasks);

  /// Appends a task (validated).  Returns its index.
  TaskIndex add(Task task);

  /// Removes the task at `index`; tasks above it shift down one slot.
  /// (The admission service's churn primitive — callers holding indices
  /// must re-resolve them after a removal.)
  void remove(TaskIndex index);

  /// Replaces the task at `index` with `task` (validated).
  void replace(TaskIndex index, Task task);

  /// Inline: the engine looks tasks up several times per event.
  const Task& operator[](TaskIndex index) const {
    LPFPS_CHECK(index >= 0 && static_cast<std::size_t>(index) < tasks_.size());
    return tasks_[static_cast<std::size_t>(index)];
  }
  Task& at(TaskIndex index);

  std::size_t size() const { return tasks_.size(); }
  bool empty() const { return tasks_.empty(); }
  const std::vector<Task>& tasks() const { return tasks_; }

  /// Sum of C_i / T_i.
  double utilization() const;

  /// LCM of all periods, in microseconds.  Throws std::overflow_error for
  /// pathological (mutually prime, huge) period combinations — the very
  /// failure mode the paper cites against static LCM schedules.
  std::int64_t hyperperiod() const;

  /// Smallest and largest WCET across tasks (Table 2's "Range of WCETs").
  Work min_wcet() const;
  Work max_wcet() const;

  /// Task names in index order (for trace rendering).
  std::vector<std::string> names() const;

  /// True if every task has deadline == period (pure Liu & Layland model,
  /// where rate-monotonic assignment is optimal).
  bool implicit_deadlines() const;

  /// True if priorities are a permutation of distinct values (every pair
  /// ordered).  Engine and analyses require this.
  bool priorities_are_unique() const;

  /// True if any task carries an (m,k)-firm or skip-over constraint
  /// (docs/WEAKLY_HARD.md).
  bool has_weakly_hard() const;

  /// Throws unless every task validates and priorities are unique.
  void validate() const;

  /// Returns a copy whose every task's BCET is `ratio` * WCET (the
  /// Figure 8 sweep: BCET from 10% to 100% of WCET).
  TaskSet with_bcet_ratio(double ratio) const;

 private:
  std::vector<Task> tasks_;
};

}  // namespace lpfps::sched
