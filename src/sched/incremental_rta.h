// Incremental response-time analysis — fixed-point state reused across
// queries.
//
// A long-lived admission service answers "is this set still
// schedulable?" thousands of times per second while the set churns one
// task at a time.  Recomputing every response time from scratch on
// every change wastes exactly the structure churn preserves:
//
//   * a task's recurrence only involves *higher*-priority tasks, so a
//     change to task tau never touches the response times of tasks
//     with higher priority than tau;
//   * when interference grows (a task added, a WCET increased, a
//     period shortened), the old response time is an exact fixed point
//     of the old recurrence and a valid *seed* for the new one — the
//     iteration resumes from where it stopped instead of from C_i and
//     typically converges in one or two steps;
//   * a task whose iteration diverged past its deadline stays
//     divergent under strictly larger interference, so it is skipped
//     outright;
//   * the class keeps its task indices in priority order (inserted and
//     erased there, never re-sorted), re-solves the affected tasks
//     highest priority first, and starts each from the larger of its
//     own seed and the final response of the task just above it (the
//     Sjödin–Hansson seed, sched::seed_from_above).
//
// Bit-identity contract: every reanalysis runs through
// sched::response_time_from_seed, which terminates only on an exact
// (bitwise) fixed point, and the least fixed point does not depend on
// the seed (see analysis.h).  A from-scratch reanalysis of the same
// set therefore produces bit-identical response times, schedulability
// decisions, and (downstream) minimum-safe-frequency answers — the
// property tests/admission/differential_test.cc asserts across
// hundreds of random churn sequences.  Mode::kFromScratch runs that
// reference strategy through the same class (index order, every task
// from C_i), so the two arms differ only in the analysis schedule,
// never in task bookkeeping.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.h"
#include "sched/analysis.h"
#include "sched/task_set.h"

namespace lpfps::sched {

class IncrementalRta {
 public:
  enum class Mode {
    kIncremental,  ///< Reuse fixed-point state across mutations.
    kFromScratch,  ///< Reanalyze every task on every mutation (reference).
  };

  /// Analysis-effort accounting for one object's lifetime.
  struct Stats {
    std::int64_t mutations = 0;         ///< add/remove/mutate calls.
    std::int64_t tasks_reanalyzed = 0;  ///< Fixed-point iterations run.
    /// ...of which resumed from their own old R.
    std::int64_t tasks_seeded = 0;
    /// ...of which started from the next-higher task's response, above
    /// their own seed (C_i or the old R).
    std::int64_t tasks_seeded_above = 0;
    std::int64_t tasks_kept = 0;        ///< Cached results reused unchanged.
    std::int64_t tasks_skipped = 0;     ///< Divergent-stays-divergent skips.
  };

  IncrementalRta() = default;
  /// Validates and fully analyzes `tasks`.
  explicit IncrementalRta(TaskSet tasks, Mode mode = Mode::kIncremental);

  const TaskSet& tasks() const { return tasks_; }
  Mode mode() const { return mode_; }

  /// Every task index, highest priority first.  Kept across mutations
  /// (an add inserts, a remove erases and renumbers), never re-sorted.
  const std::vector<std::size_t>& by_priority() const { return order_; }

  /// True if `priority` is already taken by a task other than `except`:
  /// one binary search over by_priority().
  bool priority_taken(Priority priority, TaskIndex except = kNoTask) const;

  /// Exact response times (nullopt where divergent), indexed like the
  /// set.  Bitwise equal to a from-scratch analysis of tasks().
  const std::vector<std::optional<Time>>& response_times() const {
    return response_;
  }

  /// True iff every task's response time exists and meets its deadline.
  bool schedulable() const;

  /// Appends a task (unique priority required) and returns its index.
  /// Incremental cost: the new task from C_i, plus a seeded resume for
  /// every lower-priority task that previously converged.
  TaskIndex add_task(Task task);

  /// Tentatively appends `task`: keeps it and returns true iff the
  /// grown set is schedulable, otherwise rolls the add back (undo_add)
  /// and returns false.  The probe primitive of first-fit partitioning
  /// — each rejected core pays one incremental add/check/undo instead
  /// of a from-scratch reanalysis of its whole set.
  bool try_add_task(Task task);

  /// Removes the task at `index` (indices above shift down).  Only
  /// lower-priority tasks lost interference; they are reanalyzed from
  /// C_i (a shrunken recurrence's fixed point lies *below* the old one,
  /// so the old value is not a valid seed), each raised to the new
  /// response of the task above it.
  void remove_task(TaskIndex index);

  /// Replaces the task at `index`.  Affected lower-priority tasks are
  /// resumed from their old response times when the change can only
  /// have grown interference (WCET up and/or period down, priority
  /// unchanged), reanalyzed from scratch otherwise.
  void mutate_task(TaskIndex index, Task task);

  /// Reverts the most recent add_task without reanalysis: pops the
  /// appended task and adopts `response_times`, the pre-add vector the
  /// caller saved.  O(n) for the order's erase plus the vector move —
  /// the cheap rollback path for rejected admission requests (a full
  /// TaskSet snapshot is never needed because add only appends).
  void undo_add(std::vector<std::optional<Time>> response_times);

  /// Reverts the most recent mutate_task at `index`: restores
  /// `previous` (the task the caller saved before mutating) and adopts
  /// the saved pre-mutation `response_times`.
  void undo_mutate(TaskIndex index, Task previous,
                   std::vector<std::optional<Time>> response_times);

  const Stats& stats() const { return stats_; }

 private:
  /// The position in order_ of the first task whose priority value is
  /// not below `priority` (where a task of that priority sits or would).
  std::size_t position(Priority priority) const;
  /// Moves index `i` to its new priority's place in order_ after a
  /// priority change; `from` is its place under the old priority.
  void reorder(std::size_t from, TaskIndex i);
  /// Re-solves order_[from..] highest priority first: `fresh` and, unless
  /// `resume_rest`, every task from C_i; the others resumed from their
  /// old R.  Each seed is raised by seed_from_above.
  void solve_from(std::size_t from, TaskIndex fresh, bool resume_rest);
  /// Re-solves the task at order_[q]: from C_i, or when `resume` from
  /// its old R (a divergent old R stays divergent: skipped).
  void solve_at(std::size_t q, bool resume);
  /// Mode::kFromScratch: every task from C_i, in index order.
  void reanalyze_all();

  TaskSet tasks_;
  std::vector<std::optional<Time>> response_;
  std::vector<std::size_t> order_;  ///< Task indices, highest priority first.
  Mode mode_ = Mode::kIncremental;
  Stats stats_;
};

}  // namespace lpfps::sched
