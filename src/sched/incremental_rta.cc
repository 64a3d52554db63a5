#include "sched/incremental_rta.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace lpfps::sched {

IncrementalRta::IncrementalRta(TaskSet tasks, Mode mode)
    : tasks_(std::move(tasks)), mode_(mode) {
  tasks_.validate();
  response_.assign(tasks_.size(), std::nullopt);
  order_.resize(tasks_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    return tasks_.tasks()[a].priority < tasks_.tasks()[b].priority;
  });
  if (mode_ == Mode::kFromScratch) {
    reanalyze_all();
  } else {
    solve_from(0, kNoTask, false);
  }
}

bool IncrementalRta::schedulable() const {
  return all_meet_deadlines(tasks_, [&](TaskIndex i) {
    return response_[static_cast<std::size_t>(i)];
  });
}

std::size_t IncrementalRta::position(Priority priority) const {
  const auto it = std::lower_bound(
      order_.begin(), order_.end(), priority, [&](std::size_t i, Priority p) {
        return tasks_.tasks()[i].priority < p;
      });
  return static_cast<std::size_t>(it - order_.begin());
}

bool IncrementalRta::priority_taken(Priority priority,
                                    TaskIndex except) const {
  const std::size_t q = position(priority);
  return q < order_.size() &&
         tasks_.tasks()[order_[q]].priority == priority &&
         static_cast<TaskIndex>(order_[q]) != except;
}

void IncrementalRta::reorder(std::size_t from, TaskIndex i) {
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(from));
  const std::size_t to = position(tasks_[i].priority);
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(to),
                static_cast<std::size_t>(i));
}

void IncrementalRta::solve_at(std::size_t q, bool resume) {
  const std::size_t i = order_[q];
  std::optional<Time>& r = response_[i];
  Time seed = tasks_.tasks()[i].wcet;
  if (resume) {
    if (!r.has_value()) {
      // Diverged under strictly smaller interference; the new least
      // fixed point can only be larger, so the task stays divergent —
      // no iteration needed to reproduce the from-scratch nullopt.
      ++stats_.tasks_skipped;
      return;
    }
    seed = *r;
    ++stats_.tasks_seeded;
  }
  if (q > 0) {
    // The task just above is final: kept, or re-solved earlier in this
    // walk.  A divergent one gives no seed.
    const std::size_t k = order_[q - 1];
    const Time raised = seed_from_above(
        seed, response_[k].value_or(0.0), tasks_.tasks()[i].wcet,
        tasks_.tasks()[k].deadline, tasks_.size());
    if (raised != seed) ++stats_.tasks_seeded_above;
    seed = raised;
  }
  r = response_time_from_seed(tasks_, static_cast<TaskIndex>(i), seed);
  ++stats_.tasks_reanalyzed;
}

void IncrementalRta::solve_from(std::size_t from, TaskIndex fresh,
                                bool resume_rest) {
  for (std::size_t q = from; q < order_.size(); ++q) {
    solve_at(q, resume_rest && static_cast<TaskIndex>(order_[q]) != fresh);
  }
}

TaskIndex IncrementalRta::add_task(Task task) {
  task.validate();
  LPFPS_CHECK_MSG(!priority_taken(task.priority),
                  "admission add: duplicate priority");
  ++stats_.mutations;
  const std::size_t from = position(task.priority);
  const TaskIndex index = tasks_.add(std::move(task));
  response_.emplace_back();
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(from),
                static_cast<std::size_t>(index));

  if (mode_ == Mode::kFromScratch) {
    reanalyze_all();
    return index;
  }
  // Higher priority: recurrence unchanged.  The newcomer has no prior
  // state; everyone below gained interference, so the old R seeds them.
  stats_.tasks_kept += static_cast<std::int64_t>(from);
  solve_from(from, index, true);
  return index;
}

bool IncrementalRta::try_add_task(Task task) {
  std::vector<std::optional<Time>> before = response_;
  add_task(std::move(task));
  if (schedulable()) return true;
  undo_add(std::move(before));
  return false;
}

void IncrementalRta::remove_task(TaskIndex index) {
  LPFPS_CHECK(index >= 0 &&
              static_cast<std::size_t>(index) < tasks_.size());
  ++stats_.mutations;
  const std::size_t from = position(tasks_[index].priority);
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(from));
  for (std::size_t& i : order_) {
    if (i > static_cast<std::size_t>(index)) --i;
  }
  tasks_.remove(index);
  response_.erase(response_.begin() + index);

  if (mode_ == Mode::kFromScratch) {
    reanalyze_all();
    return;
  }
  // Lower priority lost interference: old R overshoots, start from C_i.
  stats_.tasks_kept += static_cast<std::int64_t>(from);
  solve_from(from, kNoTask, false);
}

void IncrementalRta::mutate_task(TaskIndex index, Task task) {
  LPFPS_CHECK(index >= 0 &&
              static_cast<std::size_t>(index) < tasks_.size());
  task.validate();
  LPFPS_CHECK_MSG(!priority_taken(task.priority, index),
                  "admission mutate: duplicate priority");
  ++stats_.mutations;
  const Task old = tasks_[index];
  const bool interference_same =
      task.priority == old.priority && task.wcet == old.wcet &&
      task.period == old.period;
  const bool interference_grew_only =
      task.priority == old.priority && task.wcet >= old.wcet &&
      task.period <= old.period;
  const std::size_t was = position(old.priority);
  tasks_.replace(index, std::move(task));
  if (tasks_[index].priority != old.priority) reorder(was, index);

  if (mode_ == Mode::kFromScratch) {
    reanalyze_all();
    return;
  }
  // The mutated task itself (`fresh` below): its own recurrence may
  // have shrunk (WCET down) or its deadline bound moved, so always start
  // from C_i — one task's iteration is cheap.
  if (interference_same) {
    solve_at(position(tasks_[index].priority), false);
    stats_.tasks_kept += static_cast<std::int64_t>(tasks_.size()) - 1;
    return;  // bcet/phase/deadline/name changes are invisible to others.
  }
  // The tasks above both its old and its new priority never saw the
  // mutated task; the walk starts at the higher of the two.
  const std::size_t from =
      position(std::min(old.priority, tasks_[index].priority));
  stats_.tasks_kept += static_cast<std::int64_t>(from);
  solve_from(from, index, interference_grew_only);
}

void IncrementalRta::reanalyze_all() {
  for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks_.size()); ++i) {
    response_[static_cast<std::size_t>(i)] =
        response_time_from_seed(tasks_, i, tasks_[i].wcet);
    ++stats_.tasks_reanalyzed;
  }
}

void IncrementalRta::undo_add(
    std::vector<std::optional<Time>> response_times) {
  LPFPS_CHECK(!tasks_.empty());
  const auto last = static_cast<TaskIndex>(tasks_.size()) - 1;
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(
                                    position(tasks_[last].priority)));
  tasks_.remove(last);
  LPFPS_CHECK(response_times.size() == tasks_.size());
  response_ = std::move(response_times);
}

void IncrementalRta::undo_mutate(
    TaskIndex index, Task previous,
    std::vector<std::optional<Time>> response_times) {
  const Priority current = tasks_[index].priority;
  const std::size_t was = position(current);
  tasks_.replace(index, std::move(previous));
  if (tasks_[index].priority != current) reorder(was, index);
  LPFPS_CHECK(response_times.size() == tasks_.size());
  response_ = std::move(response_times);
}

}  // namespace lpfps::sched
