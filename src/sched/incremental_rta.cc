#include "sched/incremental_rta.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace lpfps::sched {

IncrementalRta::IncrementalRta(TaskSet tasks, Mode mode)
    : tasks_(std::move(tasks)), mode_(mode) {
  tasks_.validate();
  response_.assign(tasks_.size(), std::nullopt);
  for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks_.size()); ++i) {
    recompute(i);
  }
}

bool IncrementalRta::schedulable() const {
  return all_meet_deadlines(tasks_, [&](TaskIndex i) {
    return response_[static_cast<std::size_t>(i)];
  });
}

bool IncrementalRta::priority_taken(Priority priority,
                                    TaskIndex except) const {
  for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks_.size()); ++i) {
    if (i == except) continue;
    if (tasks_[i].priority == priority) return true;
  }
  return false;
}

void IncrementalRta::recompute(TaskIndex i) {
  response_[static_cast<std::size_t>(i)] =
      response_time_from_seed(tasks_, i, tasks_[i].wcet);
  ++stats_.tasks_reanalyzed;
}

void IncrementalRta::resume(TaskIndex i) {
  auto& r = response_[static_cast<std::size_t>(i)];
  if (!r.has_value()) {
    // Diverged under strictly smaller interference; the new least fixed
    // point can only be larger, so the task stays divergent — no
    // iteration needed to reproduce the from-scratch nullopt.
    ++stats_.tasks_skipped;
    return;
  }
  r = response_time_from_seed(tasks_, i, *r);
  ++stats_.tasks_reanalyzed;
  ++stats_.tasks_seeded;
}

TaskIndex IncrementalRta::add_task(Task task) {
  task.validate();
  LPFPS_CHECK_MSG(!priority_taken(task.priority, kNoTask),
                  "admission add: duplicate priority");
  ++stats_.mutations;
  const Priority added = task.priority;
  const TaskIndex index = tasks_.add(std::move(task));
  response_.emplace_back();

  if (mode_ == Mode::kFromScratch) {
    reanalyze_all();
    return index;
  }
  recompute(index);  // The newcomer has no prior state.
  for (TaskIndex i = 0; i < index; ++i) {
    if (tasks_[i].priority > added) {
      resume(i);  // Gained interference: old R seeds the new iteration.
    } else {
      ++stats_.tasks_kept;  // Higher priority: recurrence unchanged.
    }
  }
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
  const Priority removed = tasks_[index].priority;
  tasks_.remove(index);
  response_.erase(response_.begin() + index);

  if (mode_ == Mode::kFromScratch) {
    reanalyze_all();
    return;
  }
  for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks_.size()); ++i) {
    if (tasks_[i].priority > removed) {
      recompute(i);  // Lost interference: old R overshoots, start fresh.
    } else {
      ++stats_.tasks_kept;
    }
  }
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
  tasks_.replace(index, std::move(task));

  if (mode_ == Mode::kFromScratch) {
    reanalyze_all();
    return;
  }
  // The mutated task itself: its own recurrence may have shrunk (WCET
  // down) or its deadline bound moved, so always start fresh — one
  // task's scratch iteration is cheap.
  recompute(index);
  if (interference_same) {
    stats_.tasks_kept += static_cast<std::int64_t>(tasks_.size()) - 1;
    return;  // bcet/phase/deadline/name changes are invisible to others.
  }
  const Priority threshold =
      std::min(old.priority, tasks_[index].priority);
  for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks_.size()); ++i) {
    if (i == index) continue;
    if (tasks_[i].priority <= threshold) {
      ++stats_.tasks_kept;  // The mutated task never interfered here.
      continue;
    }
    if (interference_grew_only) {
      resume(i);
    } else {
      recompute(i);
    }
  }
}

void IncrementalRta::reanalyze_all() {
  for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks_.size()); ++i) {
    recompute(i);
  }
}

void IncrementalRta::undo_add(
    std::vector<std::optional<Time>> response_times) {
  LPFPS_CHECK(!tasks_.empty());
  tasks_.remove(static_cast<TaskIndex>(tasks_.size()) - 1);
  LPFPS_CHECK(response_times.size() == tasks_.size());
  response_ = std::move(response_times);
}

void IncrementalRta::undo_mutate(
    TaskIndex index, Task previous,
    std::vector<std::optional<Time>> response_times) {
  tasks_.replace(index, std::move(previous));
  LPFPS_CHECK(response_times.size() == tasks_.size());
  response_ = std::move(response_times);
}

}  // namespace lpfps::sched
