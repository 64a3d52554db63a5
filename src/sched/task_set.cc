#include "sched/task_set.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "common/math_utils.h"

namespace lpfps::sched {

TaskSet::TaskSet(std::vector<Task> tasks) : tasks_(std::move(tasks)) {
  for (const Task& t : tasks_) t.validate();
}

TaskIndex TaskSet::add(Task task) {
  task.validate();
  tasks_.push_back(std::move(task));
  return static_cast<TaskIndex>(tasks_.size() - 1);
}

void TaskSet::remove(TaskIndex index) {
  LPFPS_CHECK(index >= 0 && static_cast<std::size_t>(index) < tasks_.size());
  tasks_.erase(tasks_.begin() + index);
}

void TaskSet::replace(TaskIndex index, Task task) {
  LPFPS_CHECK(index >= 0 && static_cast<std::size_t>(index) < tasks_.size());
  task.validate();
  tasks_[static_cast<std::size_t>(index)] = std::move(task);
}

Task& TaskSet::at(TaskIndex index) {
  LPFPS_CHECK(index >= 0 && static_cast<std::size_t>(index) < tasks_.size());
  return tasks_[static_cast<std::size_t>(index)];
}

double TaskSet::utilization() const {
  double u = 0.0;
  for (const Task& t : tasks_) u += t.utilization();
  return u;
}

std::int64_t TaskSet::hyperperiod() const {
  LPFPS_CHECK(!tasks_.empty());
  std::vector<std::int64_t> periods;
  periods.reserve(tasks_.size());
  for (const Task& t : tasks_) periods.push_back(t.period);
  return lcm64(periods);
}

Work TaskSet::min_wcet() const {
  LPFPS_CHECK(!tasks_.empty());
  Work w = tasks_.front().wcet;
  for (const Task& t : tasks_) w = std::min(w, t.wcet);
  return w;
}

Work TaskSet::max_wcet() const {
  LPFPS_CHECK(!tasks_.empty());
  Work w = tasks_.front().wcet;
  for (const Task& t : tasks_) w = std::max(w, t.wcet);
  return w;
}

std::vector<std::string> TaskSet::names() const {
  std::vector<std::string> out;
  out.reserve(tasks_.size());
  for (const Task& t : tasks_) out.push_back(t.name);
  return out;
}

bool TaskSet::implicit_deadlines() const {
  return std::all_of(tasks_.begin(), tasks_.end(),
                     [](const Task& t) { return t.deadline == t.period; });
}

bool TaskSet::priorities_are_unique() const {
  std::set<Priority> seen;
  for (const Task& t : tasks_) {
    if (!seen.insert(t.priority).second) return false;
  }
  return true;
}

bool TaskSet::has_weakly_hard() const {
  return std::any_of(tasks_.begin(), tasks_.end(),
                     [](const Task& t) { return t.weakly_hard(); });
}

void TaskSet::validate() const {
  for (const Task& t : tasks_) t.validate();
  LPFPS_CHECK_MSG(priorities_are_unique(), "duplicate priorities");
}

TaskSet TaskSet::with_bcet_ratio(double ratio) const {
  LPFPS_CHECK(ratio > 0.0 && ratio <= 1.0);
  TaskSet copy = *this;
  for (Task& t : copy.tasks_) t.bcet = t.wcet * ratio;
  return copy;
}

}  // namespace lpfps::sched
