#include "sched/task.h"

#include <stdexcept>
#include <string>

#include "common/check.h"
#include "common/math_utils.h"

namespace lpfps::sched {

double Task::utilization() const {
  LPFPS_CHECK(period > 0);
  return wcet / static_cast<double>(period);
}

namespace {

/// Throws std::logic_error "task '<name>': <rule>, got <value>".
[[noreturn]] void reject(const Task& t, const std::string& rule,
                         const std::string& value) {
  throw std::logic_error("task '" + t.name + "': " + rule + ", got " + value);
}

}  // namespace

void Task::validate() const {
  if (name.empty()) throw std::logic_error("task must be named");
  if (period <= 0) {
    reject(*this, "period must be positive", std::to_string(period));
  }
  if (deadline <= 0) {
    reject(*this, "deadline must be positive", std::to_string(deadline));
  }
  if (!(wcet > 0.0)) {
    reject(*this, "wcet must be positive", round_trip_string(wcet));
  }
  if (!(bcet > 0.0 && bcet <= wcet)) {
    reject(*this,
           "bcet must be positive and at most wcet (" +
               round_trip_string(wcet) + ")",
           round_trip_string(bcet));
  }
  if (!(wcet <= static_cast<double>(deadline))) {
    reject(*this,
           "wcet must be at most deadline (" + std::to_string(deadline) + ")",
           round_trip_string(wcet));
  }
  if (phase < 0) {
    reject(*this, "phase must be non-negative", std::to_string(phase));
  }
  // Built only for a message: validate runs on every analysis entry.
  const auto mk = [this] {
    return std::string("(") + std::to_string(mk_m) + "," +
           std::to_string(mk_k) + ")";
  };
  if (mk_k == 0 ? mk_m != 0 : !(mk_m >= 1 && mk_m <= mk_k && mk_k <= 64)) {
    reject(*this, "(mk_m,mk_k) must be (0,0) or satisfy 1 <= m <= k <= 64",
           mk());
  }
  if (skip_s != 0 && !(skip_s >= 2 && skip_s <= 64)) {
    reject(*this, "skip_s must be 0 or in [2, 64]", std::to_string(skip_s));
  }
  // One constraint form per task: combining them would make the
  // degraded-mode interference pattern (weakly_hard::max_met_jobs)
  // ill-defined.
  if (mk_k != 0 && skip_s != 0) {
    reject(*this, "a task takes (mk_m,mk_k) or skip_s, not both",
           mk() + " and " + std::to_string(skip_s));
  }
  // D <= T keeps per-task job outcomes settled at the next release.
  if (weakly_hard() && deadline > period) {
    reject(*this,
           "a weakly-hard deadline must be at most its period (" +
               std::to_string(period) + ")",
           std::to_string(deadline));
  }
}

Task make_task(std::string name, std::int64_t period, Work wcet) {
  return make_task(std::move(name), period, period, wcet, wcet, 0);
}

Task make_task(std::string name, std::int64_t period, std::int64_t deadline,
               Work wcet, Work bcet, std::int64_t phase) {
  Task task;
  task.name = std::move(name);
  task.period = period;
  task.deadline = deadline;
  task.wcet = wcet;
  task.bcet = bcet;
  task.phase = phase;
  task.validate();
  return task;
}

Task with_mk_constraint(Task task, int m, int k) {
  task.mk_m = m;
  task.mk_k = k;
  task.validate();
  return task;
}

Task with_skip_parameter(Task task, int s) {
  task.skip_s = s;
  task.validate();
  return task;
}

}  // namespace lpfps::sched
