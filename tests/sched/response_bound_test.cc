// sched::clear_by_response_bound against the exact float iteration: a
// task the closed-form bound clears must be feasible under
// response_time_from_seed, and the four clearing conditions each have a
// case that only they decide.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/float_compare.h"
#include "common/random.h"
#include "sched/analysis.h"
#include "sched/task.h"
#include "sched/task_set.h"
#include "workloads/generator.h"

namespace lpfps::sched {
namespace {

Task task(std::int64_t period, std::int64_t deadline, double wcet,
          Priority priority) {
  Task t = make_task(std::to_string(priority), period, deadline, wcet, wcet);
  t.priority = priority;
  return t;
}

std::vector<std::size_t> priority_order(const std::vector<Task>& tasks) {
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].priority < tasks[b].priority;
  });
  return order;
}

std::vector<double> wcets(const std::vector<Task>& tasks) {
  std::vector<double> out;
  for (const Task& t : tasks) out.push_back(t.wcet);
  return out;
}

// The bound's verdict for every task, on the tasks' own WCETs.
std::vector<std::uint8_t> verdicts(const std::vector<Task>& tasks) {
  std::vector<std::uint8_t> cleared;
  clear_by_response_bound(tasks, wcets(tasks), priority_order(tasks),
                          cleared);
  return cleared;
}

// The exact oracle: the float iteration from C_i converges to a response
// no later than the deadline (the service's and IncrementalRta's test).
bool exactly_feasible(const std::vector<Task>& tasks, std::size_t i) {
  const TaskSet set(tasks);
  const auto r = response_time_from_seed(set, static_cast<TaskIndex>(i), 0.0);
  return r.has_value() &&
         !definitely_greater(*r, static_cast<double>(tasks[i].deadline));
}

TEST(ResponseBound, EveryClearedTaskIsExactlyFeasible) {
  // Shuffled priorities, total utilization up to 1.05, decimal WCETs
  // (not binary fractions, so every sum rounds), periods from 1 to 10^6
  // and constrained deadlines: the regimes where a rounding-unsafe
  // bound would clear an infeasible task.
  Rng rng(20090201);
  std::size_t tasks_seen = 0;
  std::size_t cleared_count = 0;
  for (int set_index = 0; set_index < 4000; ++set_index) {
    const int n = static_cast<int>(rng.uniform_int(2, 100));
    const double quantum = rng.uniform(0.0, 1.0) < 0.5 ? 0.1 : 0.01;
    const std::vector<double> utils =
        workloads::uunifast(n, rng.uniform(0.3, 1.05), rng);
    std::vector<Priority> priorities(static_cast<std::size_t>(n));
    std::iota(priorities.begin(), priorities.end(), 0);
    for (std::size_t k = priorities.size(); k > 1; --k) {
      std::swap(priorities[k - 1],
                priorities[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(k) - 1))]);
    }
    std::vector<Task> tasks;
    for (int k = 0; k < n; ++k) {
      const auto period = std::max<std::int64_t>(
          1, std::llround(std::exp(rng.uniform(0.0, std::log(1e6)))));
      const std::int64_t deadline =
          rng.uniform(0.0, 1.0) < 0.5 ? period
                                      : rng.uniform_int(1, period);
      const double steps = std::clamp(
          std::round(utils[static_cast<std::size_t>(k)] *
                     static_cast<double>(period) / quantum),
          1.0, std::floor(static_cast<double>(deadline) / quantum));
      tasks.push_back(task(period, deadline, steps * quantum,
                           priorities[static_cast<std::size_t>(k)]));
    }
    const std::vector<std::uint8_t> cleared = verdicts(tasks);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      ++tasks_seen;
      if (cleared[i] == 0) continue;
      ++cleared_count;
      EXPECT_TRUE(exactly_feasible(tasks, i))
          << "set " << set_index << " task " << i << " cleared but infeasible";
    }
  }
  // The corpus must exercise the bound, not only its refusals (it clears
  // about 18% of its tasks: shuffled priorities and short constrained
  // deadlines leave many infeasible).
  EXPECT_GT(cleared_count * 8, tasks_seen)
      << cleared_count << "/" << tasks_seen;
}

TEST(ResponseBound, NearTightFamilyNeverClearsAtOrBelowTheBound) {
  // hp {T = 1000, C = 500} over C_i = 500 + y: the lower task fills the
  // first period's gap and ends y past the second hp job, so R* = 1500 +
  // y while R_ub = C_i / (1 - U) + C = 1500 + 2y.  With y = 0.5 (every
  // value exact in binary): R* = 1500.5, R_ub = 1501.
  for (const std::int64_t deadline : {1500, 1501, 1502}) {
    const std::vector<Task> tasks = {task(1000, 1000, 500.0, 1),
                                     task(2000, deadline, 500.5, 2)};
    const std::vector<std::uint8_t> cleared = verdicts(tasks);
    EXPECT_EQ(cleared[0], 1) << "R_ub = C = 500 <= 1000";
    EXPECT_EQ(exactly_feasible(tasks, 1), deadline >= 1501);
    // 1500: infeasible, and R_ub is within 0.07% of it.  1501: feasible,
    // but R_ub equals D, so the rounding margin leaves it to the solve.
    EXPECT_EQ(cleared[1], deadline == 1502 ? 1 : 0) << "D = " << deadline;
  }
}

TEST(ResponseBound, ReadsTheWcetViewNotTheTasks) {
  // The near-tight family at D = 1500 with the tasks' own WCETs halved:
  // the verdict follows the view the caller passes.
  const std::vector<Task> tasks = {task(1000, 1000, 250.0, 1),
                                   task(2000, 1500, 250.25, 2)};
  const std::vector<std::size_t> order = priority_order(tasks);
  std::vector<std::uint8_t> cleared;
  EXPECT_EQ(clear_by_response_bound(tasks, wcets(tasks), order, cleared), 2u);
  EXPECT_EQ(clear_by_response_bound(tasks, {500.0, 500.5}, order, cleared),
            1u);
  EXPECT_EQ(cleared[1], 0);
}

TEST(ResponseBound, HigherPriorityUtilizationNeedsRoomForRounding) {
  // Condition 1: sum_hp U = 0.99951 > 1 - 2^-10 leaves the lower task
  // to the solve even with a deadline far past its response (2048).
  const std::vector<Task> tasks = {task(1024, 1024, 1023.5, 1),
                                   task(10000000, 10000000, 1.0, 2)};
  EXPECT_TRUE(exactly_feasible(tasks, 1));
  EXPECT_EQ(verdicts(tasks)[1], 0);
  // Below the margin (U = 0.99805) the same deadline clears.
  const std::vector<Task> roomier = {task(1024, 1024, 1022.0, 1),
                                     task(10000000, 10000000, 1.0, 2)};
  EXPECT_EQ(verdicts(roomier)[1], 1);
}

TEST(ResponseBound, DeadlinesTooLongForTheEpsilonAreNotCleared) {
  // Condition 3: with n = 2, D (n + 1) 2^-53 <= 1e-6 needs D below about
  // 3.0e9.  Both sets are lightly loaded and exactly feasible; only the
  // larger deadline fails the condition.
  const std::vector<Task> small = {task(2000000000, 2000000000, 5e8, 1),
                                   task(2000000000, 2000000000, 5e8, 2)};
  const std::vector<Task> large = {task(4000000000, 4000000000, 1e9, 1),
                                   task(4000000000, 4000000000, 1e9, 2)};
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(exactly_feasible(small, i));
    EXPECT_TRUE(exactly_feasible(large, i));
    EXPECT_EQ(verdicts(small)[i], 1);
    EXPECT_EQ(verdicts(large)[i], 0);
  }
}

TEST(ResponseBound, IterationCapGuardBoundsTheJobCount) {
  // Condition 4: R_ub sum_hp 1/T_j <= kRtaIterationCap / 2.  Under a
  // period-1 task, R_ub = 2 C + 0.5 jobs of it: 40000.5 passes, 60000.5
  // does not, though the solve itself converges in a few dozen steps.
  const std::vector<Task> passes = {task(1, 1, 0.5, 1),
                                    task(100000, 100000, 20000.0, 2)};
  const std::vector<Task> guarded = {task(1, 1, 0.5, 1),
                                     task(100000, 100000, 30000.0, 2)};
  EXPECT_TRUE(exactly_feasible(passes, 1));
  EXPECT_TRUE(exactly_feasible(guarded, 1));
  EXPECT_EQ(verdicts(passes)[1], 1);
  EXPECT_EQ(verdicts(guarded)[1], 0);
}

TEST(ResponseBound, EmptySetClearsNothing) {
  std::vector<std::uint8_t> cleared = {1, 1};
  EXPECT_EQ(clear_by_response_bound({}, {}, {}, cleared), 0u);
  EXPECT_TRUE(cleared.empty());
}

}  // namespace
}  // namespace lpfps::sched
