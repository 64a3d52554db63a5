// Weakly-hard schedulability analysis: the (m,k) interference bound,
// degraded-mode utilization, and the degraded RTA admission test
// (docs/WEAKLY_HARD.md).
#include "weakly_hard/analysis.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>

#include "sched/analysis.h"
#include "sched/priority.h"
#include "sched/task.h"

namespace lpfps::weakly_hard {
namespace {

TEST(MaxMetJobs, MatchesTheCyclicPatternBound) {
  // floor(n/k)*m + min(n mod k, m).
  EXPECT_EQ(max_met_jobs(0, 2, 3), 0);
  EXPECT_EQ(max_met_jobs(1, 2, 3), 1);
  EXPECT_EQ(max_met_jobs(2, 2, 3), 2);
  EXPECT_EQ(max_met_jobs(3, 2, 3), 2);
  EXPECT_EQ(max_met_jobs(7, 2, 3), 5);
  // Skip-over form (s-1, s): at most every s-th job is shed.
  EXPECT_EQ(max_met_jobs(4, 1, 2), 2);
  EXPECT_EQ(max_met_jobs(5, 1, 2), 3);
}

TEST(MaxMetJobs, HardTasksContributeEveryJob) {
  EXPECT_EQ(max_met_jobs(9, 0, 0), 9);
}

sched::TaskSet overloaded_pair() {
  // Nominal utilization 0.6 + 0.45 = 1.05 > 1: hard-infeasible.  The
  // high-priority task is (1,2)-firm, so in degraded mode it runs every
  // other job and the set fits.
  sched::TaskSet tasks;
  tasks.add(sched::with_mk_constraint(sched::make_task("firm", 10, 6.0),
                                      1, 2));
  tasks.add(sched::make_task("hard", 20, 9.0));
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

TEST(WeaklyHardUtilization, ScalesFirmTasksByMOverK) {
  const sched::TaskSet tasks = overloaded_pair();
  EXPECT_GT(tasks.utilization(), 1.0);
  // 0.6 * 1/2 + 0.45 = 0.75.
  EXPECT_NEAR(weakly_hard_utilization(tasks), 0.75, 1e-12);
}

sched::TaskSet hard_pair(std::int64_t period_a, double wcet_a,
                         std::int64_t period_b, double wcet_b) {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("a", period_a, wcet_a));
  tasks.add(sched::make_task("b", period_b, wcet_b));
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

TEST(DegradedResponseTime, ReducesToPlainRtaWithoutConstraints) {
  // The last two pairs have a higher-priority WCET below kTimeEpsilon,
  // where only an exact fixed-point stop counts every job.
  for (const sched::TaskSet& tasks :
       {hard_pair(10, 3.0, 20, 5.0), hard_pair(3, 4e-7, 100, 3.0000008),
        hard_pair(10, 5e-7, 100, 3.0)}) {
    for (TaskIndex i = 0; i < 2; ++i) {
      const auto degraded = degraded_response_time(tasks, i);
      const auto plain = sched::response_time(tasks, i);
      ASSERT_TRUE(degraded.has_value());
      ASSERT_TRUE(plain.has_value());
      EXPECT_EQ(*degraded, *plain)
          << tasks[i].name << std::setprecision(17) << " " << *plain;
    }
  }
}

TEST(DegradedResponseTime, CountsReleasesLikePlainRtaAtAPeriodMultiple) {
  // b's response lands on 6 = 6 T_a, computed as 1.2 + 6 * 0.8 =
  // 6.0000000000000009.  Counting ceil(r / T_a) releases there books a
  // seventh job of a, released at the instant b completes, and rejects
  // a set plain RTA accepts.  No task is weakly-hard, so both RTAs must
  // agree bitwise.
  sched::TaskSet tasks;
  tasks.add(sched::make_task("a", 1, 0.8));
  tasks.add(sched::make_task("b", 6, 1.2));
  sched::assign_rate_monotonic(tasks);
  ASSERT_TRUE(sched::is_schedulable_rta(tasks));
  for (TaskIndex i = 0; i < 2; ++i) {
    const auto degraded = degraded_response_time(tasks, i);
    const auto plain = sched::response_time(tasks, i);
    ASSERT_TRUE(plain.has_value()) << i;
    ASSERT_TRUE(degraded.has_value()) << i;
    EXPECT_EQ(*degraded, *plain) << i;
  }
  EXPECT_TRUE(is_schedulable_weakly_hard_rta(tasks));
}

TEST(DegradedResponseTime, CountsOnlyMandatoryHigherPriorityJobs) {
  const sched::TaskSet tasks = overloaded_pair();
  // Hard task: own 9 + one mandatory firm job per 2 periods.
  // R = 9 + 6 = 15 (ceil(15/10) = 2 releases, max_met(2,1,2) = 1).
  const auto response = degraded_response_time(tasks, 1);
  ASSERT_TRUE(response.has_value());
  EXPECT_NEAR(*response, 15.0, 1e-9);
}

TEST(IsSchedulableWeaklyHardRta, AdmitsOverloadedSetHardRtaRejects) {
  const sched::TaskSet tasks = overloaded_pair();
  EXPECT_FALSE(sched::is_schedulable_rta(tasks));
  EXPECT_TRUE(is_schedulable_weakly_hard_rta(tasks));
}

TEST(IsSchedulableWeaklyHardRta, RejectsWhenDegradedDemandStillTooHigh) {
  // Even shedding every permitted job leaves 0.9 + 0.45 ... the firm
  // task at (3,4) sheds only a quarter: 0.9 * 3/4 + 0.45 > 1.
  sched::TaskSet tasks;
  tasks.add(sched::with_mk_constraint(sched::make_task("firm", 10, 9.0),
                                      3, 4));
  tasks.add(sched::make_task("hard", 20, 9.0));
  sched::assign_rate_monotonic(tasks);
  EXPECT_FALSE(is_schedulable_weakly_hard_rta(tasks));
}

}  // namespace
}  // namespace lpfps::weakly_hard
