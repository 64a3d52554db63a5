#include "sched/analysis.h"

#include <gtest/gtest.h>

#include <cmath>

#include "sched/priority.h"
#include "workloads/avionics.h"
#include "workloads/cnc.h"
#include "workloads/example.h"
#include "workloads/flight.h"
#include "workloads/ins.h"

namespace lpfps::sched {
namespace {

TEST(LiuLayland, KnownBounds) {
  EXPECT_DOUBLE_EQ(liu_layland_bound(1), 1.0);
  EXPECT_NEAR(liu_layland_bound(2), 2 * (std::sqrt(2.0) - 1), 1e-12);
  EXPECT_NEAR(liu_layland_bound(3), 0.7798, 1e-4);
  // n -> infinity: ln 2.
  EXPECT_NEAR(liu_layland_bound(100000), std::log(2.0), 1e-4);
}

TEST(LiuLayland, PaperExampleExceedsBoundButIsSchedulable) {
  // Table 1's utilization 0.85 exceeds the 3-task bound (0.7798); the
  // LL test is sufficient, not necessary — RTA must still accept it.
  const TaskSet tasks = lpfps::workloads::example_table1();
  EXPECT_FALSE(passes_utilization_bound(tasks));
  EXPECT_TRUE(is_schedulable_rta(tasks));
}

TEST(ResponseTime, HighestPriorityTaskIsItsWcet) {
  const TaskSet tasks = lpfps::workloads::example_table1();
  const auto r = response_time(tasks, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 10.0);
}

TEST(ResponseTime, PaperExampleExactValues) {
  const TaskSet tasks = lpfps::workloads::example_table1();
  // tau2: C2 + ceil(R/50)*C1: R = 20+10 = 30.
  const auto r2 = response_time(tasks, 1);
  ASSERT_TRUE(r2.has_value());
  EXPECT_DOUBLE_EQ(*r2, 30.0);
  // tau3 finishes exactly at its deadline horizon minus nothing: the
  // paper says the set "just meets" schedulability.  R3 = 40 + 2*10 +
  // 20 = 80... iterating: R=40 -> 40+10+20=70 -> 70+2*10+20 = 80 -> 80.
  const auto r3 = response_time(tasks, 2);
  ASSERT_TRUE(r3.has_value());
  EXPECT_DOUBLE_EQ(*r3, 80.0);
}

TEST(ResponseTime, JustMeetsSchedulability) {
  // Increasing tau2's WCET slightly makes tau3 miss (paper §2.3).
  TaskSet tasks = lpfps::workloads::example_table1();
  tasks.at(1).wcet += 1.0;
  tasks.at(1).bcet = tasks.at(1).wcet;
  EXPECT_FALSE(is_schedulable_rta(tasks));
}

TEST(ResponseTime, DivergentWhenOverloaded) {
  TaskSet tasks;
  tasks.add(make_task("hog", 10, 8.0));
  tasks.add(make_task("victim", 20, 10.0));
  assign_rate_monotonic(tasks);
  EXPECT_FALSE(response_time(tasks, 1).has_value());
  EXPECT_FALSE(is_schedulable_rta(tasks));
}

TEST(ResponseTime, CountsEverySubEpsilonJob) {
  // fast's WCET is below kTimeEpsilon, so each of its jobs moves slow's
  // iterate by less than the tolerance.  The exact worst case is
  // 3.0000008 + 2 * 4e-7 (ceil(3.0000016 / 3) = 2 fast jobs); a stop
  // within kTimeEpsilon of the previous iterate returns after one job.
  TaskSet tasks;
  tasks.add(make_task("fast", 3, 4e-7));
  tasks.add(make_task("slow", 100, 3.0000008));
  assign_rate_monotonic(tasks);
  const double exact = 3.0000008 + 2.0 * 4e-7;
  EXPECT_DOUBLE_EQ(exact, 3.0000016);
  const auto r = response_time(tasks, 1);
  const auto seeded = response_time_from_seed(tasks, 1, 0.0);
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(seeded.has_value());
  EXPECT_EQ(*r, exact);
  EXPECT_EQ(*seeded, exact);
}

TEST(ResponseTimes, AllTasksReported) {
  const TaskSet tasks = lpfps::workloads::example_table1();
  const auto all = response_times(tasks);
  ASSERT_EQ(all.size(), 3u);
  for (const auto& r : all) EXPECT_TRUE(r.has_value());
}

TEST(Edf, UtilizationTest) {
  const TaskSet tasks = lpfps::workloads::example_table1();
  EXPECT_TRUE(is_schedulable_edf(tasks));
}

TEST(PaperWorkloads, AllSchedulableUnderRm) {
  EXPECT_TRUE(is_schedulable_rta(lpfps::workloads::example_table1()));
  EXPECT_TRUE(is_schedulable_rta(lpfps::workloads::avionics()));
  EXPECT_TRUE(is_schedulable_rta(lpfps::workloads::ins()));
  EXPECT_TRUE(is_schedulable_rta(lpfps::workloads::flight_control()));
  EXPECT_TRUE(is_schedulable_rta(lpfps::workloads::cnc()));
}

TEST(StaticIdle, PaperExample) {
  // H = 400, U = 0.85 -> idle 60 us per hyperperiod.
  const TaskSet tasks = lpfps::workloads::example_table1();
  EXPECT_NEAR(static_idle_time_per_hyperperiod(tasks), 60.0, 1e-9);
}

TEST(StaticIdle, ZeroForFullUtilization) {
  TaskSet tasks;
  tasks.add(make_task("a", 10, 5.0));
  tasks.add(make_task("b", 20, 10.0));
  assign_rate_monotonic(tasks);
  EXPECT_NEAR(static_idle_time_per_hyperperiod(tasks), 0.0, 1e-9);
}

}  // namespace
}  // namespace lpfps::sched
