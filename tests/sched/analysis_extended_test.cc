#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/static_slowdown.h"
#include "sched/analysis.h"
#include "sched/priority.h"
#include "workloads/example.h"
#include "workloads/registry.h"

namespace lpfps::sched {
namespace {

TaskSet table1() { return lpfps::workloads::example_table1(); }

// A higher-priority task with a WCET below kTimeEpsilon: each of its
// jobs moves the response by less than the tolerance, so only an exact
// fixed-point stop counts every one of them.
TaskSet sub_epsilon_pair(std::int64_t fast_period, double fast_wcet,
                         double slow_wcet) {
  TaskSet tasks;
  tasks.add(make_task("fast", fast_period, fast_wcet));
  tasks.add(make_task("slow", 100, slow_wcet));
  assign_rate_monotonic(tasks);
  return tasks;
}

TEST(ExtendedRta, ZeroExtrasMatchesPlainRta) {
  for (const TaskSet& tasks :
       {table1(), sub_epsilon_pair(3, 4e-7, 3.0000008),
        sub_epsilon_pair(10, 5e-7, 3.0)}) {
    const AnalysisExtras extras = AnalysisExtras::zero(tasks);
    for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks.size()); ++i) {
      const auto plain = response_time(tasks, i);
      const auto extended = response_time_extended(tasks, i, extras);
      ASSERT_TRUE(plain.has_value());
      ASSERT_TRUE(extended.has_value());
      EXPECT_EQ(*plain, *extended)
          << tasks[i].name << std::setprecision(17) << " " << *plain;
    }
  }
}

TEST(ExtendedRta, BlockingAddsDirectly) {
  // tau1 blocked for 5 us by a lower-priority critical section:
  // R1 = 10 + 5.
  const TaskSet tasks = table1();
  AnalysisExtras extras = AnalysisExtras::zero(tasks);
  extras.blocking[0] = 5.0;
  const auto r = response_time_extended(tasks, 0, extras);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 15.0);
}

TEST(ExtendedRta, OwnJitterAddsToResponse) {
  const TaskSet tasks = table1();
  AnalysisExtras extras = AnalysisExtras::zero(tasks);
  extras.jitter[0] = 4.0;
  const auto r = response_time_extended(tasks, 0, extras);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 14.0);  // w = 10, R = w + J.
}

TEST(ExtendedRta, HigherPriorityJitterAddsInterference) {
  // tau2 sees tau1 with jitter 25: within w=30, ceil((30+25)/50) = 2
  // tau1 jobs instead of 1: R2 = 20 + 2*10 = 40.
  const TaskSet tasks = table1();
  AnalysisExtras extras = AnalysisExtras::zero(tasks);
  extras.jitter[0] = 25.0;
  const auto r = response_time_extended(tasks, 1, extras);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 40.0);
}

TEST(ExtendedRta, BlockingCanBreakTightSets) {
  // tau3 has zero slack in Table 1; any blocking on it diverges.
  const TaskSet tasks = table1();
  AnalysisExtras extras = AnalysisExtras::zero(tasks);
  extras.blocking[2] = 1.0;
  EXPECT_FALSE(response_time_extended(tasks, 2, extras).has_value());
  EXPECT_FALSE(is_schedulable_extended(tasks, extras));
}

TEST(ExtendedRta, MismatchedExtrasRejected) {
  const TaskSet tasks = table1();
  AnalysisExtras extras;  // Wrong sizes.
  EXPECT_THROW(response_time_extended(tasks, 0, extras), std::logic_error);
  extras = AnalysisExtras::zero(tasks);
  extras.jitter[1] = -1.0;
  EXPECT_THROW(response_time_extended(tasks, 0, extras), std::logic_error);
}

TEST(CriticalScaling, Table1JustMeetsSchedulability) {
  // The paper's §2.3 claim, quantified: the example set tolerates no
  // WCET growth (alpha ~= 1.0).
  const double alpha = critical_scaling_factor(table1());
  EXPECT_NEAR(alpha, 1.0, 1e-4);
}

TEST(CriticalScaling, HarmonicSetScalesToCapacity) {
  TaskSet tasks;
  tasks.add(make_task("a", 100, 25.0));
  tasks.add(make_task("b", 200, 50.0));  // U = 0.5, harmonic.
  assign_rate_monotonic(tasks);
  EXPECT_NEAR(critical_scaling_factor(tasks), 2.0, 1e-4);
}

TEST(CriticalScaling, UnschedulableSetIsBelowOne) {
  TaskSet tasks;
  tasks.add(make_task("hog", 10, 8.0));
  tasks.add(make_task("victim", 20, 10.0));
  assign_rate_monotonic(tasks);
  const double alpha = critical_scaling_factor(tasks);
  EXPECT_LT(alpha, 1.0);
  EXPECT_GT(alpha, 0.0);
}

TEST(CriticalScaling, AgreesWithMinStaticRatioReciprocal) {
  // Running at constant ratio r is the same as scaling every WCET by
  // 1/r, so on a continuous frequency table the minimal static ratio
  // must equal 1/alpha.
  for (const auto& w : lpfps::workloads::paper_workloads()) {
    const double alpha = critical_scaling_factor(w.tasks, 1e-7);
    ASSERT_GE(alpha, 1.0) << w.name;
    const auto ratio = lpfps::core::min_feasible_static_ratio(
        w.tasks, lpfps::power::FrequencyTable::continuous(1.0, 100.0));
    ASSERT_TRUE(ratio.has_value()) << w.name;
    EXPECT_NEAR(*ratio, 1.0 / alpha, 1e-4) << w.name;
  }
}

TEST(CriticalScaling, PaperWorkloadHeadroomOrdering) {
  // CNC (U = 0.445) has far more WCET headroom than Avionics (U = .85).
  const double cnc = critical_scaling_factor(
      lpfps::workloads::workload_by_name("CNC").tasks);
  const double avionics = critical_scaling_factor(
      lpfps::workloads::workload_by_name("Avionics").tasks);
  EXPECT_GT(cnc, avionics);
  EXPECT_GT(cnc, 1.8);
  EXPECT_LT(avionics, 1.3);
}

TEST(CriticalScaling, RejectsDeadlineBeyondPeriod) {
  // The RTA's D <= T precondition is checked once, at entry.
  TaskSet tasks;
  tasks.add(make_task("a", 100, 25.0));
  tasks.add(make_task("late", 50, 80, 10.0, 10.0));
  assign_rate_monotonic(tasks);
  EXPECT_THROW(critical_scaling_factor(tasks), std::logic_error);
}

TEST(ScaledWcets, FixedPointMatchesTheMaterialisedSetBitwise) {
  // A WCET view is the plain RTA on the set with those WCETs written
  // in: every response and whole-set verdict equals the copy's, to the
  // last bit.  A view with a WCET past its deadline is infeasible.
  for (const auto& w : lpfps::workloads::paper_workloads()) {
    const std::vector<Task>& tasks = w.tasks.tasks();
    for (const double alpha : {0.5, 0.9, 1.0, 1.05, 1.2, 1.6, 2.5}) {
      TaskSet copy = w.tasks;
      std::vector<double> scaled(tasks.size());
      bool fits = true;
      for (TaskIndex i = 0; i < static_cast<TaskIndex>(copy.size()); ++i) {
        Task& t = copy.at(i);
        t.wcet *= alpha;
        t.bcet = std::min(t.bcet * alpha, t.wcet);
        scaled[static_cast<std::size_t>(i)] = t.wcet;
        fits = fits && t.wcet <= static_cast<double>(t.deadline);
      }
      if (!fits) {
        EXPECT_FALSE(schedulable_with_wcets(tasks, scaled))
            << w.name << " alpha " << alpha;
        continue;
      }
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const std::optional<Time> view =
            response_fixed_point(tasks, scaled, i, 0.0);
        const std::optional<Time> materialised =
            response_time(copy, static_cast<TaskIndex>(i));
        ASSERT_EQ(view.has_value(), materialised.has_value())
            << w.name << " alpha " << alpha << " task " << i;
        if (view.has_value()) {
          EXPECT_EQ(*view, *materialised)
              << w.name << " alpha " << alpha << " task " << i;
        }
      }
      EXPECT_EQ(schedulable_with_wcets(tasks, scaled),
                is_schedulable_rta(copy))
          << w.name << " alpha " << alpha;
    }
  }
}

}  // namespace
}  // namespace lpfps::sched
