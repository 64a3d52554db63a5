// WindowHistory bitmask mechanics and SkipGovernor decision/settlement
// accounting (docs/WEAKLY_HARD.md).
#include "weakly_hard/window.h"

#include <gtest/gtest.h>

#include "sched/priority.h"
#include "sched/task.h"
#include "weakly_hard/governor.h"

namespace lpfps::weakly_hard {
namespace {

TEST(WindowHistory, PrehistoryCountsAsMetAndUnskipped) {
  const WindowHistory history;
  EXPECT_EQ(history.met_in_last(1), 1);
  EXPECT_EQ(history.met_in_last(64), 64);
  EXPECT_FALSE(history.skip_in_last(64));
  EXPECT_EQ(history.settled, 0);
}

TEST(WindowHistory, RecordShiftsMostRecentIntoBitZero) {
  WindowHistory history;
  history.record(false, false);  // A miss.
  EXPECT_EQ(history.met_in_last(1), 0);
  EXPECT_EQ(history.met_in_last(2), 1);  // Prehistory behind it.
  history.record(true, false);
  EXPECT_EQ(history.met_in_last(1), 1);
  EXPECT_EQ(history.met_in_last(2), 1);
  EXPECT_EQ(history.settled, 2);
}

TEST(WindowHistory, SkipInLastSeesOnlySkips) {
  WindowHistory history;
  history.record(false, false);  // Miss, not a skip.
  EXPECT_FALSE(history.skip_in_last(1));
  history.record(false, true);  // Policy skip.
  EXPECT_TRUE(history.skip_in_last(1));
  history.record(true, false);
  EXPECT_FALSE(history.skip_in_last(1));
  EXPECT_TRUE(history.skip_in_last(2));
  EXPECT_FALSE(history.skip_in_last(0));  // Vacuous.
}

TEST(WindowHistory, MaySkipMkCountsPredecessorWindow) {
  // (m,k) = (1,3): the window ending at the skipped job needs >= 1 met
  // among its k-1 = 2 predecessors.
  WindowHistory history;
  EXPECT_TRUE(history.may_skip(1, 3, 0));  // Prehistory all met.
  history.record(false, true);             // Skip #1.
  EXPECT_TRUE(history.may_skip(1, 3, 0));  // [prehistory met, skip].
  history.record(false, true);             // Skip #2.
  EXPECT_FALSE(history.may_skip(1, 3, 0));  // Both predecessors failed.
  history.record(true, false);             // A met job restores budget.
  EXPECT_TRUE(history.may_skip(1, 3, 0));
}

TEST(WindowHistory, MaySkipTightMkNeverPermits) {
  // (m,k) = (k,k) tolerates no failure at all.
  const WindowHistory history;
  EXPECT_FALSE(history.may_skip(3, 3, 0));
}

TEST(WindowHistory, MaySkipSkipOverForbidsAdjacentSkips) {
  // skip_s = 2: no skip among the s-1 = 1 predecessor.
  WindowHistory history;
  EXPECT_TRUE(history.may_skip(1, 2, 2));
  history.record(false, true);
  EXPECT_FALSE(history.may_skip(1, 2, 2));  // Previous job was a skip.
  history.record(false, false);             // A *miss* is not a skip...
  EXPECT_TRUE(history.may_skip(1, 2, 2));   // ...so skipping is allowed.
}

TEST(WindowHistory, WindowSlack) {
  WindowHistory history;
  EXPECT_EQ(history.window_slack(2, 4), 2);  // All-met: k - m.
  history.record(false, false);
  history.record(false, true);
  EXPECT_EQ(history.window_slack(2, 4), 0);
  history.record(false, false);
  EXPECT_EQ(history.window_slack(2, 4), -1);  // Violated.
}

sched::TaskSet governor_tasks() {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("hard", 100, 10.0));
  tasks.add(sched::with_mk_constraint(sched::make_task("firm", 200, 20.0),
                                      1, 2));
  tasks.add(sched::with_skip_parameter(sched::make_task("skippy", 400, 30.0),
                                       2));
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

TEST(SkipGovernor, SkippabilityFollowsConstraints) {
  SkipGovernor governor;
  governor.bind(governor_tasks(), SkipPolicy::kAlways, false);
  EXPECT_FALSE(governor.skippable(0));
  EXPECT_TRUE(governor.skippable(1));
  EXPECT_TRUE(governor.skippable(2));
}

TEST(SkipGovernor, ShouldSkipPolicyMatrix) {
  // governor_tasks() is hard-feasible (U = 0.275), so kOverload starts
  // with both latches down.
  SkipGovernor governor;
  // kNever: inert even with the window wide open and the latch up.
  governor.bind(governor_tasks(), SkipPolicy::kNever, true);
  governor.raise_overload();
  EXPECT_FALSE(governor.armed());
  EXPECT_FALSE(governor.skip_dvs());
  EXPECT_FALSE(governor.should_skip(1));
  // kOverload: gated on the latch.
  governor.bind(governor_tasks(), SkipPolicy::kOverload, false);
  EXPECT_TRUE(governor.probing());
  EXPECT_FALSE(governor.should_skip(1));
  governor.raise_overload();
  EXPECT_FALSE(governor.probing());
  EXPECT_TRUE(governor.should_skip(1));
  governor.clear_overload();
  EXPECT_FALSE(governor.should_skip(1));
  // kAlways: whenever the window permits, and no probe.
  governor.bind(governor_tasks(), SkipPolicy::kAlways, true);
  EXPECT_TRUE(governor.skip_dvs());
  EXPECT_FALSE(governor.probing());
  EXPECT_TRUE(governor.should_skip(1));
  // Hard tasks are never skipped under any policy.
  governor.raise_overload();
  EXPECT_FALSE(governor.should_skip(0));
}

TEST(SkipGovernor, BindDisarmsASetWithoutWeaklyHardTasks) {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("hard", 100, 10.0));
  SkipGovernor governor;
  governor.bind(tasks, SkipPolicy::kAlways, true);
  EXPECT_FALSE(governor.armed());
  EXPECT_FALSE(governor.skip_dvs());
  EXPECT_FALSE(governor.should_skip(0));
  EXPECT_TRUE(governor.worst_window_slack().empty());
}

TEST(SkipGovernor, StructuralLatchFollowsTheHardRta) {
  // Utilization 1.05: the hard RTA fails, so kOverload skips from the
  // start and clearing the dynamic latch does not lower it.
  sched::TaskSet tasks;
  tasks.add(sched::with_mk_constraint(sched::make_task("firm", 100, 60.0),
                                      1, 2));
  tasks.add(sched::make_task("hard", 200, 90.0));
  sched::assign_rate_monotonic(tasks);
  SkipGovernor governor;
  governor.bind(tasks, SkipPolicy::kOverload, false);
  EXPECT_TRUE(governor.overloaded());
  EXPECT_FALSE(governor.probing());
  governor.clear_overload();
  EXPECT_TRUE(governor.should_skip(0));
}

TEST(SkipGovernor, SettleCountsSkipsViolationsAndSlack) {
  SkipGovernor governor;
  governor.bind(governor_tasks(), SkipPolicy::kAlways, false);
  // Task 1 is (1,2)-firm.  met, skip, skip: the second skip closes a
  // window with zero met jobs.
  governor.settle(1, true, false);
  governor.settle(1, false, true);
  EXPECT_EQ(governor.jobs_skipped_weakly(), 1);
  EXPECT_EQ(governor.mk_violations(), 0);
  governor.settle(1, false, true);
  EXPECT_EQ(governor.jobs_skipped_weakly(), 2);
  EXPECT_EQ(governor.mk_violations(), 1);
  EXPECT_EQ(governor.worst_window_slack()[1], -1);
  // Hard task settlements are no-ops.
  governor.settle(0, false, false);
  EXPECT_EQ(governor.mk_violations(), 1);
  EXPECT_EQ(governor.worst_window_slack()[0], SkipGovernor::kHardTaskSlack);
}

TEST(SkipGovernor, ResetClearsHistoryAndCounters) {
  SkipGovernor governor;
  governor.bind(governor_tasks(), SkipPolicy::kAlways, false);
  governor.settle(1, false, true);
  governor.settle(1, false, true);
  ASSERT_GT(governor.mk_violations(), 0);
  governor.bind(governor_tasks(), SkipPolicy::kAlways, false);
  EXPECT_EQ(governor.jobs_skipped_weakly(), 0);
  EXPECT_EQ(governor.mk_violations(), 0);
  EXPECT_TRUE(governor.skip_permitted(1));  // Prehistory restored.
}

}  // namespace
}  // namespace lpfps::weakly_hard
