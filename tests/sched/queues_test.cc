#include "sched/queues.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace lpfps::sched {
namespace {

TEST(RunQueue, OrderedByPriority) {
  RunQueue queue;
  queue.insert({2, 5});
  queue.insert({0, 1});
  queue.insert({1, 3});
  EXPECT_EQ(queue.head().task, 0);
  EXPECT_EQ(queue.pop_head().task, 0);
  EXPECT_EQ(queue.pop_head().task, 1);
  EXPECT_EQ(queue.pop_head().task, 2);
  EXPECT_TRUE(queue.empty());
}

TEST(RunQueue, ReserveKeepsSemanticsAndCapacity) {
  RunQueue queue;
  queue.reserve(8);
  for (TaskIndex i = 0; i < 8; ++i) queue.insert({i, 8 - i});
  EXPECT_EQ(queue.size(), 8u);
  EXPECT_EQ(queue.head().task, 7);  // Lowest priority value wins.
}

TEST(DelayQueue, ReserveKeepsSemantics) {
  DelayQueue queue;
  queue.reserve(4);
  queue.insert({0, 30.0});
  queue.insert({1, 10.0});
  EXPECT_EQ(queue.head().task, 1);
  ASSERT_TRUE(queue.next_release().has_value());
  EXPECT_DOUBLE_EQ(*queue.next_release(), 10.0);
}

TEST(RunQueue, HeadOnEmptyThrows) {
  RunQueue queue;
  EXPECT_THROW(queue.head(), std::logic_error);
  EXPECT_THROW(queue.pop_head(), std::logic_error);
}

TEST(RunQueue, EntriesExposedInOrder) {
  RunQueue queue;
  queue.insert({5, 9});
  queue.insert({3, 2});
  ASSERT_EQ(queue.entries().size(), 2u);
  EXPECT_EQ(queue.entries()[0].task, 3);
  EXPECT_EQ(queue.entries()[1].task, 5);
}

TEST(RunQueue, RejectsInvalidTask) {
  RunQueue queue;
  EXPECT_THROW(queue.insert({kNoTask, 0}), std::logic_error);
}

TEST(DelayQueue, OrderedByReleaseTime) {
  DelayQueue queue;
  queue.insert({0, 300.0});
  queue.insert({1, 100.0});
  queue.insert({2, 200.0});
  EXPECT_EQ(queue.head().task, 1);
  EXPECT_DOUBLE_EQ(*queue.next_release(), 100.0);
  EXPECT_EQ(queue.pop_head().task, 1);
  EXPECT_EQ(queue.pop_head().task, 2);
  EXPECT_EQ(queue.pop_head().task, 0);
}

TEST(DelayQueue, TiesBreakByTaskIndex) {
  DelayQueue queue;
  queue.insert({7, 100.0});
  queue.insert({2, 100.0});
  EXPECT_EQ(queue.pop_head().task, 2);
  EXPECT_EQ(queue.pop_head().task, 7);
}

TEST(DelayQueue, NextReleaseEmptyIsNullopt) {
  DelayQueue queue;
  EXPECT_FALSE(queue.next_release().has_value());
}

TEST(PaperFigure3a, QueueStateAtTimeZero) {
  // At t=0 all three tasks are released; tau1 becomes active, so the run
  // queue holds tau2 then tau3 (priority order) and the delay queue is
  // empty (paper Figure 3(a) shows tau2, tau3 in the run queue).
  RunQueue run;
  run.insert({1, 1});  // tau2.
  run.insert({2, 2});  // tau3.
  EXPECT_EQ(run.entries()[0].task, 1);
  EXPECT_EQ(run.entries()[1].task, 2);
}

}  // namespace
}  // namespace lpfps::sched
