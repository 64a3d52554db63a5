// sched/incremental_rta.h — fixed-point reuse across mutations, checked
// against from-scratch analysis (which the class itself hosts as
// Mode::kFromScratch, and which tests here also cross-check against the
// free-standing sched::response_times()).
#include "sched/incremental_rta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/random.h"
#include "sched/analysis.h"
#include "sched/priority.h"
#include "sched/task.h"

namespace lpfps::sched {
namespace {

Task task(const char* name, std::int64_t period, Work wcet,
          Priority priority) {
  Task t = make_task(name, period, wcet);
  t.priority = priority;
  return t;
}

TaskSet three_tasks() {
  TaskSet tasks;
  tasks.add(task("hi", 100, 20.0, 0));
  tasks.add(task("mid", 200, 40.0, 1));
  tasks.add(task("lo", 400, 60.0, 2));
  return tasks;
}

/// Response times must equal a from-scratch analysis of the same set,
/// bitwise (the class contract; nullopt positions must agree too).
void expect_matches_scratch(const IncrementalRta& rta) {
  const auto scratch = response_times(rta.tasks());
  ASSERT_EQ(rta.response_times().size(), scratch.size());
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    const auto& inc = rta.response_times()[i];
    ASSERT_EQ(inc.has_value(), scratch[i].has_value()) << "task " << i;
    if (inc.has_value()) {
      // The seeded iterate lands on the same least fixed point the
      // approx-terminating reference converges to.
      EXPECT_NEAR(*inc, *scratch[i], 1e-6) << "task " << i;
    }
  }
}

TEST(IncrementalRta, InitialAnalysisMatchesScratch) {
  IncrementalRta rta(three_tasks());
  EXPECT_TRUE(rta.schedulable());
  expect_matches_scratch(rta);
  // Classic hand-check: R_hi = 20, R_mid = 60, R_lo = 140.
  EXPECT_DOUBLE_EQ(*rta.response_times()[0], 20.0);
  EXPECT_DOUBLE_EQ(*rta.response_times()[1], 60.0);
  EXPECT_DOUBLE_EQ(*rta.response_times()[2], 140.0);
}

TEST(IncrementalRta, AddOnlyReanalyzesLowerPriority) {
  IncrementalRta rta(three_tasks());
  const auto before = rta.stats();
  rta.add_task(task("new", 300, 10.0, 3));  // Lowest priority.
  // Only the newcomer runs; the existing three keep their values.
  EXPECT_EQ(rta.stats().tasks_reanalyzed - before.tasks_reanalyzed, 1);
  EXPECT_EQ(rta.stats().tasks_kept - before.tasks_kept, 3);
  expect_matches_scratch(rta);

  const auto mid = rta.stats();
  rta.add_task(task("top", 50, 5.0, -1));  // Highest priority.
  // Everyone below gains interference: 1 scratch + 4 seeded resumes.
  EXPECT_EQ(rta.stats().tasks_reanalyzed - mid.tasks_reanalyzed, 5);
  EXPECT_EQ(rta.stats().tasks_seeded - mid.tasks_seeded, 4);
  expect_matches_scratch(rta);
}

TEST(IncrementalRta, RemoveRecomputesOnlyLowerPriority) {
  IncrementalRta rta(three_tasks());
  const auto before = rta.stats();
  rta.remove_task(1);  // "mid".
  EXPECT_EQ(rta.tasks().size(), 2u);
  // "hi" kept, "lo" recomputed from scratch.
  EXPECT_EQ(rta.stats().tasks_reanalyzed - before.tasks_reanalyzed, 1);
  EXPECT_EQ(rta.stats().tasks_kept - before.tasks_kept, 1);
  EXPECT_EQ(rta.stats().tasks_seeded - before.tasks_seeded, 0);
  expect_matches_scratch(rta);
}

TEST(IncrementalRta, MutateGrowOnlyResumesFromOldFixedPoint) {
  IncrementalRta rta(three_tasks());
  const auto before = rta.stats();
  rta.mutate_task(0, task("hi", 100, 25.0, 0));  // WCET up: grow-only.
  // Mutated task from scratch; mid and lo resume seeded.
  EXPECT_EQ(rta.stats().tasks_reanalyzed - before.tasks_reanalyzed, 3);
  EXPECT_EQ(rta.stats().tasks_seeded - before.tasks_seeded, 2);
  expect_matches_scratch(rta);
}

TEST(IncrementalRta, MutateShrinkRecomputesAffected) {
  IncrementalRta rta(three_tasks());
  const auto before = rta.stats();
  rta.mutate_task(0, task("hi", 100, 10.0, 0));  // WCET down.
  EXPECT_EQ(rta.stats().tasks_reanalyzed - before.tasks_reanalyzed, 3);
  EXPECT_EQ(rta.stats().tasks_seeded - before.tasks_seeded, 0);
  expect_matches_scratch(rta);
}

TEST(IncrementalRta, MutateOwnWcetPastOldResponseTime) {
  // Regression guard for the seed clamp: a lone task's old R equals its
  // WCET; raising the WCET must not trip a seed-below-C precondition.
  TaskSet tasks;
  tasks.add(task("solo", 100, 5.0, 0));
  IncrementalRta rta(std::move(tasks));
  EXPECT_DOUBLE_EQ(*rta.response_times()[0], 5.0);
  rta.mutate_task(0, task("solo", 100, 8.0, 0));
  EXPECT_DOUBLE_EQ(*rta.response_times()[0], 8.0);
}

TEST(IncrementalRta, InvisibleMutationKeepsEveryOtherTask) {
  IncrementalRta rta(three_tasks());
  Task t = rta.tasks()[1];
  t.bcet = t.wcet * 0.5;  // bcet/phase/name do not affect RTA.
  t.phase = 50;
  const auto before = rta.stats();
  rta.mutate_task(1, std::move(t));
  EXPECT_EQ(rta.stats().tasks_reanalyzed - before.tasks_reanalyzed, 1);
  EXPECT_EQ(rta.stats().tasks_kept - before.tasks_kept, 2);
  expect_matches_scratch(rta);
}

TEST(IncrementalRta, DivergentStaysDivergentUnderGrowth) {
  TaskSet tasks;
  tasks.add(task("hog", 100, 80.0, 0));
  tasks.add(task("starved", 150, 40.0, 1));  // 80*2 + 40 > 150: diverges.
  IncrementalRta rta(std::move(tasks));
  EXPECT_FALSE(rta.schedulable());
  ASSERT_FALSE(rta.response_times()[1].has_value());
  const auto before = rta.stats();
  rta.mutate_task(0, task("hog", 100, 85.0, 0));  // Strictly more load.
  EXPECT_EQ(rta.stats().tasks_skipped - before.tasks_skipped, 1);
  EXPECT_FALSE(rta.response_times()[1].has_value());
  expect_matches_scratch(rta);
}

TEST(IncrementalRta, FromScratchModeMatchesIncrementalBitwise) {
  // The differential property in miniature: a random mutation walk,
  // compared bitwise after every step.
  Rng rng(0xfeedbeef);
  IncrementalRta inc(three_tasks(), IncrementalRta::Mode::kIncremental);
  IncrementalRta scratch(three_tasks(), IncrementalRta::Mode::kFromScratch);
  Priority next_priority = 10;
  for (int step = 0; step < 60; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 2));
    if (op == 0 || inc.tasks().size() <= 1) {
      const Task t = task("w", rng.uniform_int(5, 50) * 10,
                          rng.uniform(1.0, 40.0), next_priority++);
      inc.add_task(t);
      scratch.add_task(t);
    } else if (op == 1) {
      const TaskIndex victim = static_cast<TaskIndex>(
          rng.uniform_int(0, static_cast<std::int64_t>(inc.tasks().size()) - 1));
      inc.remove_task(victim);
      scratch.remove_task(victim);
    } else {
      const TaskIndex victim = static_cast<TaskIndex>(
          rng.uniform_int(0, static_cast<std::int64_t>(inc.tasks().size()) - 1));
      Task t = inc.tasks()[victim];
      t.wcet = std::min(static_cast<double>(t.deadline),
                        t.wcet * rng.uniform(0.5, 1.5));
      t.bcet = std::min(t.bcet, t.wcet);
      inc.mutate_task(victim, t);
      scratch.mutate_task(victim, t);
    }
    ASSERT_EQ(inc.schedulable(), scratch.schedulable()) << "step " << step;
    ASSERT_EQ(inc.response_times().size(), scratch.response_times().size());
    for (std::size_t i = 0; i < inc.response_times().size(); ++i) {
      const auto& a = inc.response_times()[i];
      const auto& b = scratch.response_times()[i];
      ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
      if (a.has_value()) {
        // Bitwise, not approximate: the exact-fixed-point contract.
        ASSERT_EQ(*a, *b) << "step " << step << " task " << i;
      }
    }
  }
  // The incremental arm must actually have been incremental.
  EXPECT_GT(inc.stats().tasks_kept, 0);
  EXPECT_GT(inc.stats().tasks_seeded, 0);
  EXPECT_LT(inc.stats().tasks_reanalyzed, scratch.stats().tasks_reanalyzed);
}

TEST(IncrementalRta, KeepsItsPriorityOrderAcrossEveryMutation) {
  // Adds, removes, mutates that move a priority, and both undos keep
  // by_priority() equal to a fresh sort, priority_taken() equal to a
  // scan, and the responses bitwise equal to the from-scratch arm.
  Rng rng(0x0bde5eed);
  IncrementalRta inc(three_tasks(), IncrementalRta::Mode::kIncremental);
  IncrementalRta scratch(three_tasks(), IncrementalRta::Mode::kFromScratch);
  int undone_adds = 0;
  const auto free_priority = [&] {
    for (;;) {
      const auto p = static_cast<Priority>(rng.uniform_int(-20, 40));
      if (!inc.priority_taken(p)) return p;
    }
  };
  for (int step = 0; step < 200; ++step) {
    const std::int64_t n = static_cast<std::int64_t>(inc.tasks().size());
    const int op = static_cast<int>(rng.uniform_int(0, 4));
    const auto victim = static_cast<TaskIndex>(
        rng.uniform_int(0, std::max<std::int64_t>(0, n - 1)));
    if (op == 0 || n <= 1) {
      const Task t = task("w", rng.uniform_int(5, 50) * 10,
                          rng.uniform(1.0, 40.0), free_priority());
      inc.add_task(t);
      scratch.add_task(t);
    } else if (op == 1) {
      inc.remove_task(victim);
      scratch.remove_task(victim);
    } else if (op == 2) {
      Task t = inc.tasks()[victim];
      t.priority = free_priority();
      t.wcet = std::min(static_cast<double>(t.deadline),
                        t.wcet * rng.uniform(0.5, 1.5));
      t.bcet = std::min(t.bcet, t.wcet);
      inc.mutate_task(victim, t);
      scratch.mutate_task(victim, t);
    } else if (op == 3) {
      // try_add_task keeps a schedulable add and undoes the rest.
      const Task t = task("x", rng.uniform_int(20, 50) * 10,
                          rng.uniform(1.0, 200.0), free_priority());
      const bool kept = inc.try_add_task(t);
      ASSERT_EQ(kept, scratch.try_add_task(t));
      if (!kept) ++undone_adds;
    } else {
      const Task previous = inc.tasks()[victim];
      const auto before = inc.response_times();
      Task t = previous;
      t.priority = free_priority();
      inc.mutate_task(victim, t);
      inc.undo_mutate(victim, previous, before);
    }
    std::vector<std::size_t> sorted(inc.tasks().size());
    for (std::size_t i = 0; i < sorted.size(); ++i) sorted[i] = i;
    std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
      return inc.tasks().tasks()[a].priority < inc.tasks().tasks()[b].priority;
    });
    ASSERT_EQ(inc.by_priority(), sorted) << "step " << step;
    for (Priority p = -21; p <= 41; ++p) {
      bool scan = false;
      for (const Task& t : inc.tasks().tasks()) scan = scan || t.priority == p;
      ASSERT_EQ(inc.priority_taken(p), scan) << "step " << step;
      if (scan) {
        const TaskIndex owner = inc.by_priority()[static_cast<std::size_t>(
            std::count_if(inc.tasks().tasks().begin(),
                          inc.tasks().tasks().end(),
                          [&](const Task& t) { return t.priority < p; }))];
        ASSERT_FALSE(inc.priority_taken(p, owner)) << "step " << step;
      }
    }
    ASSERT_EQ(inc.response_times(), scratch.response_times())
        << "step " << step;
  }
  EXPECT_GT(undone_adds, 0);
  EXPECT_GT(inc.stats().tasks_seeded_above, 0);
}

TEST(IncrementalRta, ADivergentTaskSeedsNothingBelowIt) {
  // "k" (D = 5) diverges under "a": 2 + 4 > 5.  "lo" converges at
  // 1 + 4 + 2 = 7 with no seed from "k"; "k" itself starts from R_a = 4.
  TaskSet tasks;
  tasks.add(task("a", 10, 4.0, 0));
  Task k = make_task("k", 100, 5, 2.0, 2.0, 0);
  k.priority = 1;
  tasks.add(k);
  tasks.add(task("lo", 1000, 1.0, 2));
  const IncrementalRta rta(std::move(tasks));
  EXPECT_FALSE(rta.response_times()[1].has_value());
  EXPECT_EQ(rta.response_times()[2], 7.0);
  EXPECT_EQ(rta.stats().tasks_seeded_above, 1);
}

TEST(IncrementalRta, RejectsDuplicatePriorities) {
  IncrementalRta rta(three_tasks());
  EXPECT_THROW(rta.add_task(task("dup", 100, 1.0, 1)), std::logic_error);
  EXPECT_THROW(rta.mutate_task(0, task("hi", 100, 20.0, 2)),
               std::logic_error);
}

}  // namespace
}  // namespace lpfps::sched
