#include "sched/kernel.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "workloads/example.h"

namespace lpfps::sched {
namespace {

using sim::ProcessorMode;
using sim::Segment;

KernelResult run_table1(Time horizon,
                        ExecTimeProvider provider = nullptr,
                        InvocationHook hook = nullptr) {
  FixedPriorityKernel kernel(lpfps::workloads::example_table1());
  if (provider) kernel.set_exec_time_provider(std::move(provider));
  if (hook) kernel.set_invocation_hook(std::move(hook));
  return kernel.run(horizon);
}

/// The running segments of the paper's Figure 2(a) over [0, 200).
struct ExpectedRun {
  Time begin;
  Time end;
  TaskIndex task;
};

TEST(Kernel, ReproducesFigure2aSchedule) {
  const KernelResult result = run_table1(200.0);
  const std::vector<ExpectedRun> expected = {
      {0, 10, 0},     // tau1
      {10, 30, 1},    // tau2
      {30, 50, 2},    // tau3 (preempted at 50)
      {50, 60, 0},    // tau1
      {60, 80, 2},    // tau3 resumes, finishes exactly at 80
      {80, 100, 1},   // tau2 (released 80)
      {100, 110, 0},  // tau1
      {110, 150, 2},  // tau3
      {150, 160, 0},  // tau1
      {160, 180, 1},  // tau2 (released 160)
  };

  std::vector<Segment> running;
  for (const Segment& s : result.trace.segments()) {
    if (s.mode == ProcessorMode::kRunning) running.push_back(s);
  }
  ASSERT_EQ(running.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(running[i].begin, expected[i].begin, 1e-9) << "segment " << i;
    EXPECT_NEAR(running[i].end, expected[i].end, 1e-9) << "segment " << i;
    EXPECT_EQ(running[i].task, expected[i].task) << "segment " << i;
  }
}

TEST(Kernel, Figure2aIdleInterval) {
  // The only idle interval in [0, 200) is [180, 200).
  const KernelResult result = run_table1(200.0);
  Time idle = 0.0;
  for (const Segment& s : result.trace.segments()) {
    if (s.mode == ProcessorMode::kIdleBusyWait) {
      idle += s.duration();
      EXPECT_NEAR(s.begin, 180.0, 1e-9);
      EXPECT_NEAR(s.end, 200.0, 1e-9);
    }
  }
  EXPECT_NEAR(idle, 20.0, 1e-9);
}

TEST(Kernel, HyperperiodIdleMatchesAnalyticValue) {
  // Idle over one hyperperiod (400 us) = H * (1 - U) = 400 * 0.15 = 60.
  const KernelResult result = run_table1(400.0);
  EXPECT_NEAR(result.trace.time_in_mode(ProcessorMode::kIdleBusyWait), 60.0,
              1e-9);
}

TEST(Kernel, NoDeadlineMissesAtWcet) {
  const KernelResult result = run_table1(4000.0);
  EXPECT_EQ(result.deadline_misses, 0);
  EXPECT_TRUE(result.trace.missed_jobs().empty());
}

TEST(Kernel, Tau3PreemptedAtTime50) {
  const KernelResult result = run_table1(200.0);
  EXPECT_GE(result.context_switches, 1);
}

TEST(Kernel, Figure3aSnapshotAtTimeZero) {
  // Paper Figure 3(a): at t=0 tau1 is active; tau2 and tau3 wait in the
  // run queue in priority order; the delay queue is empty.
  std::map<Time, QueueSnapshot> snapshots;
  run_table1(200.0, nullptr, [&](const QueueSnapshot& snapshot) {
    snapshots.emplace(snapshot.time, snapshot);
  });
  ASSERT_TRUE(snapshots.count(0.0));
  const QueueSnapshot& at0 = snapshots.at(0.0);
  EXPECT_EQ(at0.active_task, 0);
  ASSERT_EQ(at0.run_queue.size(), 2u);
  EXPECT_EQ(at0.run_queue[0].task, 1);
  EXPECT_EQ(at0.run_queue[1].task, 2);
  EXPECT_TRUE(at0.delay_queue.empty());
}

TEST(Kernel, Figure3bSnapshotAtTime50) {
  // Paper Figure 3(b): at t=50 tau1 (2nd instance) preempts tau3, which
  // re-enters the run queue; tau2 sleeps in the delay queue until 80.
  std::map<Time, QueueSnapshot> snapshots;
  run_table1(200.0, nullptr, [&](const QueueSnapshot& snapshot) {
    snapshots.emplace(snapshot.time, snapshot);
  });
  ASSERT_TRUE(snapshots.count(50.0));
  const QueueSnapshot& at50 = snapshots.at(50.0);
  EXPECT_EQ(at50.active_task, 0);
  ASSERT_EQ(at50.run_queue.size(), 1u);
  EXPECT_EQ(at50.run_queue[0].task, 2);
  ASSERT_EQ(at50.delay_queue.size(), 1u);
  EXPECT_EQ(at50.delay_queue[0].task, 1);
  EXPECT_NEAR(at50.delay_queue[0].release_time, 80.0, 1e-9);
}

TEST(Kernel, EarlyCompletionsCreateMoreIdle) {
  // Figure 2(b): when the first instances of tau2 and tau3 run short,
  // extra idle time appears before t=100.
  auto provider = [](TaskIndex task, std::int64_t instance) -> Work {
    if (task == 1 && instance == 0) return 10.0;  // tau2 first instance.
    if (task == 2 && instance == 0) return 30.0;  // tau3 first instance.
    if (task == 1) return 20.0;
    if (task == 2) return 40.0;
    return 10.0;
  };
  const KernelResult result = run_table1(100.0, provider);
  // Work in [0,100): tau1 twice (20) + tau2 (10) + tau3 (30) + tau2's
  // second instance at WCET (20) = 80, so idle is 20 us — versus 0 us of
  // idle in the same window when every job takes its WCET (Figure 2(a)).
  EXPECT_NEAR(result.trace.time_in_mode(ProcessorMode::kIdleBusyWait), 20.0,
              1e-9);
  EXPECT_EQ(result.deadline_misses, 0);
}

TEST(Kernel, ExecProviderOutOfRangeRejected) {
  auto provider = [](TaskIndex, std::int64_t) -> Work { return 1000.0; };
  FixedPriorityKernel kernel(lpfps::workloads::example_table1());
  kernel.set_exec_time_provider(provider);
  EXPECT_THROW(kernel.run(100.0), std::logic_error);
}

TEST(Kernel, ResponseTimesMatchAnalysisAtCriticalInstant) {
  // First job of tau3 completes at t=80 (its RTA response time).
  const KernelResult result = run_table1(100.0);
  for (const sim::JobRecord& job : result.trace.jobs()) {
    if (job.task == 2 && job.instance == 0) {
      EXPECT_NEAR(job.completion, 80.0, 1e-9);
      return;
    }
  }
  FAIL() << "tau3's first job not found";
}

TEST(Kernel, JobCountsOverHyperperiod) {
  const KernelResult result = run_table1(400.0);
  std::map<TaskIndex, int> counts;
  for (const sim::JobRecord& job : result.trace.jobs()) {
    if (job.finished) ++counts[job.task];
  }
  EXPECT_EQ(counts[0], 8);  // 400/50.
  EXPECT_EQ(counts[1], 5);  // 400/80.
  EXPECT_EQ(counts[2], 4);  // 400/100.
}

}  // namespace
}  // namespace lpfps::sched
