#include "core/engine.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sched/kernel.h"
#include "sched/priority.h"
#include "workloads/example.h"

namespace lpfps::core {
namespace {

using sim::ProcessorMode;

power::ProcessorConfig cpu() { return power::ProcessorConfig::arm8_default(); }

EngineOptions options(Time horizon, bool trace = false) {
  EngineOptions opts;
  opts.horizon = horizon;
  opts.record_trace = trace;
  return opts;
}

TEST(EngineFps, AveragePowerMatchesUtilizationFormula) {
  // FPS at WCET: busy U of the time at power 1, idle (1-U) at NOP power
  // 0.2 -> average power = 0.85 + 0.15 * 0.2 = 0.88 for Table 1.
  const SimulationResult result =
      simulate(lpfps::workloads::example_table1(), cpu(),
               SchedulerPolicy::fps(), nullptr, options(400.0));
  EXPECT_NEAR(result.average_power, 0.88, 1e-9);
}

TEST(EngineFps, ScheduleMatchesReferenceKernel) {
  // With DVS and power-down disabled the engine must produce exactly the
  // reference kernel's schedule.
  const SimulationResult engine_result =
      simulate(lpfps::workloads::example_table1(), cpu(),
               SchedulerPolicy::fps(), nullptr, options(400.0, true));
  sched::FixedPriorityKernel kernel(lpfps::workloads::example_table1());
  const sched::KernelResult kernel_result = kernel.run(400.0);

  ASSERT_TRUE(engine_result.trace.has_value());
  const auto& engine_segments = engine_result.trace->segments();
  const auto& kernel_segments = kernel_result.trace.segments();
  ASSERT_EQ(engine_segments.size(), kernel_segments.size());
  for (std::size_t i = 0; i < engine_segments.size(); ++i) {
    EXPECT_NEAR(engine_segments[i].begin, kernel_segments[i].begin, 1e-9);
    EXPECT_NEAR(engine_segments[i].end, kernel_segments[i].end, 1e-9);
    EXPECT_EQ(engine_segments[i].mode, kernel_segments[i].mode);
    EXPECT_EQ(engine_segments[i].task, kernel_segments[i].task);
  }
}

TEST(EngineFps, RunsAtFullSpeedAlways) {
  const SimulationResult result =
      simulate(lpfps::workloads::example_table1(), cpu(),
               SchedulerPolicy::fps(), nullptr, options(400.0, true));
  EXPECT_DOUBLE_EQ(result.mean_running_ratio, 1.0);
  EXPECT_EQ(result.speed_changes, 0);
  EXPECT_EQ(result.power_downs, 0);
  for (const sim::Segment& s : result.trace->segments()) {
    EXPECT_DOUBLE_EQ(s.ratio_begin, 1.0);
    EXPECT_DOUBLE_EQ(s.ratio_end, 1.0);
  }
}

TEST(EngineFps, JobCountsOverHyperperiod) {
  const SimulationResult result =
      simulate(lpfps::workloads::example_table1(), cpu(),
               SchedulerPolicy::fps(), nullptr, options(400.0));
  EXPECT_EQ(result.jobs_completed, 8 + 5 + 4);
  EXPECT_EQ(result.deadline_misses, 0);
}

TEST(EngineFps, ContextSwitchCounted) {
  const SimulationResult result =
      simulate(lpfps::workloads::example_table1(), cpu(),
               SchedulerPolicy::fps(), nullptr, options(200.0));
  EXPECT_GE(result.context_switches, 1);  // tau3 preempted at t=50.
}

TEST(Engine, TraceOmittedByDefault) {
  const SimulationResult result =
      simulate(lpfps::workloads::example_table1(), cpu(),
               SchedulerPolicy::fps(), nullptr, options(400.0));
  EXPECT_FALSE(result.trace.has_value());
}

TEST(Engine, TraceInvariantsHoldWhenRecorded) {
  // Trace::add_segment checks each segment's order, contiguity, task and
  // ratios as it arrives; the recorded timeline also spans the horizon.
  const SimulationResult result =
      simulate(lpfps::workloads::example_table1(), cpu(),
               SchedulerPolicy::lpfps(), nullptr, options(400.0, true));
  ASSERT_TRUE(result.trace.has_value());
  ASSERT_FALSE(result.trace->segments().empty());
  EXPECT_EQ(result.trace->segments().front().begin, 0.0);
  EXPECT_NEAR(result.trace->segments().back().end, 400.0, 1e-9);
}

TEST(Engine, ThrowsOnDeadlineMissByDefault) {
  sched::TaskSet overloaded;
  overloaded.add(sched::make_task("hog", 10, 8.0));
  overloaded.add(sched::make_task("victim", 20, 10.0));
  sched::assign_rate_monotonic(overloaded);
  EXPECT_THROW(simulate(overloaded, cpu(), SchedulerPolicy::fps(), nullptr,
                        options(100.0)),
               std::runtime_error);
}

TEST(Engine, RecordsMissesWhenAskedNotToThrow) {
  sched::TaskSet overloaded;
  overloaded.add(sched::make_task("hog", 10, 8.0));
  overloaded.add(sched::make_task("victim", 20, 10.0));
  sched::assign_rate_monotonic(overloaded);
  EngineOptions opts = options(200.0);
  opts.throw_on_miss = false;
  const SimulationResult result =
      simulate(overloaded, cpu(), SchedulerPolicy::fps(), nullptr, opts);
  EXPECT_GT(result.deadline_misses, 0);
}

TEST(Engine, RejectsEmptyTaskSet) {
  EXPECT_THROW(simulate(sched::TaskSet{}, cpu(), SchedulerPolicy::fps(),
                        nullptr, options(400.0)),
               std::logic_error);
}

TEST(Engine, RejectsNonPositiveHorizon) {
  EXPECT_THROW(simulate(lpfps::workloads::example_table1(), cpu(),
                        SchedulerPolicy::fps(), nullptr, options(0.0)),
               std::logic_error);
}

TEST(Engine, PhasedTaskStartsLate) {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("phased", 100, 100, 10.0, 10.0, /*phase=*/40));
  sched::assign_rate_monotonic(tasks);
  const SimulationResult result = simulate(
      tasks, cpu(), SchedulerPolicy::fps(), nullptr, options(140.0, true));
  ASSERT_TRUE(result.trace.has_value());
  const auto& segments = result.trace->segments();
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments.front().mode, ProcessorMode::kIdleBusyWait);
  EXPECT_NEAR(segments.front().end, 40.0, 1e-9);
}

TEST(Engine, EnergyConservesAcrossModeBreakdown) {
  const SimulationResult result =
      simulate(lpfps::workloads::example_table1(), cpu(),
               SchedulerPolicy::lpfps(), nullptr, options(400.0));
  Energy sum = 0.0;
  Time time = 0.0;
  for (const auto& slot : result.by_mode) {
    sum += slot.energy;
    time += slot.time;
  }
  EXPECT_NEAR(sum, result.total_energy, 1e-9);
  EXPECT_NEAR(time, 400.0, 1e-6);
}

TEST(Engine, PerTaskEnergySumsToRunningTotals) {
  const SimulationResult result =
      simulate(lpfps::workloads::example_table1(), cpu(),
               SchedulerPolicy::lpfps(), nullptr, options(400.0));
  ASSERT_EQ(result.per_task.size(), 3u);
  Energy energy = 0.0;
  Time time = 0.0;
  for (const auto& slot : result.per_task) {
    energy += slot.energy;
    time += slot.time;
  }
  EXPECT_NEAR(energy, result.mode(sim::ProcessorMode::kRunning).energy,
              1e-9);
  EXPECT_NEAR(time, result.mode(sim::ProcessorMode::kRunning).time, 1e-9);
}

TEST(Engine, PerTaskTimeMatchesWorkUnderFps) {
  // At full speed with WCET jobs, each task's processor time over a
  // hyperperiod is jobs * WCET.
  const SimulationResult result =
      simulate(lpfps::workloads::example_table1(), cpu(),
               SchedulerPolicy::fps(), nullptr, options(400.0));
  EXPECT_NEAR(result.per_task[0].time, 8 * 10.0, 1e-9);
  EXPECT_NEAR(result.per_task[1].time, 5 * 20.0, 1e-9);
  EXPECT_NEAR(result.per_task[2].time, 4 * 40.0, 1e-9);
}

TEST(Engine, DeterministicAcrossRepeatedRuns) {
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  const sched::TaskSet tasks =
      lpfps::workloads::example_table1().with_bcet_ratio(0.3);
  const SimulationResult a =
      simulate(tasks, cpu(), SchedulerPolicy::lpfps(), exec, options(4000.0));
  const SimulationResult b =
      simulate(tasks, cpu(), SchedulerPolicy::lpfps(), exec, options(4000.0));
  EXPECT_DOUBLE_EQ(a.total_energy, b.total_energy);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.speed_changes, b.speed_changes);
}

}  // namespace
}  // namespace lpfps::core
