// Engine-level weakly-hard scheduling (docs/WEAKLY_HARD.md): graceful
// overload degradation, the never-skip differential identity, skip-aware
// DVS, the overload latch, and the kernel cross-check.
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "io/trace_io.h"
#include "sched/kernel.h"
#include "sched/priority.h"
#include "sched/task.h"
#include "weakly_hard/governor.h"

namespace lpfps::core {
namespace {

/// Nominal utilization 1.05 (> 1, hard-infeasible); the (1,2)-firm
/// high-rate task makes the degraded set feasible.  Deterministic
/// (BCET = WCET, null exec model), so every number below is exact.
sched::TaskSet overloaded_tasks() {
  sched::TaskSet tasks;
  tasks.add(sched::with_mk_constraint(sched::make_task("firm", 10'000, 6000.0),
                                      1, 2));
  tasks.add(sched::make_task("hard", 20'000, 9000.0));
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

/// Utilization 0.5: comfortably hard-feasible, so the kOverload latch
/// never raises without injected trouble.
sched::TaskSet feasible_tasks() {
  sched::TaskSet tasks;
  tasks.add(sched::with_mk_constraint(sched::make_task("firm", 10'000, 3000.0),
                                      1, 2));
  tasks.add(sched::make_task("hard", 20'000, 4000.0));
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

const auto kCpu = power::ProcessorConfig::arm8_default();

EngineOptions overload_options() {
  EngineOptions options;
  options.horizon = 200'000;
  options.throw_on_miss = false;
  return options;
}

TEST(WeaklyHardEngine, OverloadedSetDegradesGracefully) {
  const sched::TaskSet tasks = overloaded_tasks();

  // Hard baseline: the governor disarmed, the overload lands as misses.
  EngineOptions hard = overload_options();
  hard.weakly_hard.policy = weakly_hard::SkipPolicy::kNever;
  const SimulationResult hard_run =
      simulate(tasks, kCpu, SchedulerPolicy::fps(), nullptr, hard);
  EXPECT_GT(hard_run.deadline_misses, 0);
  EXPECT_EQ(hard_run.jobs_skipped_weakly, 0);

  // Armed: the structural latch raises at t = 0 (hard RTA fails), every
  // permitted skip is spent, and *nothing* misses — the headline claim.
  EngineOptions armed = overload_options();
  const SimulationResult armed_run =
      simulate(tasks, kCpu, SchedulerPolicy::fps(), nullptr, armed);
  EXPECT_EQ(armed_run.deadline_misses, 0);
  EXPECT_GT(armed_run.jobs_skipped_weakly, 0);
  EXPECT_EQ(armed_run.mk_violations, 0);
  // (1,2)-firm at period 10 ms over [0, 200 ms]: 21 releases (the
  // horizon-instant release included), even instances skipped.
  EXPECT_EQ(armed_run.jobs_skipped_weakly, 11);
  // Worst window of the firm task: exactly m met (slack 0), never less.
  ASSERT_EQ(armed_run.weakly_hard_worst_slack.size(), tasks.size());
  EXPECT_EQ(armed_run.weakly_hard_worst_slack[0], 0);
  EXPECT_EQ(armed_run.weakly_hard_worst_slack[1],
            weakly_hard::SkipGovernor::kHardTaskSlack);
}

TEST(WeaklyHardEngine, NeverSkipIsByteIdenticalToStrippedTwin) {
  // The same physical task set, once with constraints + kNever and once
  // with the constraints stripped: the governor must be perfectly inert.
  const sched::TaskSet constrained = overloaded_tasks();
  sched::TaskSet stripped;
  for (const sched::Task& t : constrained.tasks()) {
    sched::Task copy = t;
    copy.mk_m = copy.mk_k = copy.skip_s = 0;
    stripped.add(copy);
  }
  EngineOptions options = overload_options();
  options.record_trace = true;
  options.weakly_hard.policy = weakly_hard::SkipPolicy::kNever;
  for (const SchedulerPolicy& policy :
       {SchedulerPolicy::fps(), SchedulerPolicy::lpfps()}) {
    const SimulationResult with_constraints =
        simulate(constrained, kCpu, policy, nullptr, options);
    const SimulationResult plain =
        simulate(stripped, kCpu, policy, nullptr, options);
    const std::vector<std::string> names = stripped.names();
    EXPECT_EQ(io::result_csv_row(with_constraints),
              io::result_csv_row(plain));
    ASSERT_TRUE(with_constraints.trace.has_value());
    ASSERT_TRUE(plain.trace.has_value());
    EXPECT_EQ(io::trace_segments_csv(*with_constraints.trace, names),
              io::trace_segments_csv(*plain.trace, names));
    EXPECT_EQ(io::trace_jobs_csv(*with_constraints.trace, names),
              io::trace_jobs_csv(*plain.trace, names));
  }
}

TEST(WeaklyHardEngine, SkipAwareDvsSavesEnergyAtEqualQoS) {
  const sched::TaskSet tasks = overloaded_tasks();
  EngineOptions plain = overload_options();
  EngineOptions skip_dvs = overload_options();
  skip_dvs.weakly_hard.skip_dvs = true;
  const SimulationResult without =
      simulate(tasks, kCpu, SchedulerPolicy::lpfps(), nullptr, plain);
  const SimulationResult with =
      simulate(tasks, kCpu, SchedulerPolicy::lpfps(), nullptr, skip_dvs);
  // Equal QoS: the skip pattern is a pure function of the window
  // history under a latched overload, so both arms shed the same jobs.
  EXPECT_EQ(with.jobs_skipped_weakly, without.jobs_skipped_weakly);
  EXPECT_EQ(with.deadline_misses, 0);
  EXPECT_EQ(without.deadline_misses, 0);
  EXPECT_EQ(with.mk_violations, 0);
  // Skip-to-slack: plans extending past certainly-skipped arrivals can
  // only deepen slowdowns, never add demand.
  EXPECT_LE(with.total_energy, without.total_energy);
}

TEST(WeaklyHardEngine, OverloadLatchStaysDownOnFeasibleSets) {
  const sched::TaskSet tasks = feasible_tasks();
  EngineOptions options;
  options.horizon = 200'000;
  const SimulationResult overload_run =
      simulate(tasks, kCpu, SchedulerPolicy::lpfps(), nullptr, options);
  // kOverload on a feasible, fault-free run: no skips at all.
  EXPECT_EQ(overload_run.jobs_skipped_weakly, 0);
  EXPECT_EQ(overload_run.deadline_misses, 0);

  EngineOptions always = options;
  always.weakly_hard.policy = weakly_hard::SkipPolicy::kAlways;
  const SimulationResult always_run =
      simulate(tasks, kCpu, SchedulerPolicy::lpfps(), nullptr, always);
  // kAlways spends every permitted skip even with zero pressure.
  EXPECT_GT(always_run.jobs_skipped_weakly, 0);
  EXPECT_EQ(always_run.mk_violations, 0);
}

TEST(WeaklyHardEngine, ThrottleContainmentCannotCombineWithGovernor) {
  EngineOptions options = overload_options();
  options.containment.on_overrun = faults::OverrunAction::kThrottle;
  EXPECT_THROW(simulate(overloaded_tasks(), kCpu, SchedulerPolicy::fps(),
                        nullptr, options),
               std::logic_error);
  // Disarmed (kNever), throttle is fine again.
  options.weakly_hard.policy = weakly_hard::SkipPolicy::kNever;
  EXPECT_NO_THROW(simulate(overloaded_tasks(), kCpu, SchedulerPolicy::fps(),
                           nullptr, options));
}

TEST(WeaklyHardEngine, KernelCrossCheckAgreesOnSkipsAndWindows) {
  // The reference kernel runs the same governor rule; under full-speed
  // FPS with WCET execution the two simulators must agree on every
  // weakly-hard observable.
  const sched::TaskSet tasks = overloaded_tasks();
  EngineOptions options = overload_options();
  const SimulationResult engine_run =
      simulate(tasks, kCpu, SchedulerPolicy::fps(), nullptr, options);

  sched::FixedPriorityKernel kernel(tasks);
  kernel.set_skip_policy(weakly_hard::SkipPolicy::kOverload);
  const sched::KernelResult kernel_run = kernel.run(options.horizon);

  EXPECT_EQ(engine_run.jobs_skipped_weakly, kernel_run.jobs_skipped_weakly);
  EXPECT_EQ(engine_run.mk_violations, kernel_run.mk_violations);
  EXPECT_EQ(engine_run.deadline_misses, kernel_run.deadline_misses);
  int skip_records = 0;
  for (const sim::JobRecord& job : kernel_run.trace.jobs()) {
    if (job.skipped) ++skip_records;
  }
  EXPECT_EQ(skip_records, engine_run.jobs_skipped_weakly);
}

}  // namespace
}  // namespace lpfps::core
