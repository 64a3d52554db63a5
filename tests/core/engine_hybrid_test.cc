// The hybrid static+dynamic policy: a feasible static base clock with
// LPFPS-style per-window reclamation below it.
#include <gtest/gtest.h>

#include "audit/audit.h"
#include "audit/harness.h"
#include "core/engine.h"
#include "core/speed_ratio.h"
#include "core/static_slowdown.h"
#include "sched/priority.h"
#include "workloads/registry.h"

namespace lpfps::core {
namespace {

power::ProcessorConfig cpu() { return power::ProcessorConfig::arm8_default(); }

sched::TaskSet harmonic_half() {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("a", 100, 25.0));
  tasks.add(sched::make_task("b", 200, 50.0));  // U = 0.5, harmonic.
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

TEST(OptimalRatioToTarget, ReducesToPaperFormulaAtTargetOne) {
  EXPECT_DOUBLE_EQ(optimal_ratio_to_target(20.0, 40.0, 0.07, 1.0),
                   optimal_ratio(20.0, 40.0, 0.07));
}

TEST(OptimalRatioToTarget, SolvesGeneralizedEquationExactly) {
  const double target = 0.7;
  const double rho = 0.07;
  const double window = 100.0;
  const double remaining = 30.0;
  const double r =
      optimal_ratio_to_target(remaining, window, rho, target);
  ASSERT_LT(r, target);
  ASSERT_GT(r, target - rho * window);
  // window*r + (target - r)^2/(2 rho) == remaining.
  EXPECT_NEAR(window * r + (target - r) * (target - r) / (2 * rho),
              remaining, 1e-9);
}

TEST(OptimalRatioToTarget, NoSlackReturnsTarget) {
  EXPECT_DOUBLE_EQ(optimal_ratio_to_target(70.0, 100.0, 0.07, 0.7), 0.7);
  EXPECT_DOUBLE_EQ(optimal_ratio_to_target(90.0, 100.0, 0.07, 0.7), 0.7);
}

TEST(HybridEngine, RunsAtBaseWithoutSlackAndBelowWithIt) {
  // Base 0.75 on the U=0.5 harmonic set: the lone tail task gets
  // stretched below 0.75.
  EngineOptions options;
  options.horizon = 2000.0;
  options.record_trace = true;
  const SimulationResult result =
      simulate(harmonic_half(), cpu(), SchedulerPolicy::lpfps_hybrid(0.75),
               nullptr, options);
  EXPECT_EQ(result.deadline_misses, 0);
  bool saw_base = false;
  bool saw_below = false;
  for (const sim::Segment& s : result.trace->segments()) {
    if (s.mode != sim::ProcessorMode::kRunning) continue;
    EXPECT_LE(s.ratio_begin, 0.75 + 1e-9);
    if (s.ratio_begin == s.ratio_end) {
      if (s.ratio_begin == 0.75) saw_base = true;
      if (s.ratio_begin < 0.75 - 1e-9) saw_below = true;
    }
  }
  EXPECT_TRUE(saw_base);
  EXPECT_TRUE(saw_below);
}

TEST(HybridEngine, NeverExceedsItsBaseClock) {
  EngineOptions options;
  options.horizon = 4000.0;
  options.record_trace = true;
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  const SimulationResult result = simulate(
      harmonic_half().with_bcet_ratio(0.3), cpu(),
      SchedulerPolicy::lpfps_hybrid(0.8), exec, options);
  for (const sim::Segment& s : result.trace->segments()) {
    EXPECT_LE(s.ratio_begin, 0.8 + 1e-9);
    EXPECT_LE(s.ratio_end, 0.8 + 1e-9);
  }
}

TEST(HybridEngine, MeetsDeadlinesOnAllPaperWorkloads) {
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  for (const workloads::Workload& w : workloads::paper_workloads()) {
    const auto base =
        min_feasible_static_ratio(w.tasks, cpu().frequencies);
    ASSERT_TRUE(base.has_value()) << w.name;
    for (const double bcet : {1.0, 0.3}) {
      EngineOptions options;
      options.horizon = std::min(w.horizon, 2e6);
      options.record_trace = true;
      const sched::TaskSet tasks = w.tasks.with_bcet_ratio(bcet);
      const SchedulerPolicy policy = SchedulerPolicy::lpfps_hybrid(*base);
      const SimulationResult result =
          simulate(tasks, cpu(), policy, exec, options);
      EXPECT_EQ(result.deadline_misses, 0) << w.name << " bcet " << bcet;
      const audit::AuditReport report = audit::audit_run(
          result, tasks, cpu(), audit::derive_options(policy, options));
      EXPECT_TRUE(report.ok()) << w.name << "\n" << report.to_string();
    }
  }
}

TEST(HybridEngine, DominatesPureStaticWithVaryingExecTimes) {
  // With real slack to reclaim, the hybrid can only improve on its own
  // static base (it never runs faster, and sleeps the same gaps).
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  for (const workloads::Workload& w : workloads::paper_workloads()) {
    const auto base =
        min_feasible_static_ratio(w.tasks, cpu().frequencies);
    ASSERT_TRUE(base.has_value());
    EngineOptions options;
    options.horizon = std::min(w.horizon, 2e6);
    const sched::TaskSet tasks = w.tasks.with_bcet_ratio(0.3);
    const double hybrid =
        simulate(tasks, cpu(), SchedulerPolicy::lpfps_hybrid(*base), exec,
                 options)
            .average_power;
    const double pure_static =
        simulate(tasks, cpu(), SchedulerPolicy::static_slowdown(*base),
                 exec, options)
            .average_power;
    EXPECT_LE(hybrid, pure_static + 1e-9) << w.name;
  }
}

TEST(HybridEngine, MatchesLpfpsWhenBaseIsFullSpeed) {
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  EngineOptions options;
  options.horizon = 4000.0;
  const sched::TaskSet tasks = harmonic_half().with_bcet_ratio(0.5);
  const double hybrid =
      simulate(tasks, cpu(), SchedulerPolicy::lpfps_hybrid(1.0), exec,
               options)
          .total_energy;
  const double lpfps =
      simulate(tasks, cpu(), SchedulerPolicy::lpfps(), exec, options)
          .total_energy;
  EXPECT_NEAR(hybrid, lpfps, 1e-9);
}

}  // namespace
}  // namespace lpfps::core
