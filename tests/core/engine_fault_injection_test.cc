// Fault injection and containment: the engine must stay bit-identical
// with the fault layer disarmed, contain injected overruns under kill,
// detect ramp and wakeup faults, and fail toward plain
// FPS under the safe-mode fallback — all while the trace auditor's
// fault-aware battery stays clean.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "audit/harness.h"
#include "io/trace_io.h"
#include "sched/priority.h"
#include "workloads/example.h"

namespace lpfps::core {
namespace {

power::ProcessorConfig cpu() { return power::ProcessorConfig::arm8_default(); }

EngineOptions traced_options(Time horizon) {
  EngineOptions opts;
  opts.horizon = horizon;
  opts.record_trace = true;
  return opts;
}

sched::TaskSet example(double bcet_ratio = 1.0) {
  return lpfps::workloads::example_table1().with_bcet_ratio(bcet_ratio);
}

std::vector<std::string> names(const sched::TaskSet& tasks) {
  std::vector<std::string> out;
  for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks.size()); ++i) {
    out.push_back(tasks[i].name);
  }
  return out;
}

/// Audits `result` with the option derivation benches use and expects a
/// clean report.
void expect_audit_clean(const SimulationResult& result,
                        const sched::TaskSet& tasks,
                        const SchedulerPolicy& policy,
                        const EngineOptions& options) {
  const audit::AuditReport report = audit::audit_run(
      result, tasks, cpu(), audit::derive_options(policy, options));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(FaultBitIdentity, ArmedContainmentWithoutFaultsChangesNothing) {
  // The acceptance bar: enabling detection + containment with an empty
  // FaultPlan must leave every exported byte identical — in-contract
  // jobs never exhaust their budget, so the machinery stays invisible.
  const sched::TaskSet tasks = example(0.4);
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  for (const SchedulerPolicy& policy :
       {SchedulerPolicy::fps(), SchedulerPolicy::lpfps()}) {
    const EngineOptions plain = traced_options(4000.0);
    EngineOptions armed = plain;
    armed.containment.on_overrun = faults::OverrunAction::kKill;
    armed.containment.safe_mode_fallback = true;

    const SimulationResult a = simulate(tasks, cpu(), policy, exec, plain);
    const SimulationResult b = simulate(tasks, cpu(), policy, exec, armed);

    EXPECT_EQ(io::result_csv_row(a), io::result_csv_row(b)) << policy.name;
    EXPECT_EQ(io::trace_segments_csv(*a.trace, names(tasks)),
              io::trace_segments_csv(*b.trace, names(tasks)))
        << policy.name;
    EXPECT_EQ(io::trace_jobs_csv(*a.trace, names(tasks)),
              io::trace_jobs_csv(*b.trace, names(tasks)))
        << policy.name;
    EXPECT_EQ(b.overruns_detected, 0);
    EXPECT_EQ(b.jobs_killed, 0);
    EXPECT_EQ(b.safe_mode_entries, 0);
  }
}

TEST(FaultKill, CertainOverrunsAreKilledAtBudgetWithZeroMisses) {
  // Every job overruns to 1.5 C; kill caps the executed demand at C, so
  // the faulted run is dominated by the all-WCET run — which is
  // schedulable for Table 1 — and no deadline is ever missed.
  const sched::TaskSet tasks = example();
  const SchedulerPolicy policy = SchedulerPolicy::lpfps();
  EngineOptions opts = traced_options(4000.0);
  opts.throw_on_miss = false;
  opts.faults.overruns = {{1.0, 0.5}};
  opts.containment.on_overrun = faults::OverrunAction::kKill;
  opts.containment.safe_mode_fallback = true;

  const SimulationResult result =
      simulate(tasks, cpu(), policy, nullptr, opts);

  EXPECT_GT(result.overruns_detected, 0);
  EXPECT_EQ(result.jobs_killed, result.overruns_detected);
  EXPECT_GT(result.safe_mode_entries, 0);
  EXPECT_EQ(result.deadline_misses, 0);
  EXPECT_EQ(result.jobs_completed, 0);  // p=1: every job is shed.

  ASSERT_TRUE(result.trace.has_value());
  for (const sim::JobRecord& job : result.trace->jobs()) {
    EXPECT_TRUE(job.killed);
    EXPECT_FALSE(job.finished);
    EXPECT_FALSE(job.missed_deadline);
    const Work wcet = tasks[job.task].wcet;
    EXPECT_NEAR(job.executed, wcet, 1e-6) << tasks[job.task].name;
  }
  expect_audit_clean(result, tasks, policy, opts);
}

TEST(FaultKill, ForfeitsTheWindowsTheOverrunConsumed) {
  // An overloaded pair: "t1" (T = 10, C = 6) preempts "t2" (T = 15,
  // D = 9, C = 5.5), whose every job overruns to 8.25.  Each 30 us from
  // s: t1 [s, s + 6), t2 [s + 6, s + 10), t1 [s + 10, s + 16), t2
  // [s + 16, s + 17.5), killed at its budget past its own next release
  // at s + 15.  That window is forfeited, not released into the past,
  // and t2 returns at s + 30.  Over [0, 300): 10 kills, 10 forfeits.
  sched::TaskSet tasks;
  tasks.add(sched::make_task("t1", 10, 6.0));
  tasks.add(sched::make_task("t2", 15, 9, 5.5, 5.5));
  sched::assign_rate_monotonic(tasks);
  const SchedulerPolicy policy = SchedulerPolicy::fps();
  EngineOptions opts = traced_options(300.0);
  opts.throw_on_miss = false;
  opts.faults.overruns = {{0.0, 0.0}, {1.0, 0.5}};
  opts.containment.on_overrun = faults::OverrunAction::kKill;

  const SimulationResult result =
      simulate(tasks, cpu(), policy, nullptr, opts);

  EXPECT_EQ(result.overruns_detected, 10);
  EXPECT_EQ(result.jobs_killed, 10);
  EXPECT_EQ(result.jobs_skipped, 10);
  EXPECT_EQ(result.deadline_misses, 0);
  ASSERT_TRUE(result.trace.has_value());
  int kills = 0;
  for (const sim::JobRecord& job : result.trace->jobs()) {
    if (!job.killed) continue;
    EXPECT_EQ(job.task, 1);
    EXPECT_EQ(job.instance, 2 * kills);
    EXPECT_NEAR(job.completion, 30.0 * kills + 17.5, 1e-9);
    EXPECT_NEAR(job.executed, 5.5, 1e-9);
    ++kills;
  }
  EXPECT_EQ(kills, 10);
  expect_audit_clean(result, tasks, policy, opts);
}

TEST(FaultKill, AKillOnTheNextReleaseKeepsThatWindow) {
  // "h" (T = 20, C = 6, the higher priority) delays "t" (T = D = 10,
  // C = 4; R_t = 10), whose every job overruns to 6.  t's even jobs start
  // at 20j + 6 and are killed at their budget at 20j + 10, exactly t's
  // next release: that window is not consumed, so the next job is
  // released at once, runs [20j + 10, 20j + 14) and is killed in its own
  // window.  Over [0, 100): instances 0-9 all run, nothing is forfeited.
  sched::TaskSet tasks;
  sched::Task h = sched::make_task("h", 20, 6.0);
  h.priority = 0;
  sched::Task t = sched::make_task("t", 10, 4.0);
  t.priority = 1;
  tasks.add(h);
  tasks.add(t);
  const SchedulerPolicy policy = SchedulerPolicy::fps();
  EngineOptions opts = traced_options(100.0);
  opts.throw_on_miss = false;
  opts.faults.overruns = {{0.0, 0.0}, {1.0, 0.5}};
  opts.containment.on_overrun = faults::OverrunAction::kKill;

  const SimulationResult result =
      simulate(tasks, cpu(), policy, nullptr, opts);

  EXPECT_EQ(result.jobs_killed, 10);
  EXPECT_EQ(result.jobs_skipped, 0);
  EXPECT_EQ(result.deadline_misses, 0);
  ASSERT_TRUE(result.trace.has_value());
  std::int64_t instance = 0;
  for (const sim::JobRecord& job : result.trace->jobs()) {
    if (!job.killed) continue;
    EXPECT_EQ(job.task, 1);
    EXPECT_EQ(job.instance, instance);
    EXPECT_NEAR(job.completion,
                20.0 * static_cast<double>(instance / 2) +
                    (instance % 2 == 0 ? 10.0 : 14.0),
                1e-9);
    ++instance;
  }
  EXPECT_EQ(instance, 10);
  expect_audit_clean(result, tasks, policy, opts);
}

TEST(FaultMonitor, SafeModeEngagesOnDetectionWithoutDisplacingJobs) {
  // kNone + safe mode: overruns are detected and the engine runs full
  // speed until idle, but no job is killed or skipped.
  const sched::TaskSet tasks = example(0.4);
  const SchedulerPolicy policy = SchedulerPolicy::lpfps();
  EngineOptions opts = traced_options(8000.0);
  opts.throw_on_miss = false;
  opts.seed = 7;
  opts.faults.overruns = {{0.3, 0.3}};
  opts.containment.on_overrun = faults::OverrunAction::kNone;
  opts.containment.safe_mode_fallback = true;

  const SimulationResult result = simulate(
      tasks, cpu(), policy, std::make_shared<exec::ClampedGaussianModel>(),
      opts);

  EXPECT_GT(result.overruns_detected, 0);
  EXPECT_GT(result.safe_mode_entries, 0);
  EXPECT_EQ(result.jobs_killed, 0);
  EXPECT_EQ(result.jobs_skipped, 0);
  expect_audit_clean(result, tasks, policy, opts);
}

TEST(FaultRamp, SlowRegulatorMakesPlansLateAndIsDetected) {
  // Physics at half the spec rho.  With WCET demand the slowdown plans
  // run just-in-time, so the slow regulator leaves the clock measurably
  // below the commanded trajectory when the plan ends — which the
  // engine must flag and answer with safe mode.
  const sched::TaskSet tasks = example();
  const SchedulerPolicy policy = SchedulerPolicy::lpfps();
  EngineOptions opts = traced_options(8000.0);
  opts.throw_on_miss = false;
  opts.faults.ramp.rho_factor = 0.5;
  opts.containment.safe_mode_fallback = true;

  const SimulationResult result =
      simulate(tasks, cpu(), policy, nullptr, opts);

  EXPECT_GT(result.dvs_slowdowns, 0);
  EXPECT_GT(result.ramp_faults_detected, 0);
  EXPECT_GT(result.safe_mode_entries, 0);
  expect_audit_clean(result, tasks, policy, opts);
}

TEST(FaultWakeup, LateTimerIsDetectedAtTheWakeInstant) {
  const sched::TaskSet tasks = example(0.4);
  const SchedulerPolicy policy = SchedulerPolicy::lpfps();
  EngineOptions opts = traced_options(8000.0);
  opts.throw_on_miss = false;
  opts.faults.wakeup = {1.0, 5.0};
  opts.containment.safe_mode_fallback = true;

  const SimulationResult result = simulate(
      tasks, cpu(), policy, std::make_shared<exec::ClampedGaussianModel>(),
      opts);

  EXPECT_GT(result.power_downs, 0);
  EXPECT_GT(result.late_wakeups_detected, 0);
  EXPECT_GT(result.safe_mode_entries, 0);
  expect_audit_clean(result, tasks, policy, opts);
}

TEST(FaultBitIdentity, ArmedKillUnderWcetChangesNothing) {
  // Kill containment with no faults, over many WCET hyperperiods: every
  // job finishes exactly at its budget, which is in contract, so the
  // run equals its plain twin.
  const sched::TaskSet tasks = example();
  EngineOptions armed_only = traced_options(40'000.0);
  armed_only.containment.on_overrun = faults::OverrunAction::kKill;
  const SimulationResult armed =
      simulate(tasks, cpu(), SchedulerPolicy::lpfps(), nullptr, armed_only);
  const SimulationResult plain = simulate(
      tasks, cpu(), SchedulerPolicy::lpfps(), nullptr,
      traced_options(40'000.0));
  EXPECT_EQ(io::result_csv_row(plain), io::result_csv_row(armed));
}

TEST(FaultBitIdentity, ArmedKillWithContextSwitchCostChangesNothing) {
  // Preemption overhead is charged to the incoming job and its budget
  // alike, so an in-contract job that pays it is no overrun: kill
  // containment without faults leaves a run with overhead as it was.
  // Every job takes its WCET, so every preempting job runs past C.
  // Table 1 has no slack for the overhead (tau3's first job would end
  // at 80, as tau2 is released again), so misses are recorded, not
  // thrown; both runs record the same ones.
  const sched::TaskSet tasks = example();
  EngineOptions plain = traced_options(4000.0);
  plain.throw_on_miss = false;
  plain.context_switch_cost = 0.5;
  EngineOptions armed = plain;
  armed.containment.on_overrun = faults::OverrunAction::kKill;
  for (const SchedulerPolicy& policy :
       {SchedulerPolicy::fps(), SchedulerPolicy::lpfps()}) {
    const SimulationResult a = simulate(tasks, cpu(), policy, nullptr, plain);
    const SimulationResult b = simulate(tasks, cpu(), policy, nullptr, armed);
    EXPECT_GT(a.context_switches, 0) << policy.name;
    EXPECT_EQ(b.overruns_detected, 0) << policy.name;
    EXPECT_EQ(b.jobs_killed, 0) << policy.name;
    EXPECT_EQ(io::result_csv_row(a), io::result_csv_row(b)) << policy.name;
    EXPECT_EQ(io::trace_jobs_csv(*a.trace, names(tasks)),
              io::trace_jobs_csv(*b.trace, names(tasks)))
        << policy.name;
  }
}

TEST(FaultValidation, MismatchedOverrunVectorIsRejected) {
  const sched::TaskSet tasks = example();  // Three tasks.
  EngineOptions opts = traced_options(400.0);
  opts.faults.overruns = {{0.5, 0.5}, {0.5, 0.5}};  // Two specs.
  EXPECT_THROW(
      simulate(tasks, cpu(), SchedulerPolicy::lpfps(), nullptr, opts),
      std::logic_error);

  EngineOptions bad = traced_options(400.0);
  bad.faults.overruns = {{1.5, 0.5}};  // Probability out of domain.
  EXPECT_THROW(
      simulate(tasks, cpu(), SchedulerPolicy::lpfps(), nullptr, bad),
      std::logic_error);
}

}  // namespace
}  // namespace lpfps::core
