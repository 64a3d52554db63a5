// Engine-level weakly-hard scheduling (docs/WEAKLY_HARD.md): graceful
// overload degradation, the never-skip differential identity, skip-aware
// DVS and the end of its plans, each trigger of the overload latch, and
// the (m,k) ledger under kill containment.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "audit/harness.h"
#include "core/engine.h"
#include "io/trace_io.h"
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

/// A task with BCET = WCET and an explicit priority (0 = highest).
sched::Task make_at(const char* name, std::int64_t period,
                    std::int64_t deadline, Work wcet, std::int64_t phase,
                    sched::Priority priority) {
  sched::Task task =
      sched::make_task(name, period, deadline, wcet, wcet, phase);
  task.priority = priority;
  return task;
}

/// Instances of `task` the governor skipped, in trace order.
std::vector<std::int64_t> skipped_instances(const SimulationResult& run,
                                            TaskIndex task) {
  std::vector<std::int64_t> out;
  for (const sim::JobRecord& job : run.trace->jobs()) {
    if (job.task == task && job.skipped) out.push_back(job.instance);
  }
  return out;
}

/// A traced run over [0, horizon) that records misses, not throws.
EngineOptions traced_options(Time horizon) {
  EngineOptions options;
  options.horizon = horizon;
  options.record_trace = true;
  options.throw_on_miss = false;
  return options;
}

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

TEST(WeaklyHardEngine, AReleaseThatStaysReadyEndsTheSkipAwarePlan) {
  // "l" (T = D = 100, C = 10) runs alone from 0 under skip-aware DVS: the
  // next arrival that will demand the CPU is "h"'s at 20 (T = D = 50,
  // C = 5, the higher priority; a hard task is never skipped), so l's
  // plan slows it to finish its 10 us of declared work by 20.  Every l
  // job overruns to 30 us under monitor-only detection, so l is still
  // running, with its plan in place, when h is released at 20.  h stays
  // ready, so the plan must end there and h preempt l: it runs [20, 25).
  // "w" (skip-over s = 2, released at 500) only arms the governor.
  sched::TaskSet tasks;
  tasks.add(make_at("h", 50, 50, 5.0, 20, 0));
  tasks.add(make_at("l", 100, 100, 10.0, 0, 1));
  tasks.add(sched::with_skip_parameter(make_at("w", 1000, 1000, 1.0, 500, 2),
                                       2));
  EngineOptions options = traced_options(100);
  options.faults.overruns = {{0.0, 0.0}, {1.0, 2.0}, {0.0, 0.0}};
  options.weakly_hard.policy = weakly_hard::SkipPolicy::kOverload;
  options.weakly_hard.skip_dvs = true;
  const SchedulerPolicy policy = SchedulerPolicy::lpfps();
  const SimulationResult run = simulate(tasks, kCpu, policy, nullptr, options);

  EXPECT_GE(run.dvs_slowdowns, 1);
  EXPECT_GE(run.overruns_detected, 1);
  EXPECT_EQ(run.jobs_skipped_weakly, 0);
  bool h_ran_at_20 = false;
  for (const sim::Segment& segment : run.trace->segments()) {
    if (segment.mode == sim::ProcessorMode::kRunning && segment.task == 0 &&
        segment.begin == 20.0) {
      h_ran_at_20 = true;
    }
  }
  EXPECT_TRUE(h_ran_at_20);
  ASSERT_FALSE(run.trace->jobs().empty());
  const sim::JobRecord& first = run.trace->jobs().front();
  EXPECT_EQ(first.task, 0);
  EXPECT_EQ(first.instance, 0);
  EXPECT_NEAR(first.completion, 25.0, 1e-9);
  const audit::AuditReport report = audit::audit_run(
      run, tasks, kCpu, audit::derive_options(policy, options));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(WeaklyHardEngine, ARampBackAcrossASkippedReleaseSkipsItAtTheRelease) {
  // Fault-free: "w" (T = D = 100, C = 10, phase 3, skip-over s = 2, the
  // higher priority) and "a" (T = D = 400, C = 2) under an
  // always-skipping governor with skip-aware DVS.  At 0 the governor
  // will certainly skip w's release at 3, so a's window runs to 103 and
  // a ramps down from 1 at rho = 0.07 / us.  a completes its 2 us
  // during that ramp, at t - 0.035 t^2 = 2, t = 2.1639, and the L1-L4
  // ramp back to base takes another 2.1639 us, across w's release at 3.
  // The release is due inside the ramp: it is released and skipped at
  // 3, and the clock moves on (an engine that deferred releases until
  // the ramp landed stopped here with "engine livelock at t=3").
  sched::TaskSet tasks;
  tasks.add(sched::with_skip_parameter(make_at("w", 100, 100, 10.0, 3, 0),
                                       2));
  tasks.add(make_at("a", 400, 400, 2.0, 0, 1));
  EngineOptions options = traced_options(400);
  options.weakly_hard.policy = weakly_hard::SkipPolicy::kAlways;
  options.weakly_hard.skip_dvs = true;
  const SchedulerPolicy policy = SchedulerPolicy::lpfps();
  const SimulationResult run = simulate(tasks, kCpu, policy, nullptr, options);

  EXPECT_EQ(skipped_instances(run, 0), (std::vector<std::int64_t>{0, 2}));
  EXPECT_EQ(run.deadline_misses, 0);
  ASSERT_GE(run.trace->jobs().size(), 2u);
  const sim::JobRecord& done = run.trace->jobs()[0];
  EXPECT_EQ(done.task, 1);
  EXPECT_NEAR(done.completion, (1.0 - std::sqrt(0.72)) / 0.07, 1e-9);
  const sim::JobRecord& skipped = run.trace->jobs()[1];
  EXPECT_TRUE(skipped.skipped);
  EXPECT_EQ(skipped.completion, 3.0);
  const audit::AuditReport report = audit::audit_run(
      run, tasks, kCpu, audit::derive_options(policy, options));
  EXPECT_TRUE(report.ok()) << report.to_string();
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

// The dynamic latch (kOverload on a hard-feasible set): each case below
// runs a set whose hard RTA passes, so the structural latch stays down,
// and lets exactly one trigger raise the dynamic latch.

TEST(WeaklyHardLatch, DetectedOverrunRaisesItUntilTheNextIdleInstant) {
  // U = 0.27, R_firm = 10 + 20 = 30 <= 150.  Every "hard" job (T = 100,
  // C = 20) overruns to 30 under monitor-only detection: the overrun is
  // detected at 100k + 20, the job runs on to 100k + 30, and the CPU
  // idles there.  "firm" ((1,3)-firm, T = D = 150, C = 10, phase 25) is
  // released at 25 + 150i:
  //   * even i (25 + 300j) lands in [100k + 20, 100k + 30]: the latch is
  //     up and the window (last job met) permits a skip, so it is spent;
  //   * odd i (175 + 300j) comes after the idle instant at 100k + 30
  //     cleared the latch: the job runs and meets its deadline.
  // The probe never fires: at each firm release the hard job in flight,
  // if any, is past its declared budget.  Over [0, 3000): 20 firm
  // releases, the 10 even ones skipped; 30 hard jobs, all overrunning.
  sched::TaskSet tasks;
  tasks.add(make_at("hard", 100, 100, 20.0, 0, 0));
  tasks.add(sched::with_mk_constraint(make_at("firm", 150, 150, 10.0, 25, 1),
                                      1, 3));
  EngineOptions options = traced_options(3000);
  options.faults.overruns = {{1.0, 0.5}, {0.0, 0.0}};
  const SimulationResult run =
      simulate(tasks, kCpu, SchedulerPolicy::fps(), nullptr, options);

  EXPECT_EQ(run.overruns_detected, 30);
  EXPECT_EQ(run.deadline_misses, 0);
  EXPECT_EQ(run.jobs_skipped_weakly, 10);
  EXPECT_EQ(skipped_instances(run, 1),
            (std::vector<std::int64_t>{0, 2, 4, 6, 8, 10, 12, 14, 16, 18}));
  EXPECT_EQ(run.jobs_completed, 30 + 10);
  EXPECT_EQ(run.mk_violations, 0);
  // The worst (1,3) window is skip, met, skip: one met, slack 0.
  EXPECT_EQ(run.weakly_hard_worst_slack[1], 0);
}

TEST(WeaklyHardLatch, ActualMissRaisesIt) {
  // No fault and no overrun: the trouble is context-switch overhead,
  // which the RTA (R_firm = 59 + 2 * 20 = 99 <= 100) does not model.
  // U = 0.92.  "hard" (T = 60, C = 20) preempts "firm" ((1,3)-firm,
  // T = D = 100, C = 59), and each preemption adds 2 us to the hard job.
  // Per 300 us hyperperiod, from its start s:
  //   * firm 3j, released at s behind hard, runs [s + 20, s + 60), waits
  //     out the 22 us hard job and completes at s + 101: a miss by 1 us.
  //     The miss raises the latch; firm 3j+1, due at s + 100, is
  //     released at s + 101 with the latch up and a window (miss, then
  //     met) that permits the skip.  The CPU then idles, clearing it.
  //   * firm 3j+2 is released at s + 200 as a hard job ends, runs
  //     [s + 200, s + 240), is preempted, and completes at s + 281: met.
  // The probe never fires: the declared demand at a firm release is at
  // most 59 + 20 = 79 us against 100.  Over [0, 600): firm 0 and 3 miss,
  // firm 1 and 4 are skipped.
  sched::TaskSet tasks;
  tasks.add(make_at("hard", 60, 60, 20.0, 0, 0));
  tasks.add(sched::with_mk_constraint(make_at("firm", 100, 100, 59.0, 0, 1),
                                      1, 3));
  EngineOptions options = traced_options(600);
  options.context_switch_cost = 2.0;
  const SimulationResult run =
      simulate(tasks, kCpu, SchedulerPolicy::fps(), nullptr, options);

  EXPECT_EQ(run.overruns_detected, 0);
  EXPECT_EQ(run.context_switches, 4);
  EXPECT_EQ(run.deadline_misses, 2);
  EXPECT_EQ(skipped_instances(run, 1), (std::vector<std::int64_t>{1, 4}));
  EXPECT_EQ(run.jobs_skipped_weakly, 2);
  EXPECT_EQ(run.jobs_completed, 10 + 4);
  EXPECT_EQ(run.mk_violations, 0);
  EXPECT_EQ(run.weakly_hard_worst_slack[1], 0);
}

TEST(WeaklyHardLatch, ReleasePressureFromHigherPriorityDemandRaisesIt) {
  // Priorities hard > firm > low; R_firm = 20 + 20 = 40 <= D = 40 and
  // R_low = 40 + 20 + 20 = 80 <= 200, U = 0.47.  "low" (T = 200, C = 40)
  // starts at 200j; "hard" (T = 100, C = 20, phase 10) preempts it at
  // 200j + 10, and the 2 us overhead of that preemption is charged to the
  // hard job.  "firm" ((1,2)-firm, T = 300, D = 40, C = 20, phase 11):
  //   * firm 0, released at 11 with that hard job in flight, faces
  //     20 + (20 + 2 - 1) = 41 us of declared demand before a deadline
  //     40 us away.  The probe raises the latch and the job is skipped
  //     (it would complete at 52, past its deadline at 51).  "low" is in
  //     flight too, but lower-priority demand does not count;
  //   * firm 1, released at 311 with hard job 3 in flight (no preemption,
  //     so no overhead), faces 20 + 19 = 39 us: it runs [330, 350) and
  //     meets its deadline at 351.
  sched::TaskSet tasks;
  tasks.add(make_at("hard", 100, 100, 20.0, 10, 0));
  tasks.add(sched::with_mk_constraint(make_at("firm", 300, 40, 20.0, 11, 1),
                                      1, 2));
  tasks.add(make_at("low", 200, 200, 40.0, 0, 2));
  EngineOptions options = traced_options(600);
  options.context_switch_cost = 2.0;
  const SimulationResult run =
      simulate(tasks, kCpu, SchedulerPolicy::fps(), nullptr, options);

  EXPECT_EQ(run.deadline_misses, 0);
  EXPECT_EQ(skipped_instances(run, 1), (std::vector<std::int64_t>{0}));
  EXPECT_EQ(run.jobs_skipped_weakly, 1);
  EXPECT_EQ(run.mk_violations, 0);
  EXPECT_EQ(run.weakly_hard_worst_slack[1], 0);
}

TEST(WeaklyHardLatch, ReleaseProbeIgnoresLowerPriorityDemand) {
  // "firm" ((1,2)-firm, T = 100, D = 50, C = 10, phase 20) is released
  // at 20 + 100i while "low" (T = 200, C = 150) is in flight with 130 us
  // (even i) or 40 us (odd i) of its demand left.  Counted, the 130 us
  // would make 140 us of demand against 50 to firm's deadline and raise
  // the latch at every even release.  But firm preempts low, so its own
  // 10 us are all that stand before its deadline, and nothing raises
  // the latch.  R_low = 150 + 2 * 10 = 170 <= 200, U = 0.85.
  sched::TaskSet tasks;
  tasks.add(sched::with_mk_constraint(make_at("firm", 100, 50, 10.0, 20, 0),
                                      1, 2));
  tasks.add(make_at("low", 200, 200, 150.0, 0, 1));
  const SimulationResult run = simulate(tasks, kCpu, SchedulerPolicy::fps(),
                                        nullptr, traced_options(1000));

  EXPECT_EQ(run.deadline_misses, 0);
  EXPECT_EQ(run.jobs_skipped_weakly, 0);
  EXPECT_EQ(run.jobs_completed, 10 + 5);
}

TEST(WeaklyHardContainment, KilledAndForfeitedJobsFailInTheLedger) {
  // FaultKill.ForfeitsTheWindowsTheOverrunConsumed's pair with "t2"
  // (2,3)-firm: "t1" (T = 10, C = 6) preempts t2 (T = 15, D = 9,
  // C = 5.5), whose every job overruns to 8.25 and is killed at its
  // 5.5 us budget.  Its hard RTA fails (R_t2 = 17.5 > 9), so the
  // structural latch is up from t = 0 and every permitted skip is spent:
  //   * t2 0 (t = 0): pre-history permits the skip;
  //   * t2 1 (15): runs [16, 20) and [26, 27.5), killed before its next
  //     release at 30;
  //   * t2 2j (30j, j = 1..9): killed at 30j + 17.5, past the release of
  //     t2 2j+1 at 30j + 15, whose window is forfeited.
  // No later window holds the two met jobs a skip needs.  The ledger
  // settles skip, kill, kill, forfeit, kill, forfeit, ..., kill,
  // forfeit: 20 outcomes, met_in_last(3) - 2 = 0 after the skip, -1
  // after the first kill and -2 from then on, so 19 violations.
  sched::TaskSet tasks;
  tasks.add(sched::make_task("t1", 10, 6.0));
  tasks.add(sched::with_mk_constraint(sched::make_task("t2", 15, 9, 5.5, 5.5),
                                      2, 3));
  sched::assign_rate_monotonic(tasks);
  EngineOptions options = traced_options(300);
  options.faults.overruns = {{0.0, 0.0}, {1.0, 0.5}};
  options.containment.on_overrun = faults::OverrunAction::kKill;
  const SimulationResult run =
      simulate(tasks, kCpu, SchedulerPolicy::fps(), nullptr, options);

  EXPECT_EQ(run.deadline_misses, 0);
  EXPECT_EQ(skipped_instances(run, 1), (std::vector<std::int64_t>{0}));
  EXPECT_EQ(run.jobs_killed, 10);
  EXPECT_EQ(run.jobs_skipped, 9);
  EXPECT_EQ(run.mk_violations, 19);
  EXPECT_EQ(run.weakly_hard_worst_slack[1], -2);
  EXPECT_EQ(run.weakly_hard_worst_slack[0],
            weakly_hard::SkipGovernor::kHardTaskSlack);
}

}  // namespace
}  // namespace lpfps::core
