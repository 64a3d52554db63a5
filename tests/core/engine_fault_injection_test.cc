// Fault injection and containment: the engine must stay bit-identical
// with the fault layer disarmed, inject each overrun by task index with
// the planned size, contain overruns under kill, and fail toward plain
// FPS under the safe-mode fallback — all while the trace auditor's
// fault-aware battery stays clean.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "audit/harness.h"
#include "core/sim_state.h"
#include "fleet/fleet.h"
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

TEST(FaultKill, AReleaseDuringTheRampAfterAKillWaitsForTheRamp) {
  // "w" (T = D = 100, C = 10, phase 3, skip-over s = 2, the higher
  // priority) and "a" (T = D = 400, C = 2), under an always-skipping
  // governor with skip-aware DVS; every job of a overruns and is killed.
  // At 0 the governor will certainly skip w's release at 3, so a's
  // window runs to 103: 2 / 103 quantizes up to ratio 0.08, and a ramps
  // down from 1 at rho = 0.07 / us.  Its budget of 2 is spent during
  // that ramp, at t - 0.035 t^2 = 2, t = 2.1639 (ratio 0.8485).  The
  // kill ends the plan, and the ramp back to base takes another
  // 2.1639 us, across w's release at 3: the engine releases w at 3,
  // where the governor skips it, and dispatch waits for the ramp to
  // land at 4.3278.  Every skip is decided at its release instant, so
  // the run audits clean.
  sched::TaskSet tasks;
  sched::Task w = sched::with_skip_parameter(
      sched::make_task("w", 100, 100, 10.0, 10.0, /*phase=*/3), 2);
  w.priority = 0;
  sched::Task a = sched::make_task("a", 400, 2.0);
  a.priority = 1;
  tasks.add(w);
  tasks.add(a);
  EngineOptions opts = traced_options(400.0);
  opts.throw_on_miss = false;
  opts.faults.overruns = {{0.0, 0.0}, {1.0, 1.0}};
  opts.containment.on_overrun = faults::OverrunAction::kKill;
  opts.weakly_hard.policy = weakly_hard::SkipPolicy::kAlways;
  opts.weakly_hard.skip_dvs = true;

  const SimulationResult result =
      simulate(tasks, cpu(), SchedulerPolicy::lpfps(), nullptr, opts);

  EXPECT_EQ(result.jobs_killed, 1);
  // The root of t - 0.035 t^2 = 2; the ramp back covers the same span.
  const Time kill = (1.0 - std::sqrt(0.72)) / 0.07;
  const Time ramp_end = 2.0 * kill;
  ASSERT_GE(result.trace->segments().size(), 2u);
  const sim::Segment& ramp = result.trace->segments()[1];
  EXPECT_NEAR(ramp.begin, kill, 1e-9);
  EXPECT_EQ(ramp.mode, sim::ProcessorMode::kRamping);
  EXPECT_NEAR(ramp.end, ramp_end, 1e-9);
  ASSERT_GE(result.trace->jobs().size(), 2u);
  const sim::JobRecord& killed = result.trace->jobs()[0];
  EXPECT_TRUE(killed.killed);
  EXPECT_NEAR(killed.completion, kill, 1e-9);
  const sim::JobRecord& skipped = result.trace->jobs()[1];
  EXPECT_TRUE(skipped.skipped);
  EXPECT_EQ(skipped.release, 3.0);
  EXPECT_EQ(skipped.completion, 3.0);
  expect_audit_clean(result, tasks, SchedulerPolicy::lpfps(), opts);
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

// ---- Overrun injection: SimState::start_job draws each overrun by task
// index, after the execution-time model's sample.

/// Two tasks with room for doubled jobs: "a" (T = 100, C = 20) and "b"
/// (T = 200, C = 40), both with BCET C / 4.
sched::TaskSet overrun_pair() {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("a", 100, 100, 20.0, 5.0));
  tasks.add(sched::make_task("b", 200, 200, 40.0, 10.0));
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

TEST(FaultOverrun, ADisabledSpecAddsNoDraw) {
  // "late" carries the plan's one enabled spec but is first released
  // past the horizon, so the armed run draws what the unarmed run
  // draws: one Gaussian sample per job of "t" and no uniform.  Plain
  // FPS never ramps, so arming changes nothing else.
  sched::TaskSet tasks;
  tasks.add(sched::make_task("t", 100, 100, 20.0, 5.0));
  tasks.add(sched::make_task("late", 1000, 1000, 10.0, 10.0,
                             /*phase=*/100'000));
  sched::assign_rate_monotonic(tasks);
  const auto gauss = std::make_shared<exec::ClampedGaussianModel>();
  const EngineOptions plain = traced_options(4000.0);
  EngineOptions armed = plain;
  armed.faults.overruns = {{0.0, 0.0}, {1.0, 1.0}};

  const SimulationResult a =
      simulate(tasks, cpu(), SchedulerPolicy::fps(), gauss, plain);
  const SimulationResult b =
      simulate(tasks, cpu(), SchedulerPolicy::fps(), gauss, armed);

  EXPECT_EQ(b.jobs_completed, 40);
  EXPECT_EQ(b.overruns_detected, 0);
  EXPECT_EQ(io::result_csv_row(a), io::result_csv_row(b));
  EXPECT_EQ(io::trace_jobs_csv(*a.trace, names(tasks)),
            io::trace_jobs_csv(*b.trace, names(tasks)));
}

TEST(FaultOverrun, ACertainOverrunIsExactlyItsPlannedSize) {
  // Every job overruns to wcet * 1.5 under monitor.  The Gaussian
  // samples below the WCET, so a demand built from the sample would
  // show in the executed work.
  const sched::TaskSet tasks = overrun_pair();
  EngineOptions opts = traced_options(2000.0);
  opts.faults.overruns = {{1.0, 0.5}};

  const SimulationResult result =
      simulate(tasks, cpu(), SchedulerPolicy::fps(),
               std::make_shared<exec::ClampedGaussianModel>(), opts);

  EXPECT_EQ(result.jobs_completed, 30);
  EXPECT_EQ(result.overruns_detected, 30);
  EXPECT_EQ(result.deadline_misses, 0);
  for (const sim::JobRecord& job : result.trace->jobs()) {
    EXPECT_EQ(job.executed, tasks[job.task].wcet * 1.5)
        << tasks[job.task].name << " #" << job.instance;
  }
}

TEST(FaultOverrun, TheProbabilitySetsTheOverrunRate) {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("t", 10, 2.0));
  sched::assign_rate_monotonic(tasks);
  EngineOptions opts = traced_options(200'000.0);
  opts.faults.overruns = {{0.25, 1.0}};

  const SimulationResult result =
      simulate(tasks, cpu(), SchedulerPolicy::fps(), nullptr, opts);

  ASSERT_EQ(result.jobs_completed, 20'000);
  int overruns = 0;
  for (const sim::JobRecord& job : result.trace->jobs()) {
    if (job.executed == 2.0) continue;
    EXPECT_EQ(job.executed, 4.0) << "#" << job.instance;
    ++overruns;
  }
  EXPECT_EQ(overruns, result.overruns_detected);
  EXPECT_NEAR(static_cast<double>(overruns) / 20'000.0, 0.25, 0.02);
}

/// Executed work per task, over every completed job of `result`.
std::vector<std::vector<Work>> executed_by_task(
    const SimulationResult& result, std::size_t task_count) {
  std::vector<std::vector<Work>> out(task_count);
  for (const sim::JobRecord& job : result.trace->jobs()) {
    out[static_cast<std::size_t>(job.task)].push_back(job.executed);
  }
  return out;
}

TEST(FaultOverrun, PerTaskSpecsApplyToTheirOwnTasks) {
  const sched::TaskSet tasks = overrun_pair();
  EngineOptions opts = traced_options(2000.0);
  opts.faults.overruns = {{0.0, 0.0}, {1.0, 1.0}};

  const SimulationResult result =
      simulate(tasks, cpu(), SchedulerPolicy::fps(), nullptr, opts);

  const auto executed = executed_by_task(result, tasks.size());
  EXPECT_EQ(executed[0], std::vector<Work>(20, 20.0));
  EXPECT_EQ(executed[1], std::vector<Work>(10, 80.0));
  EXPECT_EQ(result.overruns_detected, 10);
}

TEST(FaultOverrun, PerTaskSpecsApplyByIndexWhenNamesRepeat) {
  // A TaskSet may repeat a name; the spec is the task's by position.
  sched::TaskSet tasks;
  tasks.add(sched::make_task("a", 100, 100, 20.0, 5.0));
  tasks.add(sched::make_task("a", 200, 200, 40.0, 10.0));
  sched::assign_rate_monotonic(tasks);
  EngineOptions opts = traced_options(2000.0);
  opts.faults.overruns = {{0.0, 0.0}, {1.0, 1.0}};

  const SimulationResult result =
      simulate(tasks, cpu(), SchedulerPolicy::fps(), nullptr, opts);

  const auto executed = executed_by_task(result, tasks.size());
  EXPECT_EQ(executed[0], std::vector<Work>(20, 20.0));
  EXPECT_EQ(executed[1], std::vector<Work>(10, 80.0));
  EXPECT_EQ(result.overruns_detected, 10);
}

/// An ordinary model that breaks its contract: every job takes twice
/// its WCET.
class OverWcetModel final : public exec::ExecutionTimeModel {
 public:
  Work sample(const sched::Task& task, Rng&) const override {
    return 2.0 * task.wcet;
  }
  std::string name() const override { return "over-wcet"; }
};

TEST(FaultOverrun, AnOverWcetSampleThrowsWhileOverrunsAreArmed) {
  // Only the engine injects overruns; a model's sample past the WCET is
  // a broken model, armed plan or not.
  const sched::TaskSet tasks = overrun_pair();
  const auto model = std::make_shared<OverWcetModel>();
  EngineOptions plain = traced_options(400.0);
  plain.throw_on_miss = false;
  EngineOptions armed = plain;
  armed.faults.overruns = {{0.5, 0.5}};
  EXPECT_THROW(
      simulate(tasks, cpu(), SchedulerPolicy::fps(), model, plain),
      std::logic_error);
  EXPECT_THROW(
      simulate(tasks, cpu(), SchedulerPolicy::fps(), model, armed),
      std::logic_error);
}

// ---- Hostile fault plans: a plan is the overrun list, so every field
// of it is fuzzed here, as tests/io/task_set_io_test.cc fuzzes task
// files.

/// One hostile or ordinary double.
double hostile_value(std::mt19937_64& rng) {
  static constexpr double kValues[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -1.0,
      -std::numeric_limits<double>::denorm_min(),
      -0.0,
      0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      1e-300,
      0.25,
      0.5,
      1.0,
      std::nextafter(1.0, 2.0),
      3.0,
      1e300,
      std::numeric_limits<double>::max(),
  };
  return kValues[rng() % std::size(kValues)];
}

TEST(FaultPlanHostile, SeededPlansCompleteOrFailNamingTheField) {
  // Each seeded plan runs through core::simulate and the sharded fleet
  // under monitor or kill: it completes with the same result on both,
  // or both throw the same std::logic_error, which names the rejected
  // field and is no internal check.
  std::mt19937_64 rng(27);
  const sched::TaskSet tasks = example(0.5);  // Three tasks.
  const auto gauss = std::make_shared<exec::ClampedGaussianModel>();
  std::vector<fleet::SimSpec> accepted;
  std::vector<SimulationResult> expected;
  int rejected = 0;
  for (int round = 0; round < 3000; ++round) {
    fleet::SimSpec spec{tasks, cpu(),
                        round % 2 == 0 ? SchedulerPolicy::fps()
                                       : SchedulerPolicy::lpfps(),
                        round % 3 == 0 ? nullptr : gauss, EngineOptions{}};
    spec.options.horizon = 400.0;
    spec.options.throw_on_miss = false;
    spec.options.seed = static_cast<std::uint64_t>(round);
    spec.options.containment.on_overrun =
        rng() % 2 == 0 ? faults::OverrunAction::kNone
                       : faults::OverrunAction::kKill;
    spec.options.containment.safe_mode_fallback = rng() % 2 == 0;
    spec.options.faults.overruns.resize(rng() % (tasks.size() + 3));
    for (faults::OverrunFault& fault : spec.options.faults.overruns) {
      fault.probability = rng() % 2 == 0 ? hostile_value(rng) : 1.0;
      fault.magnitude = rng() % 2 == 0 ? hostile_value(rng) : 0.5;
    }
    try {
      expected.push_back(simulate(spec.tasks, spec.processor, spec.policy,
                                  spec.exec_model, spec.options));
      accepted.push_back(spec);
    } catch (const std::logic_error& error) {
      const std::string message = error.what();
      EXPECT_TRUE(message.find("probability") != std::string::npos ||
                  message.find("magnitude") != std::string::npos ||
                  message.find("FaultPlan::overruns") != std::string::npos)
          << "round " << round << ": " << message;
      EXPECT_EQ(message.find("check failed"), std::string::npos)
          << "round " << round << ": " << message;
      std::string fleet_message = "no std::logic_error";
      try {
        (void)fleet::run_fleet_sharded({spec}, {}, 1);
      } catch (const std::logic_error& fleet_error) {
        fleet_message = fleet_error.what();
      }
      EXPECT_EQ(fleet_message, message) << "round " << round;
      ++rejected;
    }
  }
  const std::vector<SimulationResult> sharded =
      fleet::run_fleet_sharded(accepted, {}, 2);
  ASSERT_EQ(sharded.size(), expected.size());
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    EXPECT_EQ(io::result_csv_row(sharded[i]) +
                  io::result_fault_csv_row(sharded[i]),
              io::result_csv_row(expected[i]) +
                  io::result_fault_csv_row(expected[i]))
        << "accepted plan " << i;
  }
  // Both outcomes occur, so the plans neither all pass nor all fail.
  EXPECT_GT(accepted.size(), 500u);
  EXPECT_GT(rejected, 500);
}

/// Runs `spec` through core::simulate and the sharded fleet: both
/// complete with the same row, or both throw the same std::logic_error,
/// which is returned ("" when both complete).
std::string simulate_both_ways(const fleet::SimSpec& spec) {
  std::string message;
  std::string row;
  try {
    const SimulationResult result = simulate(
        spec.tasks, spec.processor, spec.policy, spec.exec_model, spec.options);
    row = io::result_csv_row(result);
  } catch (const std::logic_error& error) {
    message = error.what();
  }
  std::string fleet_message;
  std::string fleet_row;
  try {
    fleet_row = io::result_csv_row(fleet::run_fleet_sharded({spec}, {}, 1)[0]);
  } catch (const std::logic_error& error) {
    fleet_message = error.what();
  }
  EXPECT_EQ(fleet_message, message);
  EXPECT_EQ(fleet_row, row);
  return message;
}

/// Finite horizons at and around the engine's 2^53 us bound.
double huge_horizon(std::mt19937_64& rng) {
  static const double kValues[] = {
      1e12, 0x1p53, std::nextafter(0x1p53, 0x1p54), 1e19, 1e300,
      std::numeric_limits<double>::max(),
  };
  return kValues[rng() % std::size(kValues)];
}

TEST(EngineOptionsHostile, SeededOptionsCompleteOrFailNamingTheField) {
  // Each seeded horizon, context-switch cost and jitter vector runs
  // through core::simulate and the sharded fleet: it completes alike on
  // both, or both throw a std::logic_error that names the rejected
  // field and value and is no internal check.  A finite horizon in
  // (400, 2^53] is a long run, not a hostile value, so it is run at 400.
  std::mt19937_64 rng(28);
  const sched::TaskSet tasks = example(0.5);  // Three tasks.
  const auto gauss = std::make_shared<exec::ClampedGaussianModel>();
  int completed = 0;
  int rejected = 0;
  for (int round = 0; round < 3000; ++round) {
    fleet::SimSpec spec{tasks, cpu(),
                        round % 2 == 0 ? SchedulerPolicy::fps()
                                       : SchedulerPolicy::lpfps(),
                        round % 3 == 0 ? nullptr : gauss, EngineOptions{}};
    spec.options.throw_on_miss = false;
    spec.options.seed = static_cast<std::uint64_t>(round);
    spec.options.horizon = 400.0;
    if (rng() % 4 == 0) {
      const double h =
          rng() % 2 == 0 ? hostile_value(rng) : huge_horizon(rng);
      spec.options.horizon = h > 400.0 && h <= 0x1p53 ? 400.0 : h;
    }
    if (rng() % 4 == 0) spec.options.context_switch_cost = hostile_value(rng);
    if (rng() % 2 == 0) {
      spec.options.release_jitter.resize(
          rng() % 4 == 0 ? rng() % (tasks.size() + 2) : tasks.size());
      for (Time& j : spec.options.release_jitter) {
        j = rng() % 3 == 0 ? hostile_value(rng) : 5.0;
      }
    }
    const std::string message = simulate_both_ways(spec);
    if (message.empty()) {
      ++completed;
      continue;
    }
    ++rejected;
    EXPECT_TRUE(message.find("EngineOptions::horizon") != std::string::npos ||
                message.find("EngineOptions::context_switch_cost") !=
                    std::string::npos ||
                message.find("EngineOptions::release_jitter") !=
                    std::string::npos)
        << "round " << round << ": " << message;
    EXPECT_TRUE(message.find(", got ") != std::string::npos)
        << "round " << round << ": " << message;
    EXPECT_EQ(message.find("check failed"), std::string::npos)
        << "round " << round << ": " << message;
  }
  EXPECT_GT(completed, 500);
  EXPECT_GT(rejected, 500);
}

TEST(EngineOptionsHostile, RejectionsNameTheFieldAndTheValue) {
  const sched::TaskSet tasks = example(0.5);
  const auto message = [&](const EngineOptions& options) {
    return simulate_both_ways(
        {tasks, cpu(), SchedulerPolicy::lpfps(), nullptr, options});
  };
  EngineOptions opts = traced_options(400.0);
  opts.horizon = std::numeric_limits<double>::infinity();
  EXPECT_EQ(message(opts),
            "EngineOptions::horizon must be finite and positive, got inf");
  opts.horizon = 0.0;
  EXPECT_EQ(message(opts),
            "EngineOptions::horizon must be finite and positive, got 0");
  // Past 2^53 us a release instant is no longer an exact double; 1e300
  // used to run without end.
  opts.horizon = std::nextafter(0x1p53, 0x1p54);
  EXPECT_EQ(message(opts),
            "EngineOptions::horizon must be at most 2^53 us, got "
            "9007199254740994");
  opts.horizon = 1e300;
  EXPECT_EQ(message(opts),
            "EngineOptions::horizon must be at most 2^53 us, got 1e+300");
  opts.horizon = 400.0;
  opts.context_switch_cost = -0.5;
  EXPECT_EQ(message(opts),
            "EngineOptions::context_switch_cost must be finite and "
            "non-negative, got -0.5");
  opts.context_switch_cost = 0.0;
  opts.release_jitter = {0.0, std::numeric_limits<double>::quiet_NaN(), 1.0};
  EXPECT_EQ(message(opts),
            "EngineOptions::release_jitter[1] must be finite and "
            "non-negative, got nan");
  opts.release_jitter = {0.0, 0.0, std::numeric_limits<double>::infinity()};
  EXPECT_EQ(message(opts),
            "EngineOptions::release_jitter[2] must be finite and "
            "non-negative, got inf");
  opts.release_jitter = {0.0};
  EXPECT_EQ(message(opts),
            "EngineOptions::release_jitter must be empty or have one entry "
            "per task (3), got 1 entries");
}

TEST(EngineOptionsHostile, ATracedRunAtTheLongestHorizonStarts) {
  // The trace reserves for a capped number of jobs.  Reserving for
  // horizon / T jobs per task used to throw before the first event
  // (std::bad_alloc for a traced 1e12 us run, std::length_error for
  // 1e19).  SimState borrows its inputs, so each one outlives it.
  const sched::TaskSet tasks = example(0.5);
  const power::ProcessorConfig processor = cpu();
  const SchedulerPolicy policy = SchedulerPolicy::lpfps();
  const EngineOptions opts = traced_options(0x1p53);
  SimState sim(tasks, processor, policy, nullptr, opts);
  sim.begin();
  for (int i = 0; i < 100; ++i) sim.step();
  EXPECT_FALSE(sim.finished());
}

TEST(EngineSpec, ADeadlinePastThePeriodIsRejectedNamingTheTask) {
  // The engine queues a job's next release at its completion, so a
  // deadline past the period would queue a release in the past; this
  // LPFPS run used to stop at an internal check 1000 us in.
  sched::TaskSet tasks;
  tasks.add(sched::make_task("h", 100000, 100000, 1.0, 1.0, 50000));
  tasks.add(sched::make_task("l", 125, 305, 30.47, 30.47, 0));
  sched::assign_rate_monotonic(tasks);
  EngineOptions opts;
  opts.horizon = 1000.0;
  opts.throw_on_miss = false;
  EXPECT_EQ(simulate_both_ways(
                {tasks, cpu(), SchedulerPolicy::lpfps(), nullptr, opts}),
            "task 'l': deadline 305 exceeds its period 125 (D <= T "
            "required)");
}

}  // namespace
}  // namespace lpfps::core
