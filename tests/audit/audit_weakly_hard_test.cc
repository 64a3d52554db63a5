// Adversarial weakly-hard auditor tests (W-codes): hand-build traces
// with sim::Trace::unchecked, corrupt one invariant at a time, and
// require the precise catalog code — plus W4 counter-agreement on a
// real engine run with counters corrupted after the fact.
#include "audit/audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/engine.h"
#include "sched/priority.h"
#include "sched/task.h"
#include "sim/trace.h"

namespace lpfps::audit {
namespace {

using sim::JobRecord;
using sim::ProcessorMode;
using sim::Segment;

/// One (1,2)-firm task: period 100, WCET 50, every other job skippable.
sched::TaskSet firm_tasks() {
  sched::TaskSet tasks;
  tasks.add(sched::with_mk_constraint(sched::make_task("firm", 100, 50.0),
                                      1, 2));
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

Segment seg(Time begin, Time end, ProcessorMode mode,
            TaskIndex task = kNoTask) {
  Segment s;
  s.begin = begin;
  s.end = end;
  s.mode = mode;
  s.task = task;
  s.ratio_begin = 1.0;
  s.ratio_end = 1.0;
  return s;
}

JobRecord met_job(std::int64_t instance) {
  JobRecord j;
  j.task = 0;
  j.instance = instance;
  j.release = 100.0 * static_cast<Time>(instance);
  j.absolute_deadline = j.release + 100.0;
  j.completion = j.release + 50.0;
  j.executed = 50.0;
  j.finished = true;
  return j;
}

JobRecord skip_job(std::int64_t instance) {
  JobRecord j;
  j.task = 0;
  j.instance = instance;
  j.release = 100.0 * static_cast<Time>(instance);
  j.absolute_deadline = j.release + 100.0;
  j.completion = j.release;  // Decided at the release instant.
  j.executed = 0.0;
  j.finished = false;
  j.skipped = true;
  return j;
}

/// run, skip, run over [0, 300): the clean weakly-hard reference.
std::vector<Segment> clean_segments() {
  return {seg(0.0, 50.0, ProcessorMode::kRunning, 0),
          seg(50.0, 200.0, ProcessorMode::kIdleBusyWait),
          seg(200.0, 250.0, ProcessorMode::kRunning, 0),
          seg(250.0, 300.0, ProcessorMode::kIdleBusyWait)};
}

std::vector<JobRecord> clean_jobs() {
  return {met_job(0), skip_job(1), met_job(2)};
}

AuditOptions weakly_options() {
  AuditOptions options;
  options.weakly_hard = true;
  return options;
}

bool has_code(const AuditReport& report, const std::string& code) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const Violation& v) { return v.invariant == code; });
}

TEST(WeaklyHardAuditor, CleanSkipTracePasses) {
  const sim::Trace trace =
      sim::Trace::unchecked(clean_segments(), clean_jobs());
  const AuditReport report =
      audit_trace(trace, firm_tasks(), 300.0, weakly_options());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(WeaklyHardAuditor, SleepAcrossSkippedReleaseNeedsTheWeaklyHardBattery) {
  // Power-down spanning the skipped release: a plain audit must object
  // (S2.asleep — the sleep timer overran an arrival), while the
  // weakly-hard battery legitimizes it, because a skipped release never
  // demands the CPU.  This is the differential that proves the W
  // battery relaxes exactly the skip instants and nothing else.
  std::vector<Segment> segments = {
      seg(0.0, 50.0, ProcessorMode::kRunning, 0),
      seg(50.0, 200.0, ProcessorMode::kPowerDown),
      seg(200.0, 250.0, ProcessorMode::kRunning, 0),
      seg(250.0, 300.0, ProcessorMode::kIdleBusyWait)};
  const sim::Trace trace =
      sim::Trace::unchecked(std::move(segments), clean_jobs());
  const AuditReport plain = audit_trace(trace, firm_tasks(), 300.0);
  EXPECT_FALSE(plain.ok());
  EXPECT_TRUE(has_code(plain, "S2.asleep")) << plain.to_string();
  const AuditReport weakly =
      audit_trace(trace, firm_tasks(), 300.0, weakly_options());
  EXPECT_TRUE(weakly.ok()) << weakly.to_string();
}

TEST(WeaklyHardAuditor, CatchesWindowViolation) {
  // Two consecutive non-met instances on a (1,2)-firm task: the window
  // ending at instance 1 holds zero met jobs.
  auto jobs = clean_jobs();
  jobs[0] = skip_job(0);  // skip, skip, run.
  std::vector<Segment> segments = {
      seg(0.0, 200.0, ProcessorMode::kIdleBusyWait),
      seg(200.0, 250.0, ProcessorMode::kRunning, 0),
      seg(250.0, 300.0, ProcessorMode::kIdleBusyWait)};
  const sim::Trace trace =
      sim::Trace::unchecked(std::move(segments), std::move(jobs));
  const AuditReport report =
      audit_trace(trace, firm_tasks(), 300.0, weakly_options());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "W1.window")) << report.to_string();
  // The second skip was also impermissible (instance 0 not met).
  EXPECT_TRUE(has_code(report, "W2.impermissible")) << report.to_string();
}

TEST(WeaklyHardAuditor, CatchesImpermissibleSkipOverSkip) {
  // skip-over s = 2 forbids skips among the s-1 preceding jobs; a
  // second adjacent skip is impermissible even though the first was
  // fine.
  sched::TaskSet tasks;
  tasks.add(sched::with_skip_parameter(sched::make_task("skippy", 100, 50.0),
                                       2));
  sched::assign_rate_monotonic(tasks);
  std::vector<Segment> segments = {
      seg(0.0, 50.0, ProcessorMode::kRunning, 0),
      seg(50.0, 300.0, ProcessorMode::kIdleBusyWait),
      seg(300.0, 350.0, ProcessorMode::kRunning, 0),
      seg(350.0, 400.0, ProcessorMode::kIdleBusyWait)};
  std::vector<JobRecord> jobs = {met_job(0), skip_job(1), skip_job(2),
                                 met_job(3)};
  const sim::Trace trace =
      sim::Trace::unchecked(std::move(segments), std::move(jobs));
  const AuditReport report =
      audit_trace(trace, tasks, 400.0, weakly_options());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "W2.impermissible")) << report.to_string();
}

TEST(WeaklyHardAuditor, CatchesSkipOnHardTask) {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("hard", 100, 50.0));
  sched::assign_rate_monotonic(tasks);
  const sim::Trace trace =
      sim::Trace::unchecked(clean_segments(), clean_jobs());
  const AuditReport report =
      audit_trace(trace, tasks, 300.0, weakly_options());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "W3.hard-skip")) << report.to_string();
}

TEST(WeaklyHardAuditor, CatchesSkipRecordShapeCorruption) {
  {
    auto jobs = clean_jobs();
    jobs[1].finished = true;  // A skip cannot also have finished.
    const sim::Trace trace =
        sim::Trace::unchecked(clean_segments(), std::move(jobs));
    const AuditReport report =
        audit_trace(trace, firm_tasks(), 300.0, weakly_options());
    EXPECT_TRUE(has_code(report, "W3.flags")) << report.to_string();
  }
  {
    auto jobs = clean_jobs();
    jobs[1].executed = 5.0;  // A skipped job never touches the CPU.
    const sim::Trace trace =
        sim::Trace::unchecked(clean_segments(), std::move(jobs));
    const AuditReport report =
        audit_trace(trace, firm_tasks(), 300.0, weakly_options());
    EXPECT_TRUE(has_code(report, "W3.demand")) << report.to_string();
  }
  {
    auto jobs = clean_jobs();
    jobs[1].completion = jobs[1].release + 30.0;  // Decided late.
    const sim::Trace trace =
        sim::Trace::unchecked(clean_segments(), std::move(jobs));
    const AuditReport report =
        audit_trace(trace, firm_tasks(), 300.0, weakly_options());
    EXPECT_TRUE(has_code(report, "W3.instant")) << report.to_string();
  }
}

/// An overloaded two-task set: "firm" (period 10 ms, WCET 6 ms) plus
/// "hard" (20 ms, 9 ms).  With `firm_constraint`, "firm" is
/// (1,2)-firm, so an armed governor sheds some of its jobs.
sched::TaskSet overloaded_tasks(bool firm_constraint) {
  sched::Task firm = sched::make_task("firm", 10'000, 6000.0);
  if (firm_constraint) firm = sched::with_mk_constraint(firm, 1, 2);
  sched::TaskSet tasks;
  tasks.add(firm);
  tasks.add(sched::make_task("hard", 20'000, 9000.0));
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

/// A real armed engine run over overloaded_tasks(true), trace recorded.
core::SimulationResult overloaded_run() {
  core::EngineOptions options;
  options.horizon = 100'000;
  options.throw_on_miss = false;
  options.record_trace = true;
  return core::simulate(overloaded_tasks(true),
                        power::ProcessorConfig::arm8_default(),
                        core::SchedulerPolicy::fps(), nullptr, options);
}

TEST(WeaklyHardAuditor, CatchesCounterDisagreementOnEngineRun) {
  // A real armed engine run over an overloaded set: the full audit
  // battery passes, then each weakly-hard counter corruption is caught.
  const sched::TaskSet tasks = overloaded_tasks(true);
  const auto cpu = power::ProcessorConfig::arm8_default();
  const core::SimulationResult result = overloaded_run();
  ASSERT_GT(result.jobs_skipped_weakly, 0);

  AuditOptions audit = weakly_options();
  audit.expect_no_misses = false;
  EXPECT_TRUE(audit_run(result, tasks, cpu, audit).ok());

  core::SimulationResult skewed_skips = result;
  skewed_skips.jobs_skipped_weakly += 1;
  EXPECT_TRUE(
      has_code(audit_run(skewed_skips, tasks, cpu, audit), "W4.skips"));

  core::SimulationResult skewed_violations = result;
  skewed_violations.mk_violations = -1;  // Replay finds >= 0.
  EXPECT_TRUE(has_code(audit_run(skewed_violations, tasks, cpu, audit),
                       "W4.violations"));
}

TEST(WeaklyHardAuditor, ArmedAuditOfAHardSetStillChecksSkipRecords) {
  // The same armed run, audited against the set with the (1,2)
  // constraint stripped, so no task is weakly-hard, while the result
  // claims no skips: there is no window to replay, but every skip
  // record is still a W3.hard-skip and the skip counter still disagrees
  // with the trace.
  core::SimulationResult result = overloaded_run();
  ASSERT_GT(result.jobs_skipped_weakly, 0);
  result.jobs_skipped_weakly = 0;

  AuditOptions audit = weakly_options();
  audit.expect_no_misses = false;
  const AuditReport report =
      audit_run(result, overloaded_tasks(false),
                power::ProcessorConfig::arm8_default(), audit);
  EXPECT_TRUE(has_code(report, "W3.hard-skip")) << report.to_string();
  EXPECT_TRUE(has_code(report, "W4.skips")) << report.to_string();
  EXPECT_FALSE(has_code(report, "W1.window")) << report.to_string();
}

}  // namespace
}  // namespace lpfps::audit
