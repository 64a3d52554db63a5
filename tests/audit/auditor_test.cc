// Adversarial auditor tests: hand-corrupt a known-good trace one
// invariant at a time (via sim::Trace::unchecked, which bypasses the
// recorder's own guards) and require the auditor to catch each breach
// with the right catalog code and an actionable diagnostic.
#include "audit/audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <utility>
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

sched::TaskSet solo_tasks() {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("solo", 100, 50.0));
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

Segment seg(Time begin, Time end, ProcessorMode mode, TaskIndex task = kNoTask,
            Ratio rb = 1.0, Ratio re = 1.0) {
  Segment s;
  s.begin = begin;
  s.end = end;
  s.mode = mode;
  s.task = task;
  s.ratio_begin = rb;
  s.ratio_end = re;
  return s;
}

JobRecord job(TaskIndex task, std::int64_t instance, Time release,
              Time deadline, Time completion, Work executed) {
  JobRecord j;
  j.task = task;
  j.instance = instance;
  j.release = release;
  j.absolute_deadline = deadline;
  j.completion = completion;
  j.executed = executed;
  j.finished = true;
  j.missed_deadline = false;
  return j;
}

/// Two full-speed jobs of the solo task over [0, 200): the clean
/// reference every corruption below starts from.
std::vector<Segment> clean_segments() {
  return {seg(0.0, 50.0, ProcessorMode::kRunning, 0),
          seg(50.0, 100.0, ProcessorMode::kIdleBusyWait),
          seg(100.0, 150.0, ProcessorMode::kRunning, 0),
          seg(150.0, 200.0, ProcessorMode::kIdleBusyWait)};
}

std::vector<JobRecord> clean_jobs() {
  return {job(0, 0, 0.0, 100.0, 50.0, 50.0),
          job(0, 1, 100.0, 200.0, 150.0, 50.0)};
}

bool has_code(const AuditReport& report, const std::string& code) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const Violation& v) { return v.invariant == code; });
}

std::string message_of(const AuditReport& report, const std::string& code) {
  for (const Violation& v : report.violations) {
    if (v.invariant == code) return v.message;
  }
  return "";
}

TEST(Auditor, CleanHandBuiltTracePasses) {
  const sim::Trace trace =
      sim::Trace::unchecked(clean_segments(), clean_jobs());
  const AuditReport report = audit_trace(trace, solo_tasks(), 200.0);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.segments_checked, 4);
  EXPECT_EQ(report.jobs_checked, 2);
}

TEST(Auditor, CatchesOverlappingSegments) {
  auto segments = clean_segments();
  segments[1].begin = 40.0;  // Overlaps the first running segment.
  const sim::Trace trace =
      sim::Trace::unchecked(std::move(segments), clean_jobs());
  const AuditReport report = audit_trace(trace, solo_tasks(), 200.0);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "T1.overlap")) << report.to_string();
  // The diagnostic names both boundary times, so the overlap is
  // locatable without re-running anything.
  EXPECT_NE(message_of(report, "T1.overlap").find("40"), std::string::npos);
}

TEST(Auditor, CatchesTimelineGaps) {
  auto segments = clean_segments();
  segments[2].begin = 110.0;  // Hole in [100, 110).
  const sim::Trace trace =
      sim::Trace::unchecked(std::move(segments), clean_jobs());
  const AuditReport report = audit_trace(trace, solo_tasks(), 200.0);
  EXPECT_TRUE(has_code(report, "T1.gap")) << report.to_string();
}

TEST(Auditor, CatchesOutOfRangeRatio) {
  auto segments = clean_segments();
  segments[0].ratio_begin = 1.2;  // Above the base (full) speed.
  segments[0].ratio_end = 1.2;
  const sim::Trace trace =
      sim::Trace::unchecked(std::move(segments), clean_jobs());
  const AuditReport report = audit_trace(trace, solo_tasks(), 200.0);
  EXPECT_TRUE(has_code(report, "T2.range")) << report.to_string();
}

TEST(Auditor, CatchesJobOverrun) {
  auto jobs = clean_jobs();
  jobs[0].executed = 60.0;  // WCET is 50.
  const sim::Trace trace =
      sim::Trace::unchecked(clean_segments(), std::move(jobs));
  const AuditReport report = audit_trace(trace, solo_tasks(), 200.0);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "J3.overrun")) << report.to_string();
  EXPECT_NE(message_of(report, "J3.overrun").find("solo"), std::string::npos);
}

TEST(Auditor, CatchesWorkIntegralMismatch) {
  auto jobs = clean_jobs();
  jobs[0].executed = 45.0;  // Trace integrates to 50 over [0, 50).
  const sim::Trace trace =
      sim::Trace::unchecked(clean_segments(), std::move(jobs));
  const AuditReport report = audit_trace(trace, solo_tasks(), 200.0);
  EXPECT_TRUE(has_code(report, "J2.work")) << report.to_string();
}

TEST(Auditor, CatchesUnflaggedDeadlineMiss) {
  // Job 0 completes at 105, past its absolute deadline of 100, but the
  // record's missed_deadline flag stayed false.
  std::vector<Segment> segments = {
      seg(0.0, 50.0, ProcessorMode::kRunning, 0),
      seg(50.0, 100.0, ProcessorMode::kIdleBusyWait),
      seg(100.0, 105.0, ProcessorMode::kRunning, 0),
      seg(105.0, 155.0, ProcessorMode::kRunning, 0),
      seg(155.0, 200.0, ProcessorMode::kIdleBusyWait)};
  std::vector<JobRecord> jobs = {job(0, 0, 0.0, 100.0, 105.0, 55.0),
                                 job(0, 1, 100.0, 200.0, 155.0, 50.0)};
  const sim::Trace trace =
      sim::Trace::unchecked(std::move(segments), std::move(jobs));
  AuditOptions options;
  options.check_job_demand = false;  // The 55 > WCET overrun is bait.
  const AuditReport report =
      audit_trace(trace, solo_tasks(), 200.0, options);
  EXPECT_TRUE(has_code(report, "J4.flag")) << report.to_string();
}

TEST(Auditor, CatchesAForgedRelease) {
  // Releases are deterministic: phase + k*T.
  auto jobs = clean_jobs();
  jobs[1].release = 107.0;
  jobs[1].absolute_deadline = 207.0;
  const sim::Trace trace =
      sim::Trace::unchecked(clean_segments(), std::move(jobs));
  const AuditReport report = audit_trace(trace, solo_tasks(), 200.0);
  ASSERT_TRUE(has_code(report, "J1.release")) << report.to_string();
  EXPECT_NE(message_of(report, "J1.release").find("periodic model says 100"),
            std::string::npos)
      << message_of(report, "J1.release");
}

TEST(Auditor, CatchesAnOnTimeJobFlaggedAsMissed) {
  auto jobs = clean_jobs();
  jobs[0].missed_deadline = true;  // Completes at 50, deadline 100.
  const sim::Trace trace =
      sim::Trace::unchecked(clean_segments(), std::move(jobs));
  const AuditReport report = audit_trace(trace, solo_tasks(), 200.0);
  EXPECT_TRUE(has_code(report, "J4.flag")) << report.to_string();
}

TEST(Auditor, CatchesSleepWhilePending) {
  // Job 0 has 50 us of demand but the processor naps in the middle of
  // its window: work-conservation (paper L8-L13: sleep only when every
  // task is in the delay queue) is violated.
  std::vector<Segment> segments = {
      seg(0.0, 20.0, ProcessorMode::kRunning, 0),
      seg(20.0, 30.0, ProcessorMode::kPowerDown),
      seg(30.0, 60.0, ProcessorMode::kRunning, 0),
      seg(60.0, 100.0, ProcessorMode::kIdleBusyWait),
      seg(100.0, 150.0, ProcessorMode::kRunning, 0),
      seg(150.0, 200.0, ProcessorMode::kIdleBusyWait)};
  std::vector<JobRecord> jobs = {job(0, 0, 0.0, 100.0, 60.0, 50.0),
                                 job(0, 1, 100.0, 200.0, 150.0, 50.0)};
  const sim::Trace trace =
      sim::Trace::unchecked(std::move(segments), std::move(jobs));
  const AuditReport report = audit_trace(trace, solo_tasks(), 200.0);
  EXPECT_TRUE(has_code(report, "S1.idle-while-pending"))
      << report.to_string();
}

// ---- J5/S1: job-window cover --------------------------------------------

TEST(Auditor, CatchesExecutionBetweenTwoOfItsTasksWindows) {
  // "b" has one job, done at 50, yet runs again in [110, 120), inside a
  // window of "a" (whose windows the auditor covers first) but between
  // b's own.
  sched::TaskSet tasks;
  tasks.add(sched::make_task("a", 100, 20.0));
  tasks.add(sched::make_task("b", 400, 30.0));
  sched::assign_rate_monotonic(tasks);
  std::vector<Segment> segments = {
      seg(0.0, 20.0, ProcessorMode::kRunning, 0),
      seg(20.0, 50.0, ProcessorMode::kRunning, 1),
      seg(50.0, 100.0, ProcessorMode::kIdleBusyWait),
      seg(100.0, 110.0, ProcessorMode::kRunning, 0),
      seg(110.0, 120.0, ProcessorMode::kRunning, 1),
      seg(120.0, 130.0, ProcessorMode::kRunning, 0),
      seg(130.0, 200.0, ProcessorMode::kIdleBusyWait),
      seg(200.0, 220.0, ProcessorMode::kRunning, 0),
      seg(220.0, 300.0, ProcessorMode::kIdleBusyWait),
      seg(300.0, 320.0, ProcessorMode::kRunning, 0),
      seg(320.0, 400.0, ProcessorMode::kIdleBusyWait)};
  std::vector<JobRecord> jobs = {job(0, 0, 0.0, 100.0, 20.0, 20.0),
                                 job(1, 0, 0.0, 400.0, 50.0, 30.0),
                                 job(0, 1, 100.0, 200.0, 130.0, 20.0),
                                 job(0, 2, 200.0, 300.0, 220.0, 20.0),
                                 job(0, 3, 300.0, 400.0, 320.0, 20.0)};
  const sim::Trace trace =
      sim::Trace::unchecked(std::move(segments), std::move(jobs));
  const AuditReport report = audit_trace(trace, tasks, 400.0);
  // b also runs inside a's window [100, 130), so S3 reports it too.
  ASSERT_EQ(report.violations.size(), 2u) << report.to_string();
  EXPECT_EQ(report.violations[0].invariant, "J5.placement");
  EXPECT_EQ(report.violations[0].at, 110.0);
  EXPECT_NE(report.violations[0].message.find("b runs in [110, 120)"),
            std::string::npos)
      << report.violations[0].message;
  EXPECT_EQ(report.violations[1].invariant, "S3.priority");
  EXPECT_EQ(report.violations[1].at, 110.0);
}

/// Job 0 misses its deadline and completes at 130, inside job 1's window
/// [100, 180]: only the union of the two windows covers the segment
/// [90, 150).  `idle` replaces [110, 120) with a busy-wait while both
/// jobs are pending (job 0 then executes 120 instead of 130).
sim::Trace overlapping_windows_trace(bool idle) {
  std::vector<Segment> segments = {seg(0.0, 90.0, ProcessorMode::kRunning, 0)};
  if (idle) {
    segments.push_back(seg(90.0, 110.0, ProcessorMode::kRunning, 0));
    segments.push_back(seg(110.0, 120.0, ProcessorMode::kIdleBusyWait));
    segments.push_back(seg(120.0, 150.0, ProcessorMode::kRunning, 0));
  } else {
    segments.push_back(seg(90.0, 150.0, ProcessorMode::kRunning, 0));
  }
  segments.push_back(seg(150.0, 180.0, ProcessorMode::kRunning, 0));
  segments.push_back(seg(180.0, 200.0, ProcessorMode::kIdleBusyWait));
  JobRecord late = job(0, 0, 0.0, 100.0, 130.0, idle ? 120.0 : 130.0);
  late.missed_deadline = true;
  return sim::Trace::unchecked(
      std::move(segments), {late, job(0, 1, 100.0, 200.0, 180.0, 50.0)});
}

/// A backlogged (declared-miss) run: demand past WCET is the point.
AuditOptions overload_options() {
  AuditOptions options;
  options.expect_no_misses = false;
  options.check_job_demand = false;
  return options;
}

TEST(Auditor, ExecutionAcrossOverlappingWindowsIsPlaced) {
  const AuditReport report =
      audit_trace(overlapping_windows_trace(/*idle=*/false), solo_tasks(),
                  200.0, overload_options());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Auditor, CatchesIdleInsideMergedPendingWindow) {
  const AuditReport report =
      audit_trace(overlapping_windows_trace(/*idle=*/true), solo_tasks(),
                  200.0, overload_options());
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].invariant, "S1.idle-while-pending");
  EXPECT_EQ(report.violations[0].at, 110.0);
  // The pending window it names is the merged [0, 180), not either
  // job's own.
  EXPECT_NE(report.violations[0].message.find("pending window [0, 180)"),
            std::string::npos)
      << report.violations[0].message;
}

TEST(Auditor, CatchesTruncatedTimeline) {
  auto segments = clean_segments();
  segments.pop_back();  // Ends at 150, horizon says 200.
  auto jobs = clean_jobs();
  const sim::Trace trace =
      sim::Trace::unchecked(std::move(segments), std::move(jobs));
  const AuditReport report = audit_trace(trace, solo_tasks(), 200.0);
  EXPECT_TRUE(has_code(report, "T1.horizon")) << report.to_string();
}

TEST(Auditor, CatchesMisIntegratedEnergy) {
  // A real engine run whose result is then doctored: the reported
  // running-mode energy no longer matches re-integration of the speed
  // profile (E1), which also breaks the E3 total.
  const sched::TaskSet tasks = solo_tasks();
  const auto cpu = power::ProcessorConfig::arm8_default();
  core::EngineOptions options;
  options.horizon = 1000.0;
  options.record_trace = true;
  core::SimulationResult result = core::simulate(
      tasks, cpu, core::SchedulerPolicy::lpfps(), nullptr, options);
  ASSERT_TRUE(audit_run(result, tasks, cpu).ok());

  result.by_mode[static_cast<std::size_t>(ProcessorMode::kRunning)].energy +=
      1.0;
  const AuditReport report = audit_run(result, tasks, cpu);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "E1.energy")) << report.to_string();
}

TEST(Auditor, CatchesCorruptedCounters) {
  const sched::TaskSet tasks = solo_tasks();
  const auto cpu = power::ProcessorConfig::arm8_default();
  core::EngineOptions options;
  options.horizon = 1000.0;
  options.record_trace = true;
  core::SimulationResult result = core::simulate(
      tasks, cpu, core::SchedulerPolicy::lpfps(), nullptr, options);

  core::SimulationResult wrong_jobs = result;
  wrong_jobs.jobs_completed += 1;
  EXPECT_TRUE(has_code(audit_run(wrong_jobs, tasks, cpu), "C1.jobs"));

  core::SimulationResult wrong_pd = result;
  wrong_pd.power_downs += 3;
  EXPECT_TRUE(has_code(audit_run(wrong_pd, tasks, cpu), "C2.power-downs"));
}

TEST(Auditor, StopsCollectingAtMaxViolations) {
  auto jobs = clean_jobs();
  jobs[0].executed = 60.0;
  jobs[1].executed = 60.0;
  AuditOptions options;
  options.max_violations = 1;
  const sim::Trace trace =
      sim::Trace::unchecked(clean_segments(), std::move(jobs));
  const AuditReport report =
      audit_trace(trace, solo_tasks(), 200.0, options);
  EXPECT_EQ(report.violations.size(), 1u);
}

// ---- S3: the fixed-priority invariant -----------------------------------

/// {T=100, C=20} over {T=400, C=30}, rate-monotonic.
sched::TaskSet two_tasks(double low_wcet = 30.0) {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("a", 100, 20.0));
  tasks.add(sched::make_task("b", 400, low_wcet));
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

/// a's jobs released at `releases`, each run at the head of its period
/// with the processor idle for the rest of it.
void append_high_priority_periods(std::vector<Segment>& segments,
                                  std::vector<JobRecord>& jobs,
                                  std::initializer_list<Time> releases) {
  for (const Time release : releases) {
    segments.push_back(
        seg(release, release + 20.0, ProcessorMode::kRunning, 0));
    segments.push_back(
        seg(release + 20.0, release + 100.0, ProcessorMode::kIdleBusyWait));
    jobs.push_back(job(0, static_cast<std::int64_t>(release / 100.0),
                       release, release + 100.0, release + 20.0, 20.0));
  }
}

/// b's job runs [0, 30) while a's job, released at 0 too, waits and
/// runs [30, 50).  Every window, work integral and deadline is right;
/// only the order is inverted.
sim::Trace priority_inversion_trace() {
  std::vector<Segment> segments = {
      seg(0.0, 30.0, ProcessorMode::kRunning, 1),
      seg(30.0, 50.0, ProcessorMode::kRunning, 0),
      seg(50.0, 100.0, ProcessorMode::kIdleBusyWait)};
  std::vector<JobRecord> jobs = {job(1, 0, 0.0, 400.0, 30.0, 30.0),
                                 job(0, 0, 0.0, 100.0, 50.0, 20.0)};
  append_high_priority_periods(segments, jobs, {100.0, 200.0, 300.0});
  return sim::Trace::unchecked(std::move(segments), std::move(jobs));
}

TEST(Auditor, CatchesALowerPriorityJobRunningAheadOfAPendingOne) {
  const AuditReport report =
      audit_trace(priority_inversion_trace(), two_tasks(), 400.0);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].invariant, "S3.priority");
  EXPECT_EQ(report.violations[0].at, 0.0);
  EXPECT_NE(report.violations[0].message.find("b runs in [0, 30)"),
            std::string::npos)
      << report.violations[0].message;
}

TEST(Auditor, PriorityCheckFollowsTheWorkConservingFlag) {
  // S1 and S3 both read the windows as the scheduler's pending set; a
  // run that breaks that model (jitter, throttling) disarms both.
  AuditOptions options;
  options.check_work_conserving = false;
  const AuditReport report =
      audit_trace(priority_inversion_trace(), two_tasks(), 400.0, options);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Auditor, LowerPriorityRunEndingAtAHigherPriorityReleaseIsLegal) {
  // b (C=90) runs [20, 100) and is preempted exactly at a's release.
  std::vector<Segment> segments = {
      seg(0.0, 20.0, ProcessorMode::kRunning, 0),
      seg(20.0, 100.0, ProcessorMode::kRunning, 1),
      seg(100.0, 120.0, ProcessorMode::kRunning, 0),
      seg(120.0, 130.0, ProcessorMode::kRunning, 1),
      seg(130.0, 200.0, ProcessorMode::kIdleBusyWait)};
  std::vector<JobRecord> jobs = {job(0, 0, 0.0, 100.0, 20.0, 20.0),
                                 job(0, 1, 100.0, 200.0, 120.0, 20.0),
                                 job(1, 0, 0.0, 400.0, 130.0, 90.0)};
  append_high_priority_periods(segments, jobs, {200.0, 300.0});
  const sim::Trace trace =
      sim::Trace::unchecked(std::move(segments), std::move(jobs));
  const AuditReport report = audit_trace(trace, two_tasks(90.0), 400.0);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Auditor, CatchesSwappedTasksInAnEngineTrace) {
  // Give the first two running segments of a real FPS trace each
  // other's task: the lower-priority task now runs first.
  sched::TaskSet tasks;
  tasks.add(sched::make_task("hi", 50, 10.0));
  tasks.add(sched::make_task("lo", 80, 20.0));
  sched::assign_rate_monotonic(tasks);
  core::EngineOptions options;
  options.horizon = 400.0;
  options.record_trace = true;
  const core::SimulationResult result =
      core::simulate(tasks, power::ProcessorConfig::arm8_default(),
                     core::SchedulerPolicy::fps(), nullptr, options);
  ASSERT_TRUE(audit_trace(*result.trace, tasks, 400.0).ok());
  std::vector<Segment> segments = result.trace->segments();
  ASSERT_GE(segments.size(), 2u);
  ASSERT_EQ(segments[0].task, 0);
  ASSERT_EQ(segments[1].task, 1);
  std::swap(segments[0].task, segments[1].task);
  const sim::Trace trace = sim::Trace::unchecked(
      std::move(segments), std::vector<JobRecord>(result.trace->jobs()));
  EXPECT_TRUE(has_code(audit_trace(trace, tasks, 400.0), "S3.priority"));
}

// ---- F-codes: budget enforcement and safe-mode fallback -------------

/// Options arming the fault battery the way harness::derive_options
/// does for a contained run.
AuditOptions fault_options(faults::OverrunAction containment,
                           bool safe_mode = false) {
  AuditOptions options;
  options.faults_injected = true;
  options.containment = containment;
  options.safe_mode_fallback = safe_mode;
  options.expect_no_misses = false;
  options.check_job_demand = false;
  return options;
}

TEST(Auditor, CatchesKilledRecordMarkedFinished) {
  auto jobs = clean_jobs();
  jobs[0].killed = true;  // Killed *and* finished: contradictory.
  const sim::Trace trace =
      sim::Trace::unchecked(clean_segments(), std::move(jobs));
  const AuditReport report = audit_trace(
      trace, solo_tasks(), 200.0, fault_options(faults::OverrunAction::kKill));
  EXPECT_TRUE(has_code(report, "F3.finished")) << report.to_string();
}

TEST(Auditor, CatchesKillFiredOffBudget) {
  // A kill that did not happen at budget exhaustion (executed != C)
  // means enforcement aborted an in-contract job or fired late.
  auto jobs = clean_jobs();
  jobs[0].killed = true;
  jobs[0].finished = false;
  jobs[0].executed = 30.0;  // Budget is C = 50.
  const sim::Trace trace =
      sim::Trace::unchecked(clean_segments(), std::move(jobs));
  const AuditReport report = audit_trace(
      trace, solo_tasks(), 200.0, fault_options(faults::OverrunAction::kKill));
  EXPECT_TRUE(has_code(report, "F3.budget")) << report.to_string();
  const std::string message = message_of(report, "F3.budget");
  EXPECT_NE(message.find("30"), std::string::npos) << message;
  EXPECT_NE(message.find("50"), std::string::npos) << message;
}

TEST(Auditor, CatchesSurvivorPastBudgetUnderKill) {
  // With kKill armed, a record that ran past C without being killed
  // proves enforcement leaked.
  auto segments = clean_segments();
  segments[0].end = 60.0;    // tau runs [0, 60): 60 > C = 50.
  segments[1].begin = 60.0;
  auto jobs = clean_jobs();
  jobs[0].completion = 60.0;
  jobs[0].executed = 60.0;
  const sim::Trace trace =
      sim::Trace::unchecked(std::move(segments), std::move(jobs));
  const AuditReport report = audit_trace(
      trace, solo_tasks(), 200.0, fault_options(faults::OverrunAction::kKill));
  EXPECT_TRUE(has_code(report, "F1.budget")) << report.to_string();
}

TEST(Auditor, CatchesThrottledDemandPastItsReplenishedBudgets) {
  // A throttled job spanning one enforcement window holds one budget of
  // C; 60 units of demand against C = 50 exceeds it.
  auto segments = clean_segments();
  segments[0].end = 60.0;
  segments[1].begin = 60.0;
  auto jobs = clean_jobs();
  jobs[0].completion = 60.0;  // Spans a single 100-unit window.
  jobs[0].executed = 60.0;
  const sim::Trace trace =
      sim::Trace::unchecked(std::move(segments), std::move(jobs));
  const AuditReport report =
      audit_trace(trace, solo_tasks(), 200.0,
                  fault_options(faults::OverrunAction::kThrottle));
  EXPECT_TRUE(has_code(report, "F1.budget")) << report.to_string();
}

TEST(Auditor, CatchesClockSlowingAfterADetectedOverrun) {
  // Monitor mode + safe-mode fallback: the first job overruns its
  // budget at t = 50, after which the clock must hold base speed until
  // the processor next leaves the running modes.  A steady segment at
  // 0.6 violates that (F2.slow); a decelerating one violates the
  // non-decrease rule (F2.decrease).
  const auto make_trace = [](Ratio rb, Ratio re) {
    std::vector<Segment> segments = {
        seg(0.0, 50.0, ProcessorMode::kRunning, 0),
        seg(50.0, 80.0, ProcessorMode::kRunning, 0, rb, re),
        seg(80.0, 100.0, ProcessorMode::kIdleBusyWait),
        seg(100.0, 150.0, ProcessorMode::kRunning, 0),
        seg(150.0, 200.0, ProcessorMode::kIdleBusyWait)};
    const double executed = 50.0 + (rb + re) / 2.0 * 30.0;
    std::vector<JobRecord> jobs = {job(0, 0, 0.0, 100.0, 80.0, executed),
                                   job(0, 1, 100.0, 200.0, 150.0, 50.0)};
    return sim::Trace::unchecked(std::move(segments), std::move(jobs));
  };
  const AuditOptions options =
      fault_options(faults::OverrunAction::kNone, /*safe_mode=*/true);

  const AuditReport slow =
      audit_trace(make_trace(0.6, 0.6), solo_tasks(), 200.0, options);
  EXPECT_TRUE(has_code(slow, "F2.slow")) << slow.to_string();

  const AuditReport decrease =
      audit_trace(make_trace(1.0, 0.7), solo_tasks(), 200.0, options);
  EXPECT_TRUE(has_code(decrease, "F2.decrease")) << decrease.to_string();
}

TEST(Auditor, CatchesKillCounterDisagreeingWithTheTrace) {
  // A real kill run whose jobs_killed counter is then doctored.
  const sched::TaskSet tasks = solo_tasks();
  const auto cpu = power::ProcessorConfig::arm8_default();
  core::EngineOptions options;
  options.horizon = 1000.0;
  options.record_trace = true;
  options.throw_on_miss = false;
  options.faults.overruns = {{1.0, 0.5}};
  options.containment.on_overrun = faults::OverrunAction::kKill;
  core::SimulationResult result = core::simulate(
      tasks, cpu, core::SchedulerPolicy::lpfps(), nullptr, options);
  ASSERT_GT(result.jobs_killed, 0);

  AuditOptions audit = fault_options(faults::OverrunAction::kKill);
  ASSERT_TRUE(audit_run(result, tasks, cpu, audit).ok());

  result.jobs_killed += 1;
  const AuditReport report = audit_run(result, tasks, cpu, audit);
  EXPECT_TRUE(has_code(report, "F3.count")) << report.to_string();
}

TEST(Auditor, CatchesDetectionsWithoutASafeModeEntry) {
  // Safe mode armed and anomalies detected, yet safe_mode_entries = 0:
  // the fallback never engaged.
  const sched::TaskSet tasks = solo_tasks();
  const auto cpu = power::ProcessorConfig::arm8_default();
  core::EngineOptions options;
  options.horizon = 1000.0;
  options.record_trace = true;
  options.throw_on_miss = false;
  options.faults.overruns = {{1.0, 0.5}};
  options.containment.on_overrun = faults::OverrunAction::kKill;
  options.containment.safe_mode_fallback = true;
  core::SimulationResult result = core::simulate(
      tasks, cpu, core::SchedulerPolicy::lpfps(), nullptr, options);
  ASSERT_GT(result.overruns_detected, 0);
  ASSERT_GT(result.safe_mode_entries, 0);

  AuditOptions audit =
      fault_options(faults::OverrunAction::kKill, /*safe_mode=*/true);
  ASSERT_TRUE(audit_run(result, tasks, cpu, audit).ok());

  result.safe_mode_entries = 0;
  const AuditReport report = audit_run(result, tasks, cpu, audit);
  EXPECT_TRUE(has_code(report, "F2.entry")) << report.to_string();
}

TEST(Auditor, RequiresARecordedTrace) {
  const sched::TaskSet tasks = solo_tasks();
  const auto cpu = power::ProcessorConfig::arm8_default();
  core::EngineOptions options;
  options.horizon = 100.0;
  core::SimulationResult result = core::simulate(
      tasks, cpu, core::SchedulerPolicy::fps(), nullptr, options);
  result.trace.reset();
  EXPECT_THROW((void)audit_run(result, tasks, cpu), std::logic_error);
}

}  // namespace
}  // namespace lpfps::audit
