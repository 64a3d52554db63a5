// Tests for the default-on audit wiring: the LPFPS_AUDIT toggle, the
// audited drop-in simulate(), counter aggregation, and the AUDIT report
// writer the CI gate consumes.
#include "audit/harness.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sched/priority.h"
#include "sched/task.h"

namespace lpfps::audit {
namespace {

sched::TaskSet solo_tasks() {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("solo", 100, 50.0));
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

core::EngineOptions engine_options(Time horizon) {
  core::EngineOptions options;
  options.horizon = horizon;
  return options;
}

class AuditEnv : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("LPFPS_AUDIT"); }
};

TEST_F(AuditEnv, EnabledByDefaultAndOptOutSpellings) {
  unsetenv("LPFPS_AUDIT");
  EXPECT_TRUE(enabled());
  for (const char* off : {"0", "off", "false"}) {
    setenv("LPFPS_AUDIT", off, 1);
    EXPECT_FALSE(enabled()) << off;
  }
  for (const char* on : {"", "1", "on", "true"}) {
    setenv("LPFPS_AUDIT", on, 1);
    testing::internal::CaptureStderr();
    EXPECT_TRUE(enabled()) << on;
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "") << on;
  }
}

TEST_F(AuditEnv, UnrecognisedValueIsNamedOnceAndKeepsTheDefault) {
  // A typo must neither switch the audit off nor pass in silence.  The
  // value is new on every repetition of this test, so the once-per-value
  // warning fires each time.
  static int repetition = 0;
  const std::string value = "yes-" + std::to_string(++repetition);
  setenv("LPFPS_AUDIT", value.c_str(), 1);
  testing::internal::CaptureStderr();
  EXPECT_TRUE(enabled());
  EXPECT_TRUE(enabled());
  const std::string warned = testing::internal::GetCapturedStderr();
  EXPECT_EQ(warned, "audit: ignoring LPFPS_AUDIT=" + value +
                        " (not 0/off/false or 1/on/true); the audit "
                        "stays on\n");
  // Near misses of the off spellings are not off either.
  for (const char* near : {"OFF", "no", "0 "}) {
    setenv("LPFPS_AUDIT", near, 1);
    testing::internal::CaptureStderr();
    EXPECT_TRUE(enabled()) << near;
    EXPECT_NE(testing::internal::GetCapturedStderr().find(near),
              std::string::npos)
        << near;
  }
}

TEST_F(AuditEnv, SimulateMatchesCoreSimulate) {
  const sched::TaskSet tasks = solo_tasks();
  const auto cpu = power::ProcessorConfig::arm8_default();
  const auto policy = core::SchedulerPolicy::lpfps();
  const core::SimulationResult plain =
      core::simulate(tasks, cpu, policy, nullptr, engine_options(1000.0));
  const core::SimulationResult audited =
      audit::simulate(tasks, cpu, policy, nullptr, engine_options(1000.0));
  EXPECT_EQ(audited.total_energy, plain.total_energy);
  EXPECT_EQ(audited.jobs_completed, plain.jobs_completed);
  EXPECT_EQ(audited.power_downs, plain.power_downs);
  // The forced audit trace is dropped when the caller did not ask.
  EXPECT_FALSE(audited.trace.has_value());

  core::EngineOptions with_trace = engine_options(1000.0);
  with_trace.record_trace = true;
  EXPECT_TRUE(
      audit::simulate(tasks, cpu, policy, nullptr, with_trace).trace.has_value());
}

TEST_F(AuditEnv, DisabledSimulateSkipsTheAudit) {
  setenv("LPFPS_AUDIT", "0", 1);
  AuditAggregator agg("harness_unit_disabled");
  const core::SimulationResult result =
      audit::simulate(solo_tasks(), power::ProcessorConfig::arm8_default(),
               core::SchedulerPolicy::lpfps(), nullptr,
               engine_options(1000.0), &agg);
  EXPECT_GT(result.jobs_completed, 0);
  EXPECT_EQ(agg.runs(), 0);  // Nothing audited, nothing aggregated.
}

TEST_F(AuditEnv, AggregatorAccumulatesAndChecks) {
  AuditAggregator agg("harness_unit");
  const sched::TaskSet tasks = solo_tasks();
  const auto cpu = power::ProcessorConfig::arm8_default();
  for (int seed = 1; seed <= 3; ++seed) {
    core::EngineOptions options = engine_options(1000.0);
    options.seed = static_cast<std::uint64_t>(seed);
    (void)audit::simulate(tasks, cpu, core::SchedulerPolicy::lpfps(), nullptr,
                   options, &agg);
  }
  EXPECT_EQ(agg.runs(), 3);
  EXPECT_EQ(agg.violation_count(), 0);
  EXPECT_EQ(agg.counters().jobs_completed, 30);
  EXPECT_NO_THROW(agg.check());

  const std::string line = agg.summary_line();
  EXPECT_NE(line.find("audit[harness_unit]"), std::string::npos);
  EXPECT_NE(line.find("3 runs"), std::string::npos);
  EXPECT_NE(line.find("0 violations"), std::string::npos);
}

TEST_F(AuditEnv, AggregatorCheckThrowsWithViolationDetail) {
  AuditAggregator agg("harness_unit_bad");
  AuditReport bad;
  bad.violations.push_back({"T1.overlap", 42.0, "segments collide"});
  agg.add(bad, core::SimulationResult{});
  EXPECT_EQ(agg.violation_count(), 1);
  try {
    agg.check();
    FAIL() << "check() must throw on violations";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("T1.overlap"), std::string::npos);
    EXPECT_NE(what.find("segments collide"), std::string::npos);
  }
}

TEST_F(AuditEnv, WriteReportEmitsAuditJson) {
  ASSERT_EQ(setenv("LPFPS_BENCH_JSON_DIR", "/tmp", 1), 0);
  AuditAggregator agg("harness_unit_report");
  AuditReport bad;
  bad.segments_checked = 7;
  bad.violations.push_back({"J2.work", 10.0, "integral off by 1"});
  agg.add(bad, core::SimulationResult{});
  const std::string path = agg.write_report();
  ASSERT_EQ(unsetenv("LPFPS_BENCH_JSON_DIR"), 0);

  EXPECT_EQ(path, "/tmp/AUDIT_harness_unit_report.json");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  const std::string json = contents.str();
  EXPECT_NE(json.find("\"kind\":\"audit_report\""), std::string::npos);
  EXPECT_NE(json.find("\"violations\":1"), std::string::npos);
  EXPECT_NE(json.find("\"segments_checked\":7"), std::string::npos);
  EXPECT_NE(json.find("\"invariant\":\"J2.work\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(CounterTotals, SumsCountersAndMaxesHighWaters) {
  core::SimulationResult a;
  a.jobs_completed = 3;
  a.power_downs = 2;
  a.dvs_slowdowns = 1;
  a.run_queue_high_water = 4;
  a.simulated_time = 100.0;
  a.total_energy = 25.0;
  core::SimulationResult b;
  b.jobs_completed = 5;
  b.power_downs = 1;
  b.run_queue_high_water = 2;
  b.delay_queue_high_water = 3;
  b.simulated_time = 50.0;
  b.total_energy = 10.0;

  CounterTotals totals;
  totals.add(a);
  totals.add(b);
  EXPECT_EQ(totals.runs, 2);
  EXPECT_EQ(totals.jobs_completed, 8);
  EXPECT_EQ(totals.power_downs, 3);
  EXPECT_EQ(totals.dvs_slowdowns, 1);
  EXPECT_EQ(totals.run_queue_high_water, 4);
  EXPECT_EQ(totals.delay_queue_high_water, 3);
  EXPECT_DOUBLE_EQ(totals.simulated_time, 150.0);
  EXPECT_DOUBLE_EQ(totals.total_energy, 35.0);
}

TEST(DeriveOptions, MirrorsEngineConfiguration) {
  core::EngineOptions options;
  options.horizon = 100.0;

  const AuditOptions plain =
      derive_options(core::SchedulerPolicy::lpfps(), options);
  EXPECT_DOUBLE_EQ(plain.base_ratio, 1.0);
  EXPECT_TRUE(plain.expect_no_misses);
  EXPECT_TRUE(plain.check_job_demand);
  EXPECT_TRUE(plain.check_work_conserving);
  EXPECT_TRUE(plain.check_dvs_plans);

  const AuditOptions fps =
      derive_options(core::SchedulerPolicy::fps(), options);
  EXPECT_FALSE(fps.check_dvs_plans);  // FPS never plans a slowdown.

  const AuditOptions static_policy = derive_options(
      core::SchedulerPolicy::static_slowdown(0.75), options);
  EXPECT_DOUBLE_EQ(static_policy.base_ratio, 0.75);

  core::EngineOptions overhead = options;
  overhead.context_switch_cost = 5.0;
  EXPECT_FALSE(
      derive_options(core::SchedulerPolicy::lpfps(), overhead)
          .check_job_demand);

  core::EngineOptions jittery = options;
  jittery.release_jitter = {1.0};
  const AuditOptions jitter_opts =
      derive_options(core::SchedulerPolicy::lpfps(), jittery);
  EXPECT_FALSE(jitter_opts.check_work_conserving);
  EXPECT_FALSE(jitter_opts.check_full_speed_at_releases);
  EXPECT_FALSE(jitter_opts.check_dvs_plans);

  core::EngineOptions tolerant = options;
  tolerant.throw_on_miss = false;
  EXPECT_FALSE(derive_options(core::SchedulerPolicy::lpfps(), tolerant)
                   .expect_no_misses);
}

}  // namespace
}  // namespace lpfps::audit
