#include "io/trace_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/engine.h"
#include "workloads/example.h"

namespace lpfps::io {
namespace {

core::SimulationResult traced_run() {
  core::EngineOptions options;
  options.horizon = 400.0;
  options.record_trace = true;
  return core::simulate(workloads::example_table1(),
                        power::ProcessorConfig::arm8_default(),
                        core::SchedulerPolicy::lpfps(), nullptr, options);
}

int count_lines(const std::string& text) {
  int lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  return lines;
}

TEST(TraceCsv, SegmentsHaveHeaderAndRows) {
  const auto result = traced_run();
  const std::string csv = trace_segments_csv(
      *result.trace, workloads::example_table1().names());
  EXPECT_EQ(csv.rfind("begin,end,mode,task", 0), 0u);
  EXPECT_EQ(count_lines(csv),
            1 + static_cast<int>(result.trace->segments().size()));
  EXPECT_NE(csv.find("tau1"), std::string::npos);
  EXPECT_NE(csv.find("power-down"), std::string::npos);
}

TEST(TraceCsv, JobsHaveOneRowPerJob) {
  const auto result = traced_run();
  const std::string csv =
      trace_jobs_csv(*result.trace, workloads::example_table1().names());
  EXPECT_EQ(count_lines(csv),
            1 + static_cast<int>(result.trace->jobs().size()));
  // 8 + 5 + 4 jobs in one hyperperiod, none missed.
  EXPECT_EQ(count_lines(csv), 1 + 17);
  EXPECT_EQ(csv.find(",1\n"), std::string::npos);  // No missed flag set.
}

TEST(TraceCsv, UnknownTaskIndexFallsBackToNumber) {
  sim::Trace trace;
  sim::Segment s;
  s.begin = 0.0;
  s.end = 1.0;
  s.mode = sim::ProcessorMode::kRunning;
  s.task = 5;
  trace.add_segment(s);
  const std::string csv = trace_segments_csv(trace, {"only_one"});
  EXPECT_NE(csv.find(",5,"), std::string::npos);
}

TEST(ResultCsv, HeaderAndRowAgreeOnColumnCount) {
  const auto result = traced_run();
  const std::string header = result_csv_header();
  const std::string row = result_csv_row(result);
  const auto commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(commas(header), commas(row));
  EXPECT_NE(row.find("LPFPS"), std::string::npos);
}

TEST(ResultCsv, CarriesTheObservabilityCounters) {
  const std::string header = result_csv_header();
  EXPECT_NE(header.find("dvs_slowdowns"), std::string::npos);
  EXPECT_NE(header.find("run_queue_high_water"), std::string::npos);
  EXPECT_NE(header.find("delay_queue_high_water"), std::string::npos);

  core::SimulationResult result;
  result.policy_name = "X";
  result.dvs_slowdowns = 17;
  result.run_queue_high_water = 4;
  result.delay_queue_high_water = 9;
  EXPECT_NE(result_csv_row(result).find(",17,4,9,"), std::string::npos);
}

TEST(FaultCsv, HeaderAndRowAgreeOnColumnCount) {
  core::SimulationResult result;
  result.policy_name = "LPFPS";
  const std::string header = result_fault_csv_header();
  const std::string row = result_fault_csv_row(result);
  const auto commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(commas(header), commas(row));
}

TEST(FaultCsv, ColumnsAreTheContainmentAndGovernorCounters) {
  EXPECT_EQ(result_fault_csv_header(),
            "policy,overruns_detected,jobs_killed,jobs_skipped,"
            "safe_mode_entries,jobs_skipped_weakly,mk_violations,"
            "worst_window_slack\n");
  core::SimulationResult result;
  result.policy_name = "X";
  result.overruns_detected = 1;
  result.jobs_killed = 2;
  result.jobs_skipped = 3;
  result.safe_mode_entries = 4;
  result.jobs_skipped_weakly = 5;
  result.mk_violations = 6;
  EXPECT_EQ(result_fault_csv_row(result), "X,1,2,3,4,5,6,0\n");
}

TEST(FaultCsv, CarriesTheWeaklyHardCounters) {
  const std::string header = result_fault_csv_header();
  EXPECT_NE(header.find("jobs_skipped_weakly"), std::string::npos);
  EXPECT_NE(header.find("mk_violations"), std::string::npos);
  EXPECT_NE(header.find("worst_window_slack"), std::string::npos);

  core::SimulationResult result;
  result.policy_name = "X";
  result.safe_mode_entries = 3;
  result.jobs_skipped_weakly = 21;
  result.mk_violations = 2;
  // Slack column: min across weakly-hard tasks; INT_MAX entries (hard
  // tasks) are ignored and an all-hard vector collapses to 0.
  result.weakly_hard_worst_slack = {
      weakly_hard::SkipGovernor::kHardTaskSlack, -1, 4};
  EXPECT_NE(result_fault_csv_row(result).find(",3,21,2,-1\n"),
            std::string::npos);

  result.weakly_hard_worst_slack.clear();
  EXPECT_NE(result_fault_csv_row(result).find(",3,21,2,0\n"),
            std::string::npos);
}

}  // namespace
}  // namespace lpfps::io
