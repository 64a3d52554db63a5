#include "io/trace_io.h"

#include <algorithm>
#include <cstdio>

#include "weakly_hard/governor.h"

namespace lpfps::io {

namespace {

std::string task_label(TaskIndex task,
                       const std::vector<std::string>& names) {
  if (task == kNoTask) return "-";
  const auto index = static_cast<std::size_t>(task);
  if (index < names.size() && !names[index].empty()) return names[index];
  return std::to_string(task);
}

/// Appends a double at 12 significant digits — the printf "%g" rules,
/// identical to what operator<< with setprecision(12) produced before
/// the exporters moved to preallocated string buffers (the golden
/// equivalence hashes pin this).
void append_g12(std::string& out, double value) {
  char buffer[32];
  const int written = std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  out.append(buffer, static_cast<std::size_t>(written));
}

/// Rough per-row text width used to reserve the output buffers up
/// front; rows are appended in place, so one reservation covers the
/// whole export.
constexpr std::size_t kSegmentRowWidth = 64;
constexpr std::size_t kJobRowWidth = 96;

}  // namespace

std::string trace_segments_csv(const sim::Trace& trace,
                               const std::vector<std::string>& task_names) {
  std::string out;
  out.reserve(48 + kSegmentRowWidth * trace.segments().size());
  out += "begin,end,mode,task,ratio_begin,ratio_end\n";
  for (const sim::Segment& s : trace.segments()) {
    append_g12(out, s.begin);
    out += ',';
    append_g12(out, s.end);
    out += ',';
    out += to_string(s.mode);
    out += ',';
    out += task_label(s.task, task_names);
    out += ',';
    append_g12(out, s.ratio_begin);
    out += ',';
    append_g12(out, s.ratio_end);
    out += '\n';
  }
  return out;
}

std::string trace_jobs_csv(const sim::Trace& trace,
                           const std::vector<std::string>& task_names) {
  std::string out;
  out.reserve(64 + kJobRowWidth * trace.jobs().size());
  out += "task,instance,release,deadline,completion,response,executed,"
         "missed\n";
  for (const sim::JobRecord& job : trace.jobs()) {
    out += task_label(job.task, task_names);
    out += ',';
    out += std::to_string(job.instance);
    out += ',';
    append_g12(out, job.release);
    out += ',';
    append_g12(out, job.absolute_deadline);
    out += ',';
    append_g12(out, job.completion);
    out += ',';
    append_g12(out, job.response_time());
    out += ',';
    append_g12(out, job.executed);
    out += ',';
    out += job.missed_deadline ? '1' : '0';
    out += '\n';
  }
  return out;
}

std::string result_csv_header() {
  return "policy,simulated_time,total_energy,average_power,jobs_completed,"
         "deadline_misses,context_switches,scheduler_invocations,"
         "speed_changes,power_downs,dvs_slowdowns,run_queue_high_water,"
         "delay_queue_high_water,mean_running_ratio\n";
}

std::string result_csv_row(const core::SimulationResult& result) {
  std::string out;
  out.reserve(160 + result.policy_name.size());
  out += result.policy_name;
  out += ',';
  append_g12(out, result.simulated_time);
  out += ',';
  append_g12(out, result.total_energy);
  out += ',';
  append_g12(out, result.average_power);
  out += ',';
  out += std::to_string(result.jobs_completed);
  out += ',';
  out += std::to_string(result.deadline_misses);
  out += ',';
  out += std::to_string(result.context_switches);
  out += ',';
  out += std::to_string(result.scheduler_invocations);
  out += ',';
  out += std::to_string(result.speed_changes);
  out += ',';
  out += std::to_string(result.power_downs);
  out += ',';
  out += std::to_string(result.dvs_slowdowns);
  out += ',';
  out += std::to_string(result.run_queue_high_water);
  out += ',';
  out += std::to_string(result.delay_queue_high_water);
  out += ',';
  append_g12(out, result.mean_running_ratio);
  out += '\n';
  return out;
}

std::string result_fault_csv_header() {
  return "policy,overruns_detected,jobs_killed,jobs_skipped,"
         "safe_mode_entries,jobs_skipped_weakly,mk_violations,"
         "worst_window_slack\n";
}

namespace {

// Tightest (m,k)-window slack observed across the set's weakly-hard
// tasks; 0 when there are none (or the governor was disarmed) so the
// column stays numeric.  Negative values are (m,k) violations.
int min_weakly_hard_slack(const core::SimulationResult& result) {
  int worst = weakly_hard::SkipGovernor::kHardTaskSlack;
  for (const int slack : result.weakly_hard_worst_slack) {
    worst = std::min(worst, slack);
  }
  return worst == weakly_hard::SkipGovernor::kHardTaskSlack ? 0 : worst;
}

}  // namespace

std::string result_fault_csv_row(const core::SimulationResult& result) {
  std::string out;
  out.reserve(64 + result.policy_name.size());
  out += result.policy_name;
  out += ',';
  out += std::to_string(result.overruns_detected);
  out += ',';
  out += std::to_string(result.jobs_killed);
  out += ',';
  out += std::to_string(result.jobs_skipped);
  out += ',';
  out += std::to_string(result.safe_mode_entries);
  out += ',';
  out += std::to_string(result.jobs_skipped_weakly);
  out += ',';
  out += std::to_string(result.mk_violations);
  out += ',';
  out += std::to_string(min_weakly_hard_slack(result));
  out += '\n';
  return out;
}

}  // namespace lpfps::io
