// Golden verdicts of the trace auditor: a seeded corpus of engine traces,
// each audited as recorded and again under single hostile edits, with
// every violation pinned in report order (code, the anchor instant as a
// hex float, and an FNV-1a hash of the message) plus the three checked
// counts.  A faster auditor must reproduce the file byte for byte: same
// codes, anchors, messages, order and truncation at max_violations.
//
// The corpus: sweep-shaped 5-task UUniFast sets under FPS and LPFPS, a
// kill fault plan, a monitor-only fault plan with safe mode, an
// overloaded weakly-hard set under two skip policies, and the four
// Table 2 workloads at one registry horizon.  The edits keep segments
// sorted by time and contiguous: nudge a ratio or move a steady stretch
// off its frequency level, move a ramp's or any boundary's instant, hand
// a running stretch to another task or to the idle loop, drop or
// duplicate a record, scale its demand, shift its completion or release,
// renumber its instance, flip its miss flag, mark it skipped or killed.
//
// Regenerate data/golden/audit_verdicts.csv after an *intended* change
// of verdicts with:
//
//   LPFPS_UPDATE_GOLDEN=1 build/tests/audit_audit_verdict_golden_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "audit/harness.h"
#include "common/random.h"
#include "core/engine.h"
#include "core/fingerprint.h"
#include "exec/exec_model.h"
#include "sched/analysis.h"
#include "workloads/generator.h"
#include "workloads/registry.h"

namespace lpfps::audit {
namespace {

using sim::JobRecord;
using sim::ProcessorMode;
using sim::Segment;

std::string golden_path() {
  return std::string(LPFPS_SOURCE_DIR) + "/data/golden/audit_verdicts.csv";
}

/// One recorded run to audit, with everything audit_run needs.
struct Run {
  std::string label;
  sched::TaskSet tasks;
  power::ProcessorConfig cpu;
  core::SimulationResult result;
  AuditOptions options;
};

Run record(std::string label, sched::TaskSet tasks,
           const core::SchedulerPolicy& policy, const exec::ExecModelPtr& exec,
           core::EngineOptions options) {
  options.record_trace = true;
  const auto cpu = power::ProcessorConfig::arm8_default();
  core::SimulationResult result =
      core::simulate(tasks, cpu, policy, exec, options);
  const AuditOptions audit = derive_options(policy, options);
  return {std::move(label), std::move(tasks), cpu, std::move(result), audit};
}

std::vector<Run> corpus() {
  std::vector<Run> runs;
  const exec::ExecModelPtr gaussian =
      std::make_shared<exec::ClampedGaussianModel>();
  const core::SchedulerPolicy fps = core::SchedulerPolicy::fps();
  const core::SchedulerPolicy lpfps = core::SchedulerPolicy::lpfps();

  // Sweep-shaped sets, as the repository benchmark's sweep draws them.
  Rng rng(2029);
  std::vector<sched::TaskSet> sweep_sets;
  for (int step = 1; step <= 9; ++step) {
    workloads::GeneratorConfig config;
    config.task_count = 5;
    config.total_utilization = step / 10.0;
    config.bcet_ratio = 0.5;
    config.period_min = 10'000;
    config.period_max = 40'000;
    config.period_granularity = 10'000;
    for (int kept = 0; kept < 4;) {
      sched::TaskSet tasks = workloads::generate_task_set(config, rng);
      if (!sched::is_schedulable_rta(tasks)) continue;
      for (const core::SchedulerPolicy& policy : {fps, lpfps}) {
        core::EngineOptions options;
        options.horizon = 3.0 * static_cast<Time>(tasks.hyperperiod());
        options.seed = static_cast<std::uint64_t>(100 * step + kept);
        runs.push_back(record("sweep-u" + std::to_string(step) + "-" +
                                  std::to_string(kept) + "/" + policy.name,
                              tasks, policy, gaussian, options));
      }
      sweep_sets.push_back(std::move(tasks));
      ++kept;
    }
  }

  // Overruns on every job, killed at budget or only monitored, both
  // with the safe-mode fallback.
  for (const faults::OverrunAction action :
       {faults::OverrunAction::kKill, faults::OverrunAction::kNone}) {
    for (std::size_t k = 8; k < sweep_sets.size(); k += 7) {
      core::EngineOptions options;
      options.horizon = 3.0 * static_cast<Time>(sweep_sets[k].hyperperiod());
      options.seed = 7 + k;
      options.throw_on_miss = false;
      options.faults.overruns = {{1.0, 0.4}};
      options.containment.on_overrun = action;
      options.containment.safe_mode_fallback = true;
      runs.push_back(record(std::string(action == faults::OverrunAction::kKill
                                            ? "kill"
                                            : "monitor") +
                                "-" + std::to_string(k),
                            sweep_sets[k], lpfps, gaussian, options));
    }
  }

  // An overloaded weakly-hard set: the governor skips jobs.
  {
    Rng wh_rng(42);
    workloads::WeaklyHardGeneratorConfig config;
    config.base.task_count = 4;
    config.base.period_max = 100'000;
    config.total_utilization = 1.1;
    const sched::TaskSet tasks =
        workloads::generate_weakly_hard_task_set(config, wh_rng);
    for (const core::SchedulerPolicy& policy : {fps, lpfps}) {
      for (const weakly_hard::SkipPolicy skip :
           {weakly_hard::SkipPolicy::kOverload,
            weakly_hard::SkipPolicy::kAlways}) {
        core::EngineOptions options;
        options.horizon = 300'000;
        options.seed = 9;
        options.throw_on_miss = false;
        options.weakly_hard.policy = skip;
        options.weakly_hard.skip_dvs = policy.uses_dvs();
        runs.push_back(record(
            std::string("weakly-hard/") + policy.name + "/" +
                (skip == weakly_hard::SkipPolicy::kAlways ? "always"
                                                          : "overload"),
            tasks, policy, nullptr, options));
      }
    }
  }

  // The paper's Table 2 sets over one registry horizon.
  for (const workloads::Workload& w : workloads::paper_workloads()) {
    for (const core::SchedulerPolicy& policy : {fps, lpfps}) {
      core::EngineOptions options;
      options.horizon = w.horizon;
      options.seed = 67;
      runs.push_back(record(w.name + "/" + policy.name,
                            w.tasks.with_bcet_ratio(0.5), policy, gaussian,
                            options));
    }
  }
  return runs;
}

/// Moves the boundary after segment i by a fraction of the shorter side,
/// keeping the timeline sorted and contiguous.
void move_boundary(std::vector<Segment>& segments, std::size_t i, Rng& rng) {
  if (i + 1 >= segments.size()) return;
  Segment& left = segments[i];
  Segment& right = segments[i + 1];
  const Time room = std::min(left.duration(), right.duration());
  const Time shift = rng.uniform(-0.9, 0.9) * room;
  left.end += shift;
  right.begin = left.end;
}

/// Applies edit `kind` at a seeded position and names it.
std::string apply_edit(int kind, const sched::TaskSet& tasks,
                       std::vector<Segment>& segments,
                       std::vector<JobRecord>& jobs, Rng& rng) {
  const auto pick = [&rng](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  const auto running = [&segments, &rng] {
    std::vector<std::size_t> found;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (segments[i].mode == ProcessorMode::kRunning) found.push_back(i);
    }
    if (found.empty()) return segments.size();
    return found[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(found.size()) - 1))];
  };
  std::ostringstream name;
  if (kind < 6) {
    if (segments.empty()) return "none";
    std::size_t i = pick(segments.size());
    switch (kind) {
      case 0: {
        static constexpr double kNudges[] = {-0.05, -1e-3, -1e-7,
                                             1e-7,  1e-3,  0.05};
        const double nudge = kNudges[pick(6)];
        Ratio& ratio = rng.uniform(0.0, 1.0) < 0.5 ? segments[i].ratio_begin
                                                    : segments[i].ratio_end;
        ratio += nudge;
        name << "nudge-ratio@" << i << "/" << nudge;
        break;
      }
      case 1: {
        std::vector<std::size_t> ramps;
        for (std::size_t j = 0; j + 1 < segments.size(); ++j) {
          if (segments[j].ratio_begin != segments[j].ratio_end) {
            ramps.push_back(j);
          }
        }
        if (!ramps.empty()) i = ramps[pick(ramps.size())];
        move_boundary(segments, i, rng);
        name << "move-ramp-end@" << i;
        break;
      }
      case 2:
        move_boundary(segments, i, rng);
        name << "move-boundary@" << i;
        break;
      case 3:
        i = running();
        if (i == segments.size()) return "none";
        // Any other task (every corpus set has several).
        segments[i].task = static_cast<TaskIndex>(
            (static_cast<std::size_t>(segments[i].task) + 1 +
             pick(tasks.size() - 1)) %
            tasks.size());
        name << "retask@" << i;
        break;
      case 4:
        i = running();
        if (i == segments.size()) return "none";
        segments[i].mode = ProcessorMode::kIdleBusyWait;
        segments[i].task = kNoTask;
        name << "idle@" << i;
        break;
      default: {
        // A steady stretch (slowed, if the run has one) moved off its
        // frequency level.
        std::vector<std::size_t> steady;
        for (std::size_t j = 0; j < segments.size(); ++j) {
          if (segments[j].mode == ProcessorMode::kRunning &&
              segments[j].ratio_begin == segments[j].ratio_end &&
              segments[j].ratio_begin < 1.0) {
            steady.push_back(j);
          }
        }
        if (!steady.empty()) i = steady[pick(steady.size())];
        const double nudge = rng.uniform(0.0, 1.0) < 0.5 ? -2e-3 : -1e-13;
        segments[i].ratio_begin += nudge;
        segments[i].ratio_end = segments[i].ratio_begin;
        name << "nudge-level@" << i << "/" << nudge;
        break;
      }
    }
    return name.str();
  }
  if (jobs.empty()) return "none";
  const std::size_t r = pick(jobs.size());
  JobRecord& job = jobs[r];
  switch (kind) {
    case 6:
      jobs.erase(jobs.begin() + static_cast<std::ptrdiff_t>(r));
      name << "drop@" << r;
      break;
    case 7: {
      const JobRecord copy = job;
      jobs.insert(jobs.begin() + static_cast<std::ptrdiff_t>(r) + 1, copy);
      name << "duplicate@" << r;
      break;
    }
    case 8: {
      static constexpr double kScales[] = {0.5, 0.999, 1.001, 1.5};
      const double scale = kScales[pick(4)];
      job.executed *= scale;
      name << "scale-executed@" << r << "/" << scale;
      break;
    }
    case 9:
      job.missed_deadline = !job.missed_deadline;
      name << "flip-missed@" << r;
      break;
    case 10:
      job.skipped = true;
      name << "mark-skipped@" << r;
      break;
    case 11:
      job.killed = true;
      name << "mark-killed@" << r;
      break;
    case 12:
      job.release += static_cast<Time>(tasks[job.task].period);
      name << "shift-release@" << r;
      break;
    case 13: {
      static constexpr std::int64_t kJumps[] = {1, 70, 1000};
      const std::int64_t jump = kJumps[pick(3)];
      job.instance += jump;
      name << "renumber@" << r << "/+" << jump;
      break;
    }
    default: {
      static constexpr double kShifts[] = {-5.0, -1e-6, 1e-6, 5.0};
      const double shift = kShifts[pick(4)];
      job.completion += shift;
      name << "shift-completion@" << r << "/" << shift;
      break;
    }
  }
  return name.str();
}

constexpr int kEditKinds = 15;

std::string render(const AuditReport& report) {
  std::string line = std::to_string(report.segments_checked) + "," +
                     std::to_string(report.jobs_checked) + "," +
                     std::to_string(report.plans_checked) + ",";
  for (std::size_t i = 0; i < report.violations.size(); ++i) {
    const Violation& v = report.violations[i];
    char at[64];
    std::snprintf(at, sizeof(at), "%a", v.at);
    if (i > 0) line += ";";
    line += v.invariant + "@" + at + "#" +
            core::hex64(core::fnv1a(v.message));
  }
  return line;
}

/// "label,segments,jobs,plans,violations" for every case, in order.
std::vector<std::string> compute_lines() {
  std::vector<std::string> lines;
  Rng edits(4242);
  for (const Run& run : corpus()) {
    const sim::Trace& trace = run.result.trace.value();
    lines.push_back(run.label + "/as-recorded," +
                    render(audit_run(run.result, run.tasks, run.cpu,
                                     run.options)));
    lines.push_back(
        run.label + "/trace-only," +
        render(audit_trace(trace, run.tasks, run.result.simulated_time,
                           run.options)));
    for (int copy = 0; copy < 2; ++copy) {
      for (int kind = 0; kind < kEditKinds; ++kind) {
        std::vector<Segment> segments = trace.segments();
        std::vector<JobRecord> jobs = trace.jobs();
        const std::string edit =
            apply_edit(kind, run.tasks, segments, jobs, edits);
        core::SimulationResult edited = run.result;
        edited.trace =
            sim::Trace::unchecked(std::move(segments), std::move(jobs));
        lines.push_back(run.label + "/" + edit + "," +
                        render(audit_run(edited, run.tasks, run.cpu,
                                         run.options)));
      }
    }
  }
  return lines;
}

TEST(AuditVerdictGolden, MatchesCapturedVerdicts) {
  const std::vector<std::string> lines = compute_lines();

  const char* update = std::getenv("LPFPS_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << "case,segments_checked,jobs_checked,plans_checked,violations\n";
    for (const std::string& line : lines) out << line << "\n";
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good()) << "missing " << golden_path()
                         << " — regenerate with LPFPS_UPDATE_GOLDEN=1";
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));  // Header.
  std::vector<std::string> golden;
  while (std::getline(in, line)) {
    if (!line.empty()) golden.push_back(line);
  }
  ASSERT_EQ(lines.size(), golden.size());
  int mismatches = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i] == golden[i]) continue;
    if (++mismatches <= 10) {
      ADD_FAILURE() << "case " << i << " diverged from the captured verdict\n"
                    << "  captured: " << golden[i] << "\n"
                    << "  now:      " << lines[i];
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << lines.size() << " cases";
}

}  // namespace
}  // namespace lpfps::audit
