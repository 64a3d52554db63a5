// Robustness sweep — deadline-miss ratio and energy overhead vs WCET
// overrun intensity, across the four Table 2 applications.
//
// Four configurations per (workload, magnitude) point:
//   fps/kill      full-speed FPS with budget kills — the containment
//                 baseline (no DVS to disturb);
//   lpfps/monitor LPFPS detecting but not acting — how much damage an
//                 uncontained overrun does to a slack-reclaiming
//                 scheduler;
//   lpfps/safe    detection + safe-mode fallback only — LPFPS fails
//                 toward plain FPS from the first anomaly to the next
//                 idle instant, but sheds no work;
//   lpfps/kill    full containment — budget kills + safe mode; killed
//                 jobs cap their demand at C, so a nominally
//                 schedulable set stays miss-free at any intensity.
//
// Every point also records whether full-speed FPS alone could schedule
// the *faulted* demand (RTA with every WCET inflated to (1+m) C): the
// CI gate (.github/workflows/ci.yml) asserts zero misses on kill +
// safe-mode points whenever that flag holds, zero audit violations
// everywhere, and a non-zero total of detected overruns — the
// containment acceptance bar of docs/ROBUSTNESS.md.
//
// The sweep runs as one sharded audited fleet batch
// (audit::simulate_fleet_sharded, docs/FLEET.md): every simulation is
// trace-audited with the fault-aware battery (F-codes included) on its
// worker, and the reports fold into a shared AuditAggregator in spec
// order, so the table, JSON points and audit summary are identical at
// any LPFPS_JOBS.  The bench aborts after the table on any violation
// and writes AUDIT_fault_sweep.json for the gate.
#include <cstdio>
#include <string>
#include <vector>

#include "audit/harness.h"
#include "core/engine.h"
#include "exec/exec_model.h"
#include "fleet/fleet.h"
#include "io/bench_json.h"
#include "metrics/table.h"
#include "runner/runner.h"
#include "sched/analysis.h"
#include "workloads/registry.h"

namespace {

using namespace lpfps;

/// RTA verdict for the faulted demand: every WCET inflated to
/// (1 + magnitude) C.  A task whose inflated WCET no longer fits its
/// deadline makes the set trivially unschedulable.
bool fps_faulted_schedulable(const sched::TaskSet& tasks, double magnitude) {
  sched::TaskSet inflated;
  for (const sched::Task& t : tasks.tasks()) {
    sched::Task copy = t;
    copy.wcet = t.wcet * (1.0 + magnitude);
    copy.bcet = std::min(copy.bcet, copy.wcet);
    if (copy.wcet > static_cast<Work>(copy.deadline)) return false;
    inflated.add(copy);
  }
  return sched::is_schedulable_rta(inflated);
}

struct Config {
  const char* label;
  core::SchedulerPolicy policy;
  faults::OverrunAction action;
  bool safe_mode;
};

}  // namespace

int main() {
  const io::WallTimer timer;
  const auto cpu = power::ProcessorConfig::arm8_default();
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  const std::uint64_t kBaseSeed = 2024;
  const double kProbability = 0.25;  ///< Per-job overrun chance.
  const double kBcetRatio = 0.5;
  const std::vector<double> magnitudes = {0.0, 0.1, 0.25, 0.5};
  const std::vector<Config> configs = {
      {"fps/kill", core::SchedulerPolicy::fps(), faults::OverrunAction::kKill,
       true},
      {"lpfps/monitor", core::SchedulerPolicy::lpfps(),
       faults::OverrunAction::kNone, false},
      {"lpfps/safe", core::SchedulerPolicy::lpfps(),
       faults::OverrunAction::kNone, true},
      {"lpfps/kill", core::SchedulerPolicy::lpfps(),
       faults::OverrunAction::kKill, true},
  };

  struct Job {
    std::string workload;
    double magnitude;
    std::size_t config;
    bool faulted_schedulable;
    sched::TaskSet tasks;
    Time horizon;
    std::uint64_t seed;
  };
  std::vector<Job> jobs;
  const Time horizon_cap = 1e6 * io::horizon_scale();
  for (const workloads::Workload& w : workloads::paper_workloads()) {
    const sched::TaskSet tasks = w.tasks.with_bcet_ratio(kBcetRatio);
    const Time horizon = std::min(w.horizon, horizon_cap);
    for (const double m : magnitudes) {
      const bool feasible = fps_faulted_schedulable(w.tasks, m);
      for (std::size_t c = 0; c < configs.size(); ++c) {
        jobs.push_back({w.name, m, c, feasible, tasks, horizon, 0});
      }
    }
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].seed = runner::derive_seed(kBaseSeed, i);
  }

  const auto job_options = [&](const Job& job) {
    const Config& config = configs[job.config];
    core::EngineOptions options;
    options.horizon = job.horizon;
    options.seed = job.seed;
    options.throw_on_miss = false;
    if (job.magnitude > 0.0) {
      options.faults.overruns = {{kProbability, job.magnitude}};
    }
    options.containment.on_overrun = config.action;
    options.containment.safe_mode_fallback = config.safe_mode;
    return options;
  };

  std::vector<fleet::SimSpec> specs;
  specs.reserve(jobs.size());
  for (const Job& job : jobs) {
    specs.push_back(
        {job.tasks, cpu, configs[job.config].policy, exec, job_options(job)});
  }
  audit::AuditAggregator agg("fault_sweep");
  const std::vector<core::SimulationResult> results =
      audit::simulate_fleet_sharded(std::move(specs), {}, &agg);

  std::puts("== Fault sweep: WCET overruns vs containment ==");
  std::printf("overrun probability %.2f, BCET/WCET = %.1f; magnitude m "
              "inflates a faulted job to (1+m) C\n\n",
              kProbability, kBcetRatio);

  metrics::Table table({"workload", "m", "faulted RTA", "config",
                        "miss ratio", "misses", "killed", "overruns",
                        "safe modes", "energy +%"});
  io::BenchJsonWriter json("fault_sweep");
  json.meta()
      .set("base_seed", kBaseSeed)
      .set("overrun_probability", kProbability)
      .set("bcet_ratio", kBcetRatio)
      .set("horizon_cap_us", horizon_cap);

  // Index of the fault-free (m = 0) twin of each point, for the energy
  // overhead column: jobs are emitted magnitude-major per workload with
  // the config order fixed.
  const std::size_t per_workload = magnitudes.size() * configs.size();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const Config& config = configs[job.config];
    const core::SimulationResult& r = results[i];
    const std::size_t baseline =
        (i / per_workload) * per_workload + job.config;
    const double energy_overhead_pct =
        100.0 * (r.total_energy / results[baseline].total_energy - 1.0);
    const std::int64_t terminal = r.jobs_completed + r.jobs_killed;
    const double miss_ratio =
        terminal > 0
            ? static_cast<double>(r.deadline_misses) / terminal
            : 0.0;

    table.add_row({job.workload, metrics::Table::num(job.magnitude, 2),
                   job.faulted_schedulable ? "yes" : "no", config.label,
                   metrics::Table::num(miss_ratio, 4),
                   std::to_string(r.deadline_misses),
                   std::to_string(r.jobs_killed),
                   std::to_string(r.overruns_detected),
                   std::to_string(r.safe_mode_entries),
                   metrics::Table::num(energy_overhead_pct, 2)});
    json.add_point()
        .set("workload", job.workload)
        .set("magnitude", job.magnitude)
        .set("config", config.label)
        .set("containment", faults::to_string(config.action))
        .set("safe_mode", config.safe_mode)
        .set("fps_faulted_schedulable", job.faulted_schedulable)
        .set("jobs_completed", r.jobs_completed)
        .set("deadline_misses", r.deadline_misses)
        .set("miss_ratio", miss_ratio)
        .set("jobs_killed", r.jobs_killed)
        .set("jobs_skipped", r.jobs_skipped)
        .set("overruns_detected", r.overruns_detected)
        .set("safe_mode_entries", r.safe_mode_entries)
        .set("total_energy", r.total_energy)
        .set("average_power", r.average_power)
        .set("energy_overhead_pct", energy_overhead_pct);
  }
  std::fputs(table.to_aligned().c_str(), stdout);
  std::puts(
      "\nKill containment keeps every nominally schedulable set miss-free\n"
      "at any intensity (shed demand never exceeds one WCET budget), at\n"
      "the cost of the killed jobs' lost work.  Safe mode alone shrinks\n"
      "the miss ratio but cannot restore the faulted-RTA guarantee: the\n"
      "slack LPFPS yielded *before* the overrun was detected is already\n"
      "spent, so a late job can still overshoot even when full-speed FPS\n"
      "would have absorbed the same demand.  The energy column prices\n"
      "the robustness: every detection forfeits slack the scheduler\n"
      "would otherwise have reclaimed.");

  json.set_wall_time_seconds(timer.seconds());
  json.write();

  std::puts(agg.summary_line().c_str());
  agg.write_report();
  agg.check();
  return 0;
}
