// Extension A6 — LPFPS across random task sets (UUniFast) as a function
// of total utilization.  Generalizes Figure 8 beyond the four case
// studies: how much does the saving depend on how loaded the system is?
//
// Pipeline shape (the template for every heavy bench):
//   1. generate work serially — task-set generation shares one RNG
//      stream, so it stays ordered and cheap;
//   2. run the independent simulations as one sharded audited fleet
//      batch (audit::simulate_fleet_sharded, docs/FLEET.md); every
//      (utilization, set) pair simulates under its own seed,
//      runner::derive_seed(kBaseSeed, job_index), so no two jobs share
//      randomness and the table is bit-identical for any LPFPS_JOBS;
//   3. reduce in job order, print the table, and emit
//      BENCH_random_tasksets.json for the perf trajectory.
//
// Every simulation is trace-audited on its fleet worker, and the
// reports fold into a shared AuditAggregator in spec order; the bench
// aborts after the table if any invariant was violated, and writes
// AUDIT_random_tasksets.json (identical at any LPFPS_JOBS) for the CI
// gate.
#include <cstdio>

#include "audit/harness.h"
#include "core/engine.h"
#include "exec/exec_model.h"
#include "fleet/fleet.h"
#include "io/bench_json.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "runner/runner.h"
#include "sched/analysis.h"
#include "workloads/generator.h"

int main() {
  using namespace lpfps;
  const io::WallTimer timer;
  const auto cpu = power::ProcessorConfig::arm8_default();
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  const int sets_per_point = 20;
  const std::uint64_t kBaseSeed = 2024;
  const Time horizon = 2e6 * io::horizon_scale();
  const std::vector<double> utilizations = {0.1, 0.2, 0.3, 0.4, 0.5,
                                            0.6, 0.7, 0.8, 0.9};

  struct Job {
    double utilization;
    sched::TaskSet tasks;
    std::uint64_t seed;
  };
  std::vector<Job> jobs;
  Rng rng(kBaseSeed);
  for (const double u : utilizations) {
    workloads::GeneratorConfig config;
    config.task_count = 5;
    config.total_utilization = u;
    config.bcet_ratio = 0.5;
    config.period_min = 10'000;
    config.period_max = 320'000;
    config.period_granularity = 10'000;

    int generated = 0;
    while (generated < sets_per_point) {
      sched::TaskSet tasks = workloads::generate_task_set(config, rng);
      if (!sched::is_schedulable_rta(tasks)) continue;  // RM-feasible only.
      ++generated;
      jobs.push_back({u, std::move(tasks), 0});
    }
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].seed = runner::derive_seed(kBaseSeed, i);
  }

  // Both policy runs of every set become specs of one sharded audited
  // fleet batch (fps at 2i, lpfps at 2i+1, sharing the set's seed so
  // both policies see the same execution-time draws).
  std::vector<fleet::SimSpec> specs;
  specs.reserve(jobs.size() * 2);
  for (const Job& job : jobs) {
    core::EngineOptions options;
    options.horizon = horizon;
    options.seed = job.seed;  // Same draws for both policies.
    specs.push_back(
        {job.tasks, cpu, core::SchedulerPolicy::fps(), exec, options});
    specs.push_back(
        {job.tasks, cpu, core::SchedulerPolicy::lpfps(), exec, options});
  }
  audit::AuditAggregator agg("random_tasksets");
  const std::vector<core::SimulationResult> results =
      audit::simulate_fleet_sharded(std::move(specs), {}, &agg);

  std::puts("== A6: random task sets (5 tasks, BCET/WCET = 0.5) ==");
  metrics::Table table({"utilization", "sets", "mean reduction %",
                        "min %", "max %", "mean LPFPS power"});
  io::BenchJsonWriter json("random_tasksets");
  json.meta()
      .set("base_seed", kBaseSeed)
      .set("sets_per_point", sets_per_point)
      .set("task_count", 5)
      .set("bcet_ratio", 0.5)
      .set("horizon_us", horizon);

  std::size_t next = 0;
  for (const double u : utilizations) {
    metrics::Summary reduction;
    metrics::Summary lpfps_power;
    std::int64_t power_downs = 0;
    std::int64_t dvs_slowdowns = 0;
    for (int set = 0; set < sets_per_point; ++set, ++next) {
      const core::SimulationResult& fps_run = results[2 * next];
      const core::SimulationResult& lpfps_run = results[2 * next + 1];
      reduction.add(100.0 *
                    (1.0 - lpfps_run.average_power / fps_run.average_power));
      lpfps_power.add(lpfps_run.average_power);
      power_downs += lpfps_run.power_downs;
      dvs_slowdowns += lpfps_run.dvs_slowdowns;
    }
    table.add_row({metrics::Table::num(u, 1),
                   std::to_string(sets_per_point),
                   metrics::Table::num(reduction.mean(), 1),
                   metrics::Table::num(reduction.min(), 1),
                   metrics::Table::num(reduction.max(), 1),
                   metrics::Table::num(lpfps_power.mean(), 4)});
    json.add_point()
        .set("utilization", u)
        .set("mean_reduction_pct", reduction.mean())
        .set("min_reduction_pct", reduction.min())
        .set("max_reduction_pct", reduction.max())
        .set("mean_lpfps_power", lpfps_power.mean())
        .set("lpfps_power_downs", power_downs)
        .set("lpfps_dvs_slowdowns", dvs_slowdowns);
  }
  std::fputs(table.to_aligned().c_str(), stdout);
  std::puts(
      "\nLight systems save mostly via power-down; mid-utilization\n"
      "systems get the biggest relative DVS wins; near U=1 the slack\n"
      "vanishes and LPFPS converges to FPS, as theory demands.");

  json.set_jobs(runner::default_job_count());
  json.set_wall_time_seconds(timer.seconds());
  json.write();

  // Deterministic audit summary (sums and maxes only), machine-readable
  // report, then fail loudly if any run violated an invariant.
  std::puts(agg.summary_line().c_str());
  agg.write_report();
  agg.check();
  return 0;
}
