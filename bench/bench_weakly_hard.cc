// Weakly-hard QoS-vs-energy sweep — graceful overload degradation
// (docs/WEAKLY_HARD.md).
//
// Overloaded UUniFast sets (nominal utilization > 1, hard-infeasible by
// construction, degraded-feasible by the generator's admission test)
// with WCET overruns injected into the *hard* tasks, swept over an
// overload factor x skip-budget grid under four arms:
//
//   fps/hard-kill      full-speed FPS with budget kills + safe mode —
//                      the purely hard baseline.  Kills contain the
//                      overruns but nothing sheds the structural
//                      overload, so deadlines miss;
//   wh/fps             the skip governor on full-speed FPS — skips
//                      shed exactly the load the (m,k)/skip-over
//                      contracts permit, restoring zero misses;
//   wh/lpfps           the governor under plain LPFPS — same QoS, plus
//                      whatever slack DVS can reclaim around the skips;
//   wh/lpfps-skipdvs   skip-aware DVS (skip-to-slack): slowdown plans
//                      extend past arrivals whose jobs the governor
//                      will certainly skip, converting every granted
//                      skip into a deeper slowdown.
//
// Execution is deterministic-WCET (BCET = WCET), so the *only* slack in
// the system is what the governor sheds — the sweep isolates the
// skip-to-slack conversion instead of burying it under stochastic early
// completions.
//
// The bench enforces the acceptance bar inline (non-zero exit):
// every weakly-hard arm finishes with zero deadline misses and zero
// (m,k) violations and a positive skip count on every point where the
// hard baseline misses, and the skip-DVS arm spends measurably less
// energy than wh/lpfps at equal QoS.  Every run is trace-audited with
// the weakly-hard battery (W-codes); AUDIT_weakly_hard.json feeds the
// CI audit gate.  A final timed section reports simulation throughput
// per arm for the perf gate (section "weakly_hard",
// bench/baseline_weakly_hard.json).
//
// The sweep runs as one sharded audited fleet batch
// (audit::simulate_fleet_sharded): stdout and the AUDIT record are
// identical at any LPFPS_JOBS, apart from the timed `perf` rows.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "audit/harness.h"
#include "common/random.h"
#include "core/engine.h"
#include "io/bench_json.h"
#include "metrics/table.h"
#include "runner/runner.h"
#include "weakly_hard/analysis.h"
#include "workloads/generator.h"

namespace {

using namespace lpfps;

struct Arm {
  const char* label;
  core::SchedulerPolicy policy;
  weakly_hard::SkipPolicy skip;
  bool skip_dvs;
  bool safe_mode;
};

struct Budget {
  const char* label;
  int mk_m;
  int mk_k;
  int skip_s;
};

/// Minimum finished-window slack across weakly-hard tasks (the
/// worst-margin column); 0 when the set closed no windows.
int min_window_slack(const core::SimulationResult& r) {
  int worst = weakly_hard::SkipGovernor::kHardTaskSlack;
  for (const int slack : r.weakly_hard_worst_slack) {
    if (slack == weakly_hard::SkipGovernor::kHardTaskSlack) continue;
    worst = worst == weakly_hard::SkipGovernor::kHardTaskSlack
                ? slack
                : std::min(worst, slack);
  }
  return worst == weakly_hard::SkipGovernor::kHardTaskSlack ? 0 : worst;
}

}  // namespace

int main() {
  const io::WallTimer timer;
  const auto cpu = power::ProcessorConfig::arm8_default();
  const std::uint64_t kBaseSeed = 3001;
  const double kOverrunProbability = 0.2;
  const double kOverrunMagnitude = 0.5;
  const Time horizon = 1e6 * io::horizon_scale();
  const std::vector<double> factors = {1.05, 1.15, 1.25};
  const std::vector<Budget> budgets = {
      {"loose", 1, 3, 2},  // skip up to 2-of-3 / every other
      {"tight", 2, 3, 3},  // skip up to 1-of-3 / 1-in-3
  };
  const std::vector<Arm> arms = {
      {"fps/hard-kill", core::SchedulerPolicy::fps(),
       weakly_hard::SkipPolicy::kNever, false, true},
      {"wh/fps", core::SchedulerPolicy::fps(),
       weakly_hard::SkipPolicy::kOverload, false, false},
      {"wh/lpfps", core::SchedulerPolicy::lpfps(),
       weakly_hard::SkipPolicy::kOverload, false, false},
      {"wh/lpfps-skipdvs", core::SchedulerPolicy::lpfps(),
       weakly_hard::SkipPolicy::kOverload, true, false},
  };

  struct Point {
    std::string name;
    double factor;
    const Budget* budget;
    sched::TaskSet tasks;
    faults::FaultPlan faults;  ///< Overruns on the hard tasks only.
  };
  std::vector<Point> points;
  for (const double factor : factors) {
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      workloads::WeaklyHardGeneratorConfig config;
      config.base.task_count = 6;
      config.base.bcet_ratio = 1.0;  // Deterministic-WCET execution.
      config.total_utilization = factor;
      config.weakly_hard_fraction = 0.67;  // 4 of 6 tasks skippable.
      config.mk_m = budgets[b].mk_m;
      config.mk_k = budgets[b].mk_k;
      config.skip_s = budgets[b].skip_s;
      Rng rng(runner::derive_seed(kBaseSeed, points.size()));
      Point point;
      point.factor = factor;
      point.budget = &budgets[b];
      point.tasks = workloads::generate_weakly_hard_task_set(config, rng);
      char name[32];
      std::snprintf(name, sizeof(name), "u%.2f/%s", factor,
                    budgets[b].label);
      point.name = name;
      // Overruns stress the *hard* tasks: the dynamic latch and the
      // kill containment react, while the weakly-hard windows stay a
      // pure function of the skip policy.
      point.faults.overruns.resize(point.tasks.size());
      for (std::size_t t = 0; t < point.tasks.size(); ++t) {
        if (!point.tasks[static_cast<TaskIndex>(t)].weakly_hard()) {
          point.faults.overruns[t] = {kOverrunProbability,
                                      kOverrunMagnitude};
        }
      }
      points.push_back(std::move(point));
    }
  }

  const auto arm_options = [&](const Point& point, const Arm& arm,
                               std::uint64_t seed) {
    core::EngineOptions options;
    options.horizon = horizon;
    options.seed = seed;
    options.throw_on_miss = false;
    options.faults = point.faults;
    options.containment.on_overrun = faults::OverrunAction::kKill;
    options.containment.safe_mode_fallback = arm.safe_mode;
    options.weakly_hard.policy = arm.skip;
    options.weakly_hard.skip_dvs = arm.skip_dvs;
    return options;
  };

  audit::AuditAggregator agg("weakly_hard");
  std::vector<fleet::SimSpec> specs;
  specs.reserve(points.size() * arms.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    // One seed per *point*, shared by all four arms: every arm sees the
    // same overrun draws, so the energy and miss columns compare pure
    // policy differences, not fault-lottery noise.
    const std::uint64_t seed = runner::derive_seed(kBaseSeed, 100 + p);
    for (const Arm& arm : arms) {
      specs.push_back(
          {points[p].tasks, cpu, arm.policy, nullptr,
           arm_options(points[p], arm, seed)});
    }
  }
  const std::vector<core::SimulationResult> results =
      audit::simulate_fleet_sharded(specs, {}, &agg);

  std::puts("== Weakly-hard sweep: graceful overload degradation ==");
  std::printf("nominal utilization > 1 by construction; overruns "
              "(p=%.2f, m=%.2f) on hard tasks; horizon %.0f us\n\n",
              kOverrunProbability, kOverrunMagnitude, horizon);

  metrics::Table table({"point", "arm", "misses", "skipped(wh)",
                        "mk viol", "killed", "worst slack", "energy",
                        "vs hard %"});
  io::BenchJsonWriter json("weakly_hard");
  json.meta()
      .set("base_seed", kBaseSeed)
      .set("overrun_probability", kOverrunProbability)
      .set("overrun_magnitude", kOverrunMagnitude)
      .set("horizon_us", horizon)
      .set("audited", audit::enabled());

  int failures = 0;
  double energy_wh_lpfps = 0.0;
  double energy_wh_skipdvs = 0.0;
  std::int64_t skips_wh_lpfps = 0;
  std::int64_t skips_wh_skipdvs = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const Point& point = points[p];
    const std::size_t base_index = p * arms.size();  // fps/hard-kill
    const double base_energy = results[base_index].total_energy;
    const std::int64_t base_misses = results[base_index].deadline_misses;
    for (std::size_t a = 0; a < arms.size(); ++a) {
      const Arm& arm = arms[a];
      const core::SimulationResult& r = results[base_index + a];
      const double vs_hard =
          base_energy > 0.0 ? 100.0 * (r.total_energy / base_energy - 1.0)
                            : 0.0;
      table.add_row({point.name, arm.label,
                     std::to_string(r.deadline_misses),
                     std::to_string(r.jobs_skipped_weakly),
                     std::to_string(r.mk_violations),
                     std::to_string(r.jobs_killed),
                     std::to_string(min_window_slack(r)),
                     metrics::Table::num(r.total_energy, 1),
                     metrics::Table::num(vs_hard, 2)});
      // QoS points carry the perf-gate key fields so the JSON stays
      // parseable by check_perf_regression.py; only the timed
      // "weakly_hard" section below is baselined.
      json.add_point()
          .set("section", "weakly_hard_qos")
          .set("name", point.name)
          .set("policy", arm.label)
          .set("events_per_sec", 0.0)
          .set("overload_factor", point.factor)
          .set("skip_budget", point.budget->label)
          .set("jobs_completed", r.jobs_completed)
          .set("deadline_misses", r.deadline_misses)
          .set("jobs_skipped_weakly", r.jobs_skipped_weakly)
          .set("mk_violations", r.mk_violations)
          .set("jobs_killed", r.jobs_killed)
          .set("overruns_detected", r.overruns_detected)
          .set("safe_mode_entries", r.safe_mode_entries)
          .set("worst_window_slack", min_window_slack(r))
          .set("total_energy", r.total_energy)
          .set("energy_vs_hard_pct", vs_hard);
      const bool weakly = arm.skip != weakly_hard::SkipPolicy::kNever;
      if (weakly) {
        // The acceptance bar: degradation is *graceful* — the governor
        // sheds only contracted jobs and everything it runs meets its
        // deadline, even where the hard baseline is drowning.
        if (r.deadline_misses != 0) {
          std::fprintf(stderr, "FAIL %s %s: %d deadline misses\n",
                       point.name.c_str(), arm.label, r.deadline_misses);
          ++failures;
        }
        if (r.mk_violations != 0) {
          std::fprintf(stderr, "FAIL %s %s: %d (m,k) violations\n",
                       point.name.c_str(), arm.label, r.mk_violations);
          ++failures;
        }
        if (base_misses > 0 && r.jobs_skipped_weakly <= 0) {
          std::fprintf(stderr,
                       "FAIL %s %s: hard baseline misses %lld but no "
                       "weakly-hard skips were spent\n",
                       point.name.c_str(), arm.label,
                       static_cast<long long>(base_misses));
          ++failures;
        }
      }
      if (std::string(arm.label) == "wh/lpfps") {
        energy_wh_lpfps += r.total_energy;
        skips_wh_lpfps += r.jobs_skipped_weakly;
      } else if (std::string(arm.label) == "wh/lpfps-skipdvs") {
        energy_wh_skipdvs += r.total_energy;
        skips_wh_skipdvs += r.jobs_skipped_weakly;
        // Equal QoS: skip-aware DVS must shed exactly the jobs plain
        // LPFPS sheds — the energy comparison below is only meaningful
        // if the two arms deliver the same service.
        const core::SimulationResult& lpfps_arm =
            results[base_index + a - 1];
        if (r.jobs_skipped_weakly != lpfps_arm.jobs_skipped_weakly) {
          std::fprintf(stderr,
                       "FAIL %s: skip-DVS changed the skip pattern "
                       "(%d vs %d skips)\n",
                       point.name.c_str(), r.jobs_skipped_weakly,
                       lpfps_arm.jobs_skipped_weakly);
          ++failures;
        }
      }
    }
  }
  std::fputs(table.to_aligned().c_str(), stdout);

  const double skip_dvs_saving =
      energy_wh_lpfps > 0.0
          ? 100.0 * (1.0 - energy_wh_skipdvs / energy_wh_lpfps)
          : 0.0;
  std::printf(
      "\nskip-aware DVS vs plain LPFPS (all points): energy %.1f vs "
      "%.1f (%.2f%% saved), %lld vs %lld skips\n",
      energy_wh_skipdvs, energy_wh_lpfps, skip_dvs_saving,
      static_cast<long long>(skips_wh_skipdvs),
      static_cast<long long>(skips_wh_lpfps));
  json.meta()
      .set("skip_dvs_energy_saving_pct", skip_dvs_saving)
      .set("skips_wh_lpfps", skips_wh_lpfps)
      .set("skips_wh_skipdvs", skips_wh_skipdvs);
  if (!(energy_wh_skipdvs < energy_wh_lpfps)) {
    std::fprintf(stderr,
                 "FAIL skip-aware DVS did not save energy over plain "
                 "LPFPS (%.1f >= %.1f)\n",
                 energy_wh_skipdvs, energy_wh_lpfps);
    ++failures;
  }

  // ---- Timed section for the perf gate. --------------------------------
  // One representative mid-overload point per arm, re-simulated
  // repeatedly under one wall timer (adaptive rep count, as in
  // bench_kernel_throughput) — section "weakly_hard" is required by
  // check_perf_regression.py in CI.
  {
    const Point& point = points[2];  // u1.15/loose
    for (std::size_t a = 0; a < arms.size(); ++a) {
      const Arm& arm = arms[a];
      const core::EngineOptions options =
          arm_options(point, arm, runner::derive_seed(kBaseSeed, 977 + a));
      const io::WallTimer probe;
      const core::SimulationResult first =
          core::simulate(point.tasks, cpu, arm.policy, nullptr, options);
      const double once = probe.seconds();
      const int reps =
          once < 0.1 ? static_cast<int>(
                           std::ceil(0.1 / (once > 1e-6 ? once : 1e-6)))
                     : 1;
      const io::WallTimer wall;
      for (int i = 0; i < reps; ++i) {
        (void)core::simulate(point.tasks, cpu, arm.policy, nullptr,
                             options);
      }
      const double seconds = wall.seconds();
      const std::int64_t events =
          static_cast<std::int64_t>(first.scheduler_invocations) * reps;
      const double events_per_sec =
          seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
      std::printf("perf %-18s %-18s %10lld events %5d reps %8.3f s "
                  "%12.0f ev/s\n",
                  point.name.c_str(), arm.label,
                  static_cast<long long>(events), reps, seconds,
                  events_per_sec);
      json.add_point()
          .set("section", "weakly_hard")
          .set("name", point.name)
          .set("policy", arm.label)
          .set("events", events)
          .set("reps", reps)
          .set("wall_seconds", seconds)
          .set("events_per_sec", events_per_sec);
    }
  }

  json.set_wall_time_seconds(timer.seconds());
  const std::string path = json.write();
  if (!path.empty()) std::printf("bench json: %s\n", path.c_str());

  std::puts(agg.summary_line().c_str());
  agg.write_report();
  agg.check();
  if (failures > 0) {
    std::fprintf(stderr, "%d weakly-hard acceptance failure(s)\n",
                 failures);
    return 1;
  }
  return 0;
}
