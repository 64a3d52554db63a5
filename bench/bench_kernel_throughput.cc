// Kernel-throughput baseline — the perf trajectory's yardstick.
//
// Drives every registered workload (Table 2) under every parameterless
// engine policy plus synthetic 50/100-task UUniFast sets for fixed
// simulated horizons, and reports raw simulation throughput: scheduler
// events per wall-clock second and nanoseconds per event.  A third
// section measures the fleet engine (docs/FLEET.md) on a pool of 1024
// small UUniFast sims: a plain core::simulate loop (serial) against a
// fresh engine plus 1024 add() calls per run (add+run), the cost every
// sweep caller pays.  A fourth section, emitted only with the audit enabled,
// prices the default-on audit on a sweep-shaped pool: the same sims
// unaudited and audited; a fifth prices it on one long trace (INS under
// LPFPS over four registry horizons).
//
// Emits BENCH_kernel_throughput.json; CI's perf-smoke job diffs the
// events/sec columns against bench/baseline_kernel_throughput.json and
// fails on a >25% regression (see docs/PERFORMANCE.md for the
// tolerance rationale and how to refresh the baseline).
//
// Timing methodology: each point is run once to size a repetition count
// that fills ~kMinWall of wall time, then re-run that many times under
// one timer — robust against clock granularity without letting the
// bench crawl in Debug/sanitizer smoke runs, where a single run is
// slower and the rep count shrinks automatically.  With LPFPS_AUDIT=1
// each engine point additionally runs once through audit::simulate
// (untimed) so the throughput numbers stay tied to a verified schedule.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "audit/harness.h"
#include "common/random.h"
#include "core/engine.h"
#include "exec/exec_model.h"
#include "fleet/fleet.h"
#include "io/bench_json.h"
#include "runner/runner.h"
#include "sched/analysis.h"
#include "workloads/generator.h"
#include "workloads/registry.h"

namespace {

using namespace lpfps;

constexpr double kMinWall = 0.1;  ///< Seconds of timed work per point.

struct Throughput {
  std::int64_t events_per_run = 0;
  int reps = 1;
  double wall_seconds = 0.0;

  std::int64_t total_events() const { return events_per_run * reps; }
  double events_per_sec() const {
    return wall_seconds > 0.0 ? total_events() / wall_seconds : 0.0;
  }
  double ns_per_event() const {
    return total_events() > 0 ? wall_seconds * 1e9 / total_events() : 0.0;
  }
};

/// Times `run_once` (returning its event count, which must be identical
/// across calls — simulations are deterministic) with an adaptive
/// repetition count.
template <typename Fn>
Throughput measure(Fn run_once) {
  Throughput t;
  const io::WallTimer probe;
  t.events_per_run = run_once();
  const double once = probe.seconds();
  t.reps = once < kMinWall
               ? static_cast<int>(std::ceil(kMinWall / (once > 1e-6 ? once : 1e-6)))
               : 1;
  const io::WallTimer timer;
  for (int i = 0; i < t.reps; ++i) {
    const std::int64_t events = run_once();
    if (events != t.events_per_run) {
      std::fprintf(stderr, "non-deterministic event count: %lld vs %lld\n",
                   static_cast<long long>(events),
                   static_cast<long long>(t.events_per_run));
      std::abort();
    }
  }
  t.wall_seconds = timer.seconds();
  return t;
}

/// Scheduler invocations across a batch — the events/run of a fleet
/// point.
std::int64_t events_of(const std::vector<core::SimulationResult>& results) {
  std::int64_t events = 0;
  for (const core::SimulationResult& result : results) {
    events += result.scheduler_invocations;
  }
  return events;
}

void print_row(const std::string& section, const std::string& name,
               const std::string& policy, const Throughput& t) {
  std::printf("%-12s %-16s %-18s %10lld %5d %8.3f %14.0f %10.1f\n",
              section.c_str(), name.c_str(), policy.c_str(),
              static_cast<long long>(t.total_events()), t.reps,
              t.wall_seconds, t.events_per_sec(), t.ns_per_event());
}

void add_point(io::BenchJsonWriter& json, const std::string& section,
               const std::string& name, const std::string& policy,
               const Throughput& t) {
  json.add_point()
      .set("section", section)
      .set("name", name)
      .set("policy", policy)
      .set("events", t.total_events())
      .set("reps", t.reps)
      .set("wall_seconds", t.wall_seconds)
      .set("events_per_sec", t.events_per_sec())
      .set("ns_per_event", t.ns_per_event());
}

std::vector<core::SchedulerPolicy> bench_policies() {
  return {
      core::SchedulerPolicy::fps(),
      core::SchedulerPolicy::fps_timeout_shutdown(500.0),
      core::SchedulerPolicy::lpfps(),
      core::SchedulerPolicy::lpfps_optimal(),
      core::SchedulerPolicy::lpfps_powerdown_only(),
      core::SchedulerPolicy::lpfps_dvs_only(),
  };
}

}  // namespace

int main() {
  const io::WallTimer total;
  io::BenchJsonWriter json("kernel_throughput");
  audit::AuditAggregator agg("kernel_throughput");
  const auto cpu = power::ProcessorConfig::arm8_default();
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  const std::uint64_t kSeed = 7;
  const Time kHorizonCap = 1e6;
  json.meta()
      .set("seed", kSeed)
      .set("horizon_cap_us", kHorizonCap)
      .set("min_wall_seconds", kMinWall)
      .set("audited", audit::enabled());

  std::printf("%-12s %-16s %-18s %10s %5s %8s %14s %10s\n", "section",
              "name", "policy", "events", "reps", "wall_s", "events/sec",
              "ns/event");

  // ---- Section 1: the paper's registered workloads. --------------------
  for (const workloads::Workload& w : workloads::paper_workloads()) {
    const sched::TaskSet tasks = w.tasks.with_bcet_ratio(0.5);
    core::EngineOptions options;
    options.horizon = std::min(w.horizon, kHorizonCap);
    options.seed = kSeed;
    for (const core::SchedulerPolicy& policy : bench_policies()) {
      if (audit::enabled()) {
        (void)audit::simulate(tasks, cpu, policy, exec, options, &agg);
      }
      const Throughput t = measure([&] {
        return static_cast<std::int64_t>(
            core::simulate(tasks, cpu, policy, exec, options)
                .scheduler_invocations);
      });
      print_row("workload", w.name, policy.name, t);
      add_point(json, "workload", w.name, policy.name, t);
    }
  }

  // ---- Section 2: synthetic 50/100-task UUniFast sets. -----------------
  for (const int task_count : {50, 100}) {
    workloads::GeneratorConfig config;
    config.task_count = task_count;
    config.total_utilization = 0.5;
    config.bcet_ratio = 0.5;
    Rng rng(2024);
    sched::TaskSet tasks = workloads::generate_task_set(config, rng);
    while (!sched::is_schedulable_rta(tasks)) {
      tasks = workloads::generate_task_set(config, rng);
    }
    core::EngineOptions options;
    options.horizon = kHorizonCap;
    options.seed = kSeed;
    const std::string name = "uunifast-" + std::to_string(task_count);
    for (const core::SchedulerPolicy& policy :
         {core::SchedulerPolicy::fps(), core::SchedulerPolicy::lpfps()}) {
      if (audit::enabled()) {
        (void)audit::simulate(tasks, cpu, policy, exec, options, &agg);
      }
      const Throughput t = measure([&] {
        return static_cast<std::int64_t>(
            core::simulate(tasks, cpu, policy, exec, options)
                .scheduler_invocations);
      });
      print_row("synthetic", name, policy.name, t);
      add_point(json, "synthetic", name, policy.name, t);
    }
  }

  // ---- Section 3: the fleet engine (docs/FLEET.md). --------------------
  // A pool of small RM-feasible 5-task UUniFast sims — the sweep regime
  // where per-sim fixed cost (buffer allocation, power-model
  // construction, RNG seeding) rivals the event work — timed two ways.
  // `serial` is a plain core::simulate loop.  `add+run` builds a fresh
  // FleetEngine and add()s every spec per rep — what a sweep caller
  // pays: a spec copy per add() and a fresh SimState per sim, as
  // core::simulate builds.  Results are bit-identical on both paths, so
  // events/run is constant and the events/sec column isolates per-sim
  // overhead.  CI gates add+run's share of the section peak via
  // --min-ratio fleet add+run.
  {
    const std::size_t kFleetSims = 1024;
    std::vector<fleet::SimSpec> specs;
    specs.reserve(kFleetSims);
    Rng fleet_rng(2024);
    workloads::GeneratorConfig config;
    config.task_count = 5;
    config.total_utilization = 0.5;
    config.bcet_ratio = 0.5;
    config.period_min = 10'000;
    config.period_max = 320'000;
    config.period_granularity = 10'000;
    while (specs.size() < kFleetSims) {
      sched::TaskSet tasks = workloads::generate_task_set(config, fleet_rng);
      if (!sched::is_schedulable_rta(tasks)) continue;
      core::EngineOptions options;
      options.horizon = 10'000;
      options.seed = runner::derive_seed(kSeed, specs.size());
        const core::SchedulerPolicy policy = specs.size() % 2 == 0
                                               ? core::SchedulerPolicy::fps()
                                               : core::SchedulerPolicy::lpfps();
      specs.push_back({std::move(tasks), cpu, policy, exec, options});
    }
    if (audit::enabled()) {
      // One untimed audited pass over the pool ties the throughput
      // numbers to verified schedules, like every other section.
      (void)audit::simulate_fleet_sharded(specs, {}, &agg);
    }
    const Throughput serial = measure([&specs] {
      std::int64_t events = 0;
      for (const fleet::SimSpec& spec : specs) {
        events += core::simulate(spec.tasks, spec.processor, spec.policy,
                                 spec.exec_model, spec.options)
                      .scheduler_invocations;
      }
      return events;
    });
    const Throughput add_run = measure([&specs] {
      fleet::FleetEngine fresh;
      for (const fleet::SimSpec& spec : specs) fresh.add(spec);
      return events_of(fresh.run_all());
    });
    const auto emit = [&json](const char* name, const Throughput& t) {
      print_row("fleet", name, "fps+lpfps", t);
      add_point(json, "fleet", name, "fps+lpfps", t);
    };
    emit("serial", serial);
    emit("add+run", add_run);
    const double serial_eps = serial.events_per_sec();
    std::printf("%-12s %-16s add+run x%.2f of serial events/sec (%zu sims)\n",
                "fleet", "scaling",
                serial_eps > 0.0 ? add_run.events_per_sec() / serial_eps
                                 : 0.0,
                kFleetSims);
  }

  // Sections 4 and 5 price the default-on audit on one pool: `unaudited`
  // runs it through fleet::run_fleet_sharded at one worker; `audited`
  // through audit::simulate_fleet_sharded, which also records every
  // trace and audits it (throwing on any violation).  CI gates audited's
  // share of the unaudited rate via --min-ratio <section> audited.  Both
  // are emitted only with the audit enabled, since both points would
  // otherwise time the same path.
  const auto price_audit = [&](const char* section, const char* policy,
                               const std::vector<fleet::SimSpec>& pool,
                               const std::string& note) {
    const Throughput unaudited = measure([&] {
      return events_of(fleet::run_fleet_sharded(pool, {}, 1));
    });
    const Throughput audited = measure([&] {
      return events_of(audit::simulate_fleet_sharded(pool, {}, nullptr, 1));
    });
    print_row(section, "unaudited", policy, unaudited);
    add_point(json, section, "unaudited", policy, unaudited);
    print_row(section, "audited", policy, audited);
    add_point(json, section, "audited", policy, audited);
    std::printf("%-12s %-16s audited x%.2f of unaudited events/sec (%s)\n",
                section, "share",
                unaudited.events_per_sec() > 0.0
                    ? audited.events_per_sec() / unaudited.events_per_sec()
                    : 0.0,
                note.c_str());
  };

  // ---- Section 4: audit cost (docs/PERFORMANCE.md). --------------------
  // What the default-on audit adds to a sweep.  A pool shaped like the
  // repository benchmark's sweep workload: 5-task UUniFast sets at
  // U = 0.1..0.9, periods 10-40 ms in 10 ms steps, three hyperperiods,
  // each set under FPS and LPFPS.
  if (audit::enabled()) {
    constexpr int kSetsPerUtilization = 16;
    std::vector<fleet::SimSpec> pool;
    Rng audit_rng(2024);
    for (int step = 1; step <= 9; ++step) {
      workloads::GeneratorConfig config;
      config.task_count = 5;
      config.total_utilization = step / 10.0;
      config.bcet_ratio = 0.5;
      config.period_min = 10'000;
      config.period_max = 40'000;
      config.period_granularity = 10'000;
      for (int kept = 0; kept < kSetsPerUtilization;) {
        sched::TaskSet tasks = workloads::generate_task_set(config, audit_rng);
        if (!sched::is_schedulable_rta(tasks)) continue;
        core::EngineOptions options;
        options.horizon = 3.0 * static_cast<Time>(tasks.hyperperiod());
        options.seed = runner::derive_seed(kSeed, pool.size());
        pool.push_back({tasks, cpu, core::SchedulerPolicy::fps(), exec,
                        options});
        pool.push_back({std::move(tasks), cpu, core::SchedulerPolicy::lpfps(),
                        exec, options});
        ++kept;
      }
    }
    price_audit("audit_cost", "fps+lpfps", pool,
                std::to_string(pool.size()) + " sims");
  }

  // ---- Section 5: audit cost on a long trace (docs/PERFORMANCE.md). ----
  // INS under LPFPS over four registry horizons, one simulation per rep:
  // the audit's walks must stay linear in the trace length, so its price
  // on a long trace stays a share of the simulation's.
  if (audit::enabled()) {
    const workloads::Workload ins = workloads::workload_by_name("INS");
    core::EngineOptions options;
    options.horizon = 4.0 * ins.horizon;
    options.seed = kSeed;
    price_audit("audit_cost_long", "LPFPS",
                {{ins.tasks.with_bcet_ratio(0.5), cpu,
                  core::SchedulerPolicy::lpfps(), exec, options}},
                "INS, 4 horizons");
  }

  if (audit::enabled()) {
    std::printf("%s\n", agg.summary_line().c_str());
    agg.write_report();
    agg.check();
  }
  json.set_wall_time_seconds(total.seconds());
  const std::string path = json.write();
  if (!path.empty()) std::printf("bench json: %s\n", path.c_str());
  return 0;
}
