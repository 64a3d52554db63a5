// Suite pinning the sharded fleet's determinism contract: partitioning
// a spec list positionally across run_batch workers — one FleetEngine
// per worker — must produce output byte-identical to one engine (and
// therefore to serial core::simulate) for any worker count, including
// failure surfacing: the lowest-spec-index failure wins, with its
// original type, whether a simulation or the per-result callback
// threw.  Identity is asserted on the same serialized currency the
// differential suite uses.
#include "fleet/fleet.h"

#include <bit>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/harness.h"
#include "core/engine.h"
#include "exec/exec_model.h"
#include "gtest/gtest.h"
#include "io/trace_io.h"
#include "runner/runner.h"
#include "sched/analysis.h"
#include "sched/priority.h"
#include "workloads/example.h"
#include "workloads/generator.h"

namespace lpfps {
namespace {

std::vector<std::string> task_names(const sched::TaskSet& tasks) {
  std::vector<std::string> names;
  names.reserve(tasks.size());
  for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks.size()); ++i) {
    names.push_back(tasks[i].name);
  }
  return names;
}

std::string identity(const sched::TaskSet& tasks,
                     const core::SimulationResult& result) {
  std::string id = io::result_csv_row(result);
  if (result.trace.has_value()) {
    const std::vector<std::string> names = task_names(tasks);
    id += io::trace_segments_csv(*result.trace, names);
    id += io::trace_jobs_csv(*result.trace, names);
  }
  return id;
}

/// A 200-spec mixed batch: the sweep regime (RM-schedulable UUniFast
/// sets, both policies, stochastic execution, positional seeds) with a
/// faulted-and-contained sim and a long WCET sim spliced into the
/// middle, so shard boundaries cut through feature-bearing sims too.
std::vector<fleet::SimSpec> make_mixed_specs() {
  const auto cpu = power::ProcessorConfig::arm8_default();
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  std::vector<fleet::SimSpec> specs;
  Rng rng(123);
  while (specs.size() < 198) {
    workloads::GeneratorConfig config;
    config.task_count = 4;
    config.total_utilization = 0.3 + 0.1 * (specs.size() % 5);
    config.bcet_ratio = 0.5;
    config.period_min = 10'000;
    config.period_max = 80'000;
    config.period_granularity = 10'000;
    sched::TaskSet tasks = workloads::generate_task_set(config, rng);
    if (!sched::is_schedulable_rta(tasks)) continue;
    for (const auto& policy :
         {core::SchedulerPolicy::fps(), core::SchedulerPolicy::lpfps()}) {
      core::EngineOptions options;
      options.horizon = 100'000;
      options.seed = runner::derive_seed(77, specs.size());
      specs.push_back({tasks, cpu, policy, exec, options});
    }
  }
  // Faulted + contained, mid-list: overruns killed at budget with the
  // safe-mode fallback, misses recorded instead of thrown.
  {
    core::EngineOptions options;
    options.horizon = 400'000;
    options.seed = 7;
    options.throw_on_miss = false;
    options.faults.overruns = {{1.0, 0.4}};
    options.containment.on_overrun = faults::OverrunAction::kKill;
    options.containment.safe_mode_fallback = true;
    specs.insert(specs.begin() + 101,
                 {workloads::example_table1(), cpu,
                  core::SchedulerPolicy::lpfps(), exec, options});
  }
  // Long WCET run, mid-list: deterministic execution over 10,000
  // hyperperiods of Table 1.
  {
    core::EngineOptions options;
    options.horizon = 4'000'000;
    options.seed = 11;
    specs.insert(specs.begin() + 50,
                 {workloads::example_table1(), cpu,
                  core::SchedulerPolicy::lpfps(), nullptr, options});
  }
  return specs;
}

TEST(FleetSharded, WorkerCountCannotChangeOutput) {
  const std::vector<fleet::SimSpec> specs = make_mixed_specs();
  ASSERT_EQ(specs.size(), 200u);

  const std::vector<core::SimulationResult> serial =
      fleet::run_fleet_sharded(specs, {}, 1);
  ASSERT_EQ(serial.size(), specs.size());
  {
    // Prove the batch exercises the containment path.
    bool killed = false;
    for (const auto& result : serial) {
      killed = killed || result.jobs_killed > 0;
    }
    EXPECT_TRUE(killed);
  }

  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    const std::vector<core::SimulationResult> sharded =
        fleet::run_fleet_sharded(specs, {}, workers);
    ASSERT_EQ(sharded.size(), specs.size()) << workers << " workers";
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(identity(specs[i].tasks, sharded[i]),
                identity(specs[i].tasks, serial[i]))
          << "sim " << i << " diverged at " << workers << " workers";
    }
  }
}

/// An unschedulable set under strict miss semantics: its simulation
/// throws a std::runtime_error (deadline miss).
fleet::SimSpec missing_spec() {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("hog", 100, 80.0));
  tasks.add(sched::make_task("late", 100, 40.0));
  sched::assign_rate_monotonic(tasks);
  core::EngineOptions options;
  options.horizon = 1'000;
  options.seed = 3;
  return {std::move(tasks), power::ProcessorConfig::arm8_default(),
          core::SchedulerPolicy::fps(), nullptr, options};
}

/// The callback's failure type: unrelated to the simulation's, so a
/// mix-up between the two cannot pass.
struct CallbackError : std::exception {};

/// A simulation throws at spec `sim_fails` and the callback at spec
/// `callback_fails`; whichever index is lower must surface, with its
/// original type, at every worker count — whether the two failures sit
/// in one shard or in different ones.
TEST(FleetSharded, LowestIndexFailureWinsBetweenSimulationAndCallback) {
  std::vector<fleet::SimSpec> specs = make_mixed_specs();
  specs.resize(40);
  struct Case {
    std::size_t callback_fails;
    std::size_t sim_fails;
  };
  for (const Case c : {Case{13, 27}, Case{27, 13}, Case{21, 24},
                       Case{24, 21}}) {
    std::vector<fleet::SimSpec> batch = specs;
    batch[c.sim_fails] = missing_spec();
    const auto callback = [&c](std::size_t i, const fleet::SimSpec&,
                               core::SimulationResult&) {
      if (i == c.callback_fails) throw CallbackError();
    };
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      if (c.callback_fails < c.sim_fails) {
        EXPECT_THROW(fleet::run_fleet_sharded(batch, {}, workers, callback),
                     CallbackError)
            << workers << " workers, callback at " << c.callback_fails;
      } else {
        EXPECT_THROW(fleet::run_fleet_sharded(batch, {}, workers, callback),
                     std::runtime_error)
            << workers << " workers, simulation at " << c.sim_fails;
      }
    }
    // Without a callback the failing simulation surfaces by itself.
    EXPECT_THROW(fleet::run_fleet_sharded(batch, {}, 4), std::runtime_error);
  }
}

/// The callback runs once per spec, with the spec's global index and
/// the spec as it ran, and may edit the result in place.
TEST(FleetSharded, CallbackSeesEverySpecByGlobalIndex) {
  std::vector<fleet::SimSpec> specs = make_mixed_specs();
  specs.resize(30);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].options.record_trace = i % 3 == 0;
  }
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    std::vector<int> calls(specs.size(), 0);
    const auto results = fleet::run_fleet_sharded(
        specs, {}, workers,
        [&](std::size_t i, const fleet::SimSpec& spec,
            core::SimulationResult& result) {
          ++calls[i];
          EXPECT_EQ(spec.options.seed, specs[i].options.seed) << i;
          EXPECT_EQ(result.trace.has_value(), spec.options.record_trace);
          result.trace.reset();
        });
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(calls[i], 1) << "spec " << i << ", " << workers << " workers";
      EXPECT_FALSE(results[i].trace.has_value()) << i;
    }
  }
}

TEST(FleetSharded, MoreWorkersThanSpecsLeavesNoEmptyShardArtifacts) {
  // 3 specs across 8 requested workers: shard count clamps to the spec
  // count — no empty shard may emit, reorder, or drop results.
  std::vector<fleet::SimSpec> specs = make_mixed_specs();
  specs.resize(3);
  const std::vector<core::SimulationResult> serial =
      fleet::run_fleet_sharded(specs, {}, 1);
  const std::vector<core::SimulationResult> sharded =
      fleet::run_fleet_sharded(specs, {}, 8);
  ASSERT_EQ(sharded.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(identity(specs[i].tasks, sharded[i]),
              identity(specs[i].tasks, serial[i]))
        << "sim " << i;
  }

  // Degenerate inputs: no specs at all.
  EXPECT_TRUE(fleet::run_fleet_sharded({}, {}, 4).empty());
}

/// core::SimState's constructor validates every spec before it binds
/// it, the one check behind every entry point, so the plain call, the
/// fleet and the audited fleet all throw the same std::logic_error
/// message: for an empty task set, and for a fault plan whose overrun
/// list has the wrong length for the set.  The second case must report
/// FaultPlan::validate's message, which names the field.
TEST(FleetSharded, EveryEntryPointRejectsAnInvalidSpecAlike) {
  core::EngineOptions options;
  options.horizon = 1000.0;
  const fleet::SimSpec empty{sched::TaskSet{},
                             power::ProcessorConfig::arm8_default(),
                             core::SchedulerPolicy::fps(), nullptr, options};
  // Table 1 has three tasks; two overrun entries fit neither the
  // broadcast nor the per-task form.
  fleet::SimSpec bad_faults = empty;
  bad_faults.tasks = workloads::example_table1();
  bad_faults.options.faults.overruns = {{1.0, 0.5}, {1.0, 0.5}};
  const auto message_of = [](const auto& run) -> std::string {
    try {
      run();
    } catch (const std::logic_error& error) {
      return error.what();
    }
    return "no std::logic_error";
  };
  for (const auto& [spec, expected] :
       {std::pair{empty, "engine needs at least one task"},
        std::pair{bad_faults, "FaultPlan::overruns must be empty"}}) {
    const std::string direct = message_of([&] {
      (void)core::simulate(spec.tasks, spec.processor, spec.policy,
                           spec.exec_model, spec.options);
    });
    EXPECT_NE(direct.find(expected), std::string::npos) << direct;
    EXPECT_EQ(
        message_of([&] { (void)fleet::run_fleet_sharded({spec}, {}, 2); }),
        direct);
    EXPECT_EQ(message_of([&] {
                (void)audit::simulate_fleet_sharded({spec}, {}, nullptr, 2);
              }),
              direct);
  }
}

/// The audited batch: zero violations at any worker count, results
/// identical to per-spec audit::simulate, traces dropped per spec after
/// auditing, and an aggregator whose floating-point sums come out
/// bitwise equal to the serial loop's at 1 and 4 workers: reports fold
/// in spec order, not in completion order, which at 4 workers differs
/// from run to run.  Three 4-worker runs make a completion-order fold
/// unlikely to pass by chance.
TEST(FleetSharded, AuditedShardedMatchesPerSpecAuditAndFoldsInSpecOrder) {
  std::vector<fleet::SimSpec> specs = make_mixed_specs();
  // The long WCET spec's 4 s horizon makes its trace dominate audit
  // time, and it adds nothing to the fold-order check.
  std::erase_if(specs, [](const fleet::SimSpec& spec) {
    return spec.options.horizon > 1e6;
  });
  audit::AuditAggregator serial_agg("fleet_sharded_serial");
  std::vector<core::SimulationResult> serial;
  for (const fleet::SimSpec& spec : specs) {
    serial.push_back(audit::simulate(spec.tasks, spec.processor, spec.policy,
                                     spec.exec_model, spec.options,
                                     &serial_agg));
  }
  const audit::CounterTotals reference = serial_agg.counters();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4},
                                    std::size_t{4}, std::size_t{4}}) {
    audit::AuditAggregator agg("fleet_sharded");
    const auto results = audit::simulate_fleet_sharded(specs, {}, &agg, workers);
    ASSERT_EQ(results.size(), serial.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(identity(specs[i].tasks, results[i]),
                identity(specs[i].tasks, serial[i]))
          << "sim " << i << ", " << workers << " workers";
      EXPECT_FALSE(results[i].trace.has_value());
    }
    EXPECT_EQ(agg.runs(), static_cast<std::int64_t>(specs.size()));
    EXPECT_EQ(agg.violation_count(), 0);
    EXPECT_NO_THROW(agg.check());
    // Bitwise: the same additions in the same order.
    const audit::CounterTotals totals = agg.counters();
    EXPECT_TRUE(totals == reference) << workers << " workers";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(totals.total_energy),
              std::bit_cast<std::uint64_t>(reference.total_energy))
        << workers << " workers";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(totals.simulated_time),
              std::bit_cast<std::uint64_t>(reference.simulated_time))
        << workers << " workers";
  }
}

}  // namespace
}  // namespace lpfps
