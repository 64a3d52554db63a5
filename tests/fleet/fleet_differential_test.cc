// Differential suite pinning the fleet engine's bit-identity contract:
// every simulation run through fleet::FleetEngine — at any batch width,
// any stride, any lane-block size or block order, mixed with any
// neighbours — must produce results bit-identical to a serial
// core::simulate of the same spec.  Identity
// is asserted on the serialized forms the repo treats as ground truth
// (io::result_csv_row, trace segment/job CSVs), the same currency the
// runner-determinism and cycle-detection suites use.
#include "fleet/fleet.h"

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

/// The serialized identity of one simulation result: the golden CSV row
/// plus (when a trace was recorded) every segment and job row.
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

/// A diverse spec mix: RM-schedulable UUniFast sets across utilizations
/// under both policies, stochastic execution, traces on, positionally
/// seeded like every sweep in this repo.
std::vector<fleet::SimSpec> make_specs(int sets, bool record_trace) {
  const auto cpu = power::ProcessorConfig::arm8_default();
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  std::vector<fleet::SimSpec> specs;
  Rng rng(99);
  int generated = 0;
  while (generated < sets) {
    workloads::GeneratorConfig config;
    config.task_count = 4;
    config.total_utilization = 0.3 + 0.1 * (generated % 5);
    config.bcet_ratio = 0.5;
    config.period_min = 10'000;
    config.period_max = 80'000;
    config.period_granularity = 10'000;
    sched::TaskSet tasks = workloads::generate_task_set(config, rng);
    if (!sched::is_schedulable_rta(tasks)) continue;
    ++generated;
    for (const auto& policy :
         {core::SchedulerPolicy::fps(), core::SchedulerPolicy::lpfps()}) {
      core::EngineOptions options;
      options.horizon = 400'000;
      options.seed = runner::derive_seed(2024, specs.size());
      options.record_trace = record_trace;
      specs.push_back({tasks, cpu, policy, exec, options});
    }
  }
  return specs;
}

std::vector<std::string> serial_identities(
    const std::vector<fleet::SimSpec>& specs) {
  std::vector<std::string> ids;
  ids.reserve(specs.size());
  for (const fleet::SimSpec& spec : specs) {
    ids.push_back(identity(
        spec.tasks, core::simulate(spec.tasks, spec.processor, spec.policy,
                                   spec.exec_model, spec.options)));
  }
  return ids;
}

TEST(FleetDifferential, BatchMatchesSerialAcrossWidthsAndPolicies) {
  const std::vector<fleet::SimSpec> specs = make_specs(6, true);
  const std::vector<std::string> serial = serial_identities(specs);

  for (const std::size_t width : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}, std::size_t{64}}) {
    fleet::FleetOptions options;
    options.batch_width = width;
    const std::vector<core::SimulationResult> results =
        fleet::run_fleet(specs, options);
    ASSERT_EQ(results.size(), specs.size()) << "width " << width;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(identity(specs[i].tasks, results[i]), serial[i])
          << "sim " << i << " diverged at batch width " << width;
    }
  }
}

TEST(FleetDifferential, StrideInvariance) {
  const std::vector<fleet::SimSpec> specs = make_specs(4, true);
  const std::vector<std::string> serial = serial_identities(specs);

  for (const Time stride : {1.0, 5'000.0, 1e9}) {
    fleet::FleetOptions options;
    options.batch_width = 8;
    options.stride = stride;
    const std::vector<core::SimulationResult> results =
        fleet::run_fleet(specs, options);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(identity(specs[i].tasks, results[i]), serial[i])
          << "sim " << i << " diverged at stride " << stride;
    }
  }
}

/// Lane-block invariance: a batch is scheduled as cache-sized blocks
/// of lane_block lanes, and any block size — including 0 (the whole
/// batch as one block, the pre-blocking behavior) and sizes that leave
/// uneven tails — must be bit-identical to serial.
TEST(FleetDifferential, BlockSizeInvariance) {
  const std::vector<fleet::SimSpec> specs = make_specs(6, true);  // 12 sims.
  const std::vector<std::string> serial = serial_identities(specs);

  for (const std::size_t lane_block :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{5},
        std::size_t{12}, std::size_t{64}}) {
    fleet::FleetOptions options;
    options.batch_width = specs.size();  // One batch, blocks inside it.
    options.lane_block = lane_block;
    fleet::FleetEngine engine(options);
    for (const fleet::SimSpec& spec : specs) engine.add(spec);
    const std::vector<core::SimulationResult> results = engine.run_all();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(identity(specs[i].tasks, results[i]), serial[i])
          << "sim " << i << " diverged at lane_block " << lane_block;
    }
    const std::size_t effective =
        lane_block == 0 ? specs.size() : lane_block;
    EXPECT_EQ(engine.stats().blocks,
              (specs.size() + effective - 1) / effective)
        << "lane_block " << lane_block;
  }
}

/// Block-order invariance: blocks are independent lane subsets, so
/// running them highest-index-first (the reverse_block_order
/// verification knob) must change nothing.
TEST(FleetDifferential, BlockOrderInvariance) {
  const std::vector<fleet::SimSpec> specs = make_specs(5, true);  // 10 sims.
  const std::vector<std::string> serial = serial_identities(specs);

  for (const bool reverse : {false, true}) {
    fleet::FleetOptions options;
    options.batch_width = specs.size();
    options.lane_block = 3;  // Four blocks, uneven tail.
    options.reverse_block_order = reverse;
    const std::vector<core::SimulationResult> results =
        fleet::run_fleet(specs, options);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(identity(specs[i].tasks, results[i]), serial[i])
          << "sim " << i << " diverged with reverse_block_order="
          << reverse;
    }
  }
}

/// One faulted-and-contained sim and one cycle-eligible sim mixed into
/// a batch of stochastic neighbours: the fleet must reproduce the
/// containment counters and the fast-forward (cycles_detected > 0)
/// bit-for-bit, proving both feature paths run unchanged inside lanes.
TEST(FleetDifferential, MixedBatchWithFaultedAndCycleEligibleSims) {
  const auto cpu = power::ProcessorConfig::arm8_default();
  std::vector<fleet::SimSpec> specs = make_specs(2, true);

  // Faulted + contained: every job overruns by 40%, kill at budget,
  // safe-mode fallback, misses recorded instead of thrown.
  {
    core::EngineOptions options;
    options.horizon = 400'000;
    options.seed = 7;
    options.record_trace = true;
    options.throw_on_miss = false;
    options.faults.overruns = {{1.0, 0.4}};
    options.containment.on_overrun = faults::OverrunAction::kKill;
    options.containment.safe_mode_fallback = true;
    specs.push_back({workloads::example_table1(), cpu,
                     core::SchedulerPolicy::lpfps(),
                     std::make_shared<exec::ClampedGaussianModel>(),
                     options});
  }
  // Cycle-eligible: deterministic WCET execution (null model) over many
  // hyperperiods fast-forwards after two boundaries.
  {
    core::EngineOptions options;
    options.horizon = 4'000'000;
    options.seed = 11;
    options.record_trace = true;
    specs.push_back({workloads::example_table1(), cpu,
                     core::SchedulerPolicy::lpfps(), nullptr, options});
  }

  const std::vector<std::string> serial = serial_identities(specs);
  {
    // Prove the mixed batch actually exercises both paths.
    const fleet::SimSpec& faulted = specs[specs.size() - 2];
    const auto ref =
        core::simulate(faulted.tasks, faulted.processor, faulted.policy,
                       faulted.exec_model, faulted.options);
    ASSERT_GT(ref.overruns_detected, 0);
    ASSERT_GT(ref.jobs_killed, 0);
    const fleet::SimSpec& cyclic = specs.back();
    const auto cyc =
        core::simulate(cyclic.tasks, cyclic.processor, cyclic.policy,
                       cyclic.exec_model, cyclic.options);
    ASSERT_GT(cyc.cycles_detected, 0);
  }

  fleet::FleetOptions options;
  options.batch_width = specs.size();  // One batch holding everything.
  const std::vector<core::SimulationResult> results =
      fleet::run_fleet(specs, options);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(identity(specs[i].tasks, results[i]), serial[i])
        << "sim " << i << " diverged in the mixed batch";
  }
}

/// Lane reuse must not leak state between sims: run the same specs
/// twice through one engine and through widths and lane blocks that
/// force uneven batch tails.  Round two binds only rebound lanes, each
/// restoring its RNG by copy from the warmed state add() cached, so a
/// cache a run disturbed, or a restore that left the previous sim's
/// generator in place, diverges there.  Width 1 is the core::simulate
/// reference path.
TEST(FleetDifferential, LaneRebindLeaksNothing) {
  const std::vector<fleet::SimSpec> specs = make_specs(5, false);  // 10 sims.
  const std::vector<std::string> serial = serial_identities(specs);

  struct Shape {
    std::size_t width;
    std::size_t lane_block;
  };
  for (const Shape shape : {Shape{3, 64}, Shape{1, 3}, Shape{8, 3}}) {
    fleet::FleetOptions options;
    options.batch_width = shape.width;
    options.lane_block = shape.lane_block;
    fleet::FleetEngine engine(options);
    for (const fleet::SimSpec& spec : specs) engine.add(spec);
    for (int round = 0; round < 2; ++round) {
      const std::vector<core::SimulationResult> results = engine.run_all();
      ASSERT_EQ(results.size(), specs.size());
      for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(identity(specs[i].tasks, results[i]), serial[i])
            << "sim " << i << " diverged at width " << shape.width
            << ", lane_block " << shape.lane_block << ", round " << round;
      }
    }
    if (shape.width > 1) {
      EXPECT_EQ(engine.stats().lane_constructions, 0u);
      EXPECT_EQ(engine.stats().lane_rebinds, specs.size());
    }
  }
}

TEST(FleetDifferential, IsolatedOutcomesCaptureFailuresPerLane) {
  std::vector<fleet::SimSpec> specs = make_specs(2, false);
  // An unschedulable two-task set under strict miss semantics: the
  // second task cannot make its deadline, so this sim throws.
  {
    sched::TaskSet tasks;
    tasks.add(sched::make_task("hog", 100, 80.0));
    tasks.add(sched::make_task("late", 100, 40.0));
    sched::assign_rate_monotonic(tasks);
    core::EngineOptions options;
    options.horizon = 1'000;
    options.seed = 3;
    specs.push_back({std::move(tasks), power::ProcessorConfig::arm8_default(),
                     core::SchedulerPolicy::fps(), nullptr, options});
  }
  const std::size_t failing = specs.size() - 1;

  fleet::FleetOptions options;
  options.batch_width = specs.size();
  const auto outcomes = fleet::run_fleet_isolated(specs, options);
  ASSERT_EQ(outcomes.size(), specs.size());
  EXPECT_FALSE(outcomes[failing].ok());
  EXPECT_NE(outcomes[failing].error.find("deadline miss"), std::string::npos);
  for (std::size_t i = 0; i < failing; ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(identity(specs[i].tasks, *outcomes[i].result),
              identity(specs[i].tasks,
                       core::simulate(specs[i].tasks, specs[i].processor,
                                      specs[i].policy, specs[i].exec_model,
                                      specs[i].options)))
        << "healthy sim " << i << " perturbed by a failing lane";
  }

  // run_all surfaces the lowest-index failure as the original type.
  fleet::FleetEngine engine(options);
  for (const fleet::SimSpec& spec : specs) engine.add(spec);
  EXPECT_THROW(engine.run_all(), std::runtime_error);
}

/// The audit battery accepts fleet-produced traces: zero violations
/// over a batched sweep, with the aggregator seeing every run.
TEST(FleetDifferential, AuditPassOverFleetTraces) {
  const std::vector<fleet::SimSpec> specs = make_specs(4, false);
  fleet::FleetOptions options;
  options.batch_width = 8;
  audit::AuditAggregator agg("fleet_differential");
  const auto results = audit::simulate_fleet(specs, options, &agg);
  ASSERT_EQ(results.size(), specs.size());
  // Traces were forced for auditing, then dropped per spec.
  for (const auto& result : results) EXPECT_FALSE(result.trace.has_value());
  EXPECT_EQ(agg.runs(), static_cast<std::int64_t>(specs.size()));
  EXPECT_EQ(agg.violation_count(), 0);
  EXPECT_NO_THROW(agg.check());
}

TEST(FleetDifferential, StatsObserveBatchingMechanics) {
  const std::vector<fleet::SimSpec> specs = make_specs(9, false);  // 18 sims.
  fleet::FleetEngine engine(fleet::FleetOptions{8, 0.0});
  for (const fleet::SimSpec& spec : specs) engine.add(spec);
  const auto results = engine.run_all();
  ASSERT_EQ(results.size(), specs.size());

  const fleet::FleetStats& stats = engine.stats();
  EXPECT_EQ(stats.sims, specs.size());
  EXPECT_EQ(stats.batches, (specs.size() + 7) / 8);
  // 18 sims over 8 lanes: 8 constructions, 10 rebinds.
  EXPECT_EQ(stats.lane_constructions, 8u);
  EXPECT_EQ(stats.lane_rebinds, specs.size() - 8);
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_GT(stats.steps, 0);
  std::int64_t events = 0;
  for (const auto& result : results) events += result.scheduler_invocations;
  EXPECT_EQ(stats.events, events);
}

}  // namespace
}  // namespace lpfps
