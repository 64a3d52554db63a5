// Differential suite pinning the fleet engine's bit-identity contract:
// every simulation run through fleet::FleetEngine — on one reused
// lane, after any predecessor — must produce results bit-identical to
// a serial core::simulate of the same spec.  Identity is asserted on
// the serialized forms the repo treats as ground truth
// (io::result_fault_csv_row, trace segment/job CSVs), the same currency
// the runner-determinism suite uses.
#include "fleet/fleet.h"

#include <algorithm>
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

/// The serialized identity of one simulation result: the golden CSV row
/// with the fault and weakly-hard counters, plus (when a trace was
/// recorded) every segment and job row.
std::string identity(const sched::TaskSet& tasks,
                     const core::SimulationResult& result) {
  std::string id = io::result_fault_csv_row(result);
  if (result.trace.has_value()) {
    const std::vector<std::string> names = tasks.names();
    id += io::trace_segments_csv(*result.trace, names);
    id += io::trace_jobs_csv(*result.trace, names);
  }
  return id;
}

/// A diverse spec mix: RM-schedulable UUniFast sets across utilizations
/// under both policies, stochastic execution, positionally seeded like
/// every sweep in this repo.
std::vector<fleet::SimSpec> make_specs(int sets, bool record_trace,
                                       int task_count = 4) {
  const auto cpu = power::ProcessorConfig::arm8_default();
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  std::vector<fleet::SimSpec> specs;
  Rng rng(99 + task_count);
  int generated = 0;
  while (generated < sets) {
    workloads::GeneratorConfig config;
    config.task_count = task_count;
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

/// Faulted + contained: every job overruns by 40%, kill at budget,
/// safe-mode fallback, misses recorded instead of thrown.
fleet::SimSpec faulted_spec(bool record_trace) {
  core::EngineOptions options;
  options.horizon = 400'000;
  options.seed = 7;
  options.record_trace = record_trace;
  options.throw_on_miss = false;
  options.faults.overruns = {{1.0, 0.4}};
  options.containment.on_overrun = faults::OverrunAction::kKill;
  options.containment.safe_mode_fallback = true;
  return {workloads::example_table1(), power::ProcessorConfig::arm8_default(),
          core::SchedulerPolicy::lpfps(),
          std::make_shared<exec::ClampedGaussianModel>(), options};
}

/// Long WCET run: deterministic execution (null model) over 10,000
/// hyperperiods of Table 1, so the lane carries a long trace and large
/// instance counters into its next bind.
fleet::SimSpec long_wcet_spec(bool record_trace) {
  core::EngineOptions options;
  options.horizon = 4'000'000;
  options.seed = 11;
  options.record_trace = record_trace;
  return {workloads::example_table1(), power::ProcessorConfig::arm8_default(),
          core::SchedulerPolicy::lpfps(), nullptr, options};
}

/// Weakly-hard: an overloaded set whose governor skips jobs, with
/// skip-aware DVS on or off.
fleet::SimSpec weakly_hard_spec(std::uint64_t seed, bool skip_dvs) {
  Rng rng(seed);
  workloads::WeaklyHardGeneratorConfig config;
  config.base.task_count = 5;
  config.base.period_max = 100'000;
  config.total_utilization = 1.1;
  core::EngineOptions options;
  options.horizon = 150'000;
  options.seed = seed;
  options.throw_on_miss = false;
  options.weakly_hard.policy = weakly_hard::SkipPolicy::kOverload;
  options.weakly_hard.skip_dvs = skip_dvs;
  return {workloads::generate_weakly_hard_task_set(config, rng),
          power::ProcessorConfig::arm8_default(),
          core::SchedulerPolicy::lpfps(), nullptr, options};
}

/// An unschedulable two-task set under strict miss semantics: the
/// second task cannot make its deadline, so this sim throws.
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

std::vector<core::SimulationResult> run_engine(
    const std::vector<fleet::SimSpec>& specs) {
  fleet::FleetEngine engine;
  for (const fleet::SimSpec& spec : specs) engine.add(spec);
  return engine.run_all();
}

TEST(FleetDifferential, EngineMatchesSerialAcrossPolicies) {
  const std::vector<fleet::SimSpec> specs = make_specs(6, true);
  const std::vector<std::string> serial = serial_identities(specs);
  const std::vector<core::SimulationResult> results = run_engine(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(identity(specs[i].tasks, results[i]), serial[i])
        << "sim " << i << " diverged";
  }
}

/// One faulted-and-contained sim and one long WCET sim mixed into a
/// batch of stochastic neighbours: the fleet must reproduce the
/// containment counters and the long deterministic run bit-for-bit,
/// proving both run unchanged on a lane.
TEST(FleetDifferential, MixedBatchWithFaultedAndLongWcetSims) {
  std::vector<fleet::SimSpec> specs = make_specs(2, true);
  specs.push_back(faulted_spec(true));
  specs.push_back(long_wcet_spec(true));

  const std::vector<std::string> serial = serial_identities(specs);
  {
    // Prove the mixed batch actually exercises the containment path.
    const fleet::SimSpec& faulted = specs[specs.size() - 2];
    const auto ref =
        core::simulate(faulted.tasks, faulted.processor, faulted.policy,
                       faulted.exec_model, faulted.options);
    ASSERT_GT(ref.overruns_detected, 0);
    ASSERT_GT(ref.jobs_killed, 0);
  }

  const std::vector<core::SimulationResult> results = run_engine(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(identity(specs[i].tasks, results[i]), serial[i])
        << "sim " << i << " diverged in the mixed batch";
  }
}

/// Lane reuse must not leak state between sims: one lane runs every
/// spec back to back, so each sim inherits the buffers, RNG, fault
/// wiring and governor its predecessor left behind.  The batch mixes
/// plain 4- and 7-task sims with faulted, long WCET and weakly-hard
/// ones, and runs forward and reversed (every spec gets a different
/// predecessor) and twice on one engine (round two binds every spec to
/// the already-built lane, the first one included).  A reset that
/// misses any per-sim state diverges somewhere here.
TEST(FleetDifferential, LaneRebindLeaksNothing) {
  const std::vector<fleet::SimSpec> small = make_specs(3, false);
  const std::vector<fleet::SimSpec> large = make_specs(2, false, 7);
  std::vector<fleet::SimSpec> specs;
  specs.push_back(small[0]);
  specs.push_back(faulted_spec(false));
  specs.push_back(weakly_hard_spec(31, false));
  specs.push_back(large[0]);
  specs.push_back(long_wcet_spec(false));
  specs.push_back(small[1]);
  specs.push_back(weakly_hard_spec(32, true));
  specs.push_back(large[1]);
  specs.push_back(small[2]);
  specs.push_back(large[2]);
  specs.push_back(small[3]);
  specs.push_back(faulted_spec(true));
  specs.push_back(large[3]);
  specs.push_back(small[4]);
  specs.push_back(long_wcet_spec(true));
  specs.push_back(small[5]);
  {
    // Prove the order exercises every feature path.
    bool killed = false, skipped = false;
    for (const fleet::SimSpec& spec : specs) {
      const core::SimulationResult r =
          core::simulate(spec.tasks, spec.processor, spec.policy,
                         spec.exec_model, spec.options);
      killed = killed || r.jobs_killed > 0;
      skipped = skipped || r.jobs_skipped_weakly > 0;
    }
    ASSERT_TRUE(killed);
    ASSERT_TRUE(skipped);
  }

  for (const bool reversed : {false, true}) {
    std::vector<fleet::SimSpec> order = specs;
    if (reversed) std::reverse(order.begin(), order.end());
    const std::vector<std::string> serial = serial_identities(order);
    fleet::FleetEngine engine;
    for (const fleet::SimSpec& spec : order) engine.add(spec);
    for (int round = 0; round < 2; ++round) {
      const std::vector<core::SimulationResult> results = engine.run_all();
      ASSERT_EQ(results.size(), order.size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(identity(order[i].tasks, results[i]), serial[i])
            << "sim " << i << " diverged, reversed " << reversed
            << ", round " << round;
      }
      EXPECT_EQ(engine.stats().lane_constructions, round == 0 ? 1u : 0u);
      EXPECT_EQ(engine.stats().lane_rebinds,
                round == 0 ? order.size() - 1 : order.size());
    }
  }
}

/// A failing spec aborts the run with its original exception type: a
/// simulation that misses a deadline (std::runtime_error), and a spec
/// that fails validation when run_all() binds it to the lane, which
/// surfaces the same type core::simulate throws for it.
TEST(FleetDifferential, FailingSpecSurfacesItsOriginalException) {
  std::vector<fleet::SimSpec> specs = make_specs(2, false);
  specs.push_back(missing_spec());
  {
    fleet::FleetEngine engine;
    for (const fleet::SimSpec& spec : specs) engine.add(spec);
    EXPECT_THROW(engine.run_all(), std::runtime_error);
  }

  fleet::SimSpec invalid = specs.front();
  invalid.options.horizon = -1.0;
  EXPECT_THROW(core::simulate(invalid.tasks, invalid.processor, invalid.policy,
                              invalid.exec_model, invalid.options),
               std::logic_error);
  fleet::FleetEngine engine;
  engine.add(specs.front());
  engine.add(invalid);
  EXPECT_THROW(engine.run_all(), std::logic_error);
}

/// The audit battery accepts fleet-produced traces: zero violations
/// over a batch, with the aggregator seeing every run.
TEST(FleetDifferential, AuditPassOverFleetTraces) {
  const std::vector<fleet::SimSpec> specs = make_specs(4, false);
  audit::AuditAggregator agg("fleet_differential");
  const auto results = audit::simulate_fleet_sharded(specs, {}, &agg, 1);
  ASSERT_EQ(results.size(), specs.size());
  // Traces were forced for auditing, then dropped per spec.
  for (const auto& result : results) EXPECT_FALSE(result.trace.has_value());
  EXPECT_EQ(agg.runs(), static_cast<std::int64_t>(specs.size()));
  EXPECT_EQ(agg.violation_count(), 0);
  EXPECT_NO_THROW(agg.check());
}

TEST(FleetDifferential, StatsObserveLaneMechanics) {
  const std::vector<fleet::SimSpec> specs = make_specs(9, false);  // 18 sims.
  fleet::FleetEngine engine;
  for (const fleet::SimSpec& spec : specs) engine.add(spec);
  const auto results = engine.run_all();
  ASSERT_EQ(results.size(), specs.size());

  const fleet::FleetStats& stats = engine.stats();
  EXPECT_EQ(stats.sims, specs.size());
  // One lane: built for the first sim, rebound for the other 17.
  EXPECT_EQ(stats.lane_constructions, 1u);
  EXPECT_EQ(stats.lane_rebinds, specs.size() - 1);
  EXPECT_EQ(stats.rounds, specs.size());
  EXPECT_GT(stats.steps, 0);
  std::int64_t events = 0;
  for (const auto& result : results) events += result.scheduler_invocations;
  EXPECT_EQ(stats.events, events);
}

}  // namespace
}  // namespace lpfps
