// Fleet bit-identity for weakly-hard batches (docs/FLEET.md +
// docs/WEAKLY_HARD.md): a mixed batch of hard, governor-armed and
// skip-DVS sims must come out byte-identical whether run serially
// through core::simulate, back to back through one fleet engine, or
// sharded across workers — the skip governor's decisions are pure
// functions of per-sim state, which every simulation builds afresh.
#include "fleet/fleet.h"

#include <string>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "io/trace_io.h"
#include "runner/runner.h"
#include "sched/priority.h"
#include "sched/task.h"
#include "workloads/generator.h"

namespace lpfps {
namespace {

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

/// A mixed batch: overloaded weakly-hard sets under every policy arm
/// (kNever / kOverload / kAlways, skip-DVS on and off, FPS and LPFPS)
/// interleaved with plain hard sims, all with recorded traces.
std::vector<fleet::SimSpec> make_specs() {
  const auto cpu = power::ProcessorConfig::arm8_default();
  std::vector<fleet::SimSpec> specs;
  Rng rng(42);
  workloads::WeaklyHardGeneratorConfig wh_config;
  wh_config.base.task_count = 4;
  wh_config.base.period_max = 100'000;
  wh_config.total_utilization = 1.1;
  workloads::GeneratorConfig hard_config;
  hard_config.task_count = 4;
  hard_config.total_utilization = 0.5;
  hard_config.period_max = 100'000;

  const weakly_hard::SkipPolicy policies[] = {
      weakly_hard::SkipPolicy::kNever, weakly_hard::SkipPolicy::kOverload,
      weakly_hard::SkipPolicy::kAlways};
  for (int round = 0; round < 4; ++round) {
    const sched::TaskSet wh_tasks =
        workloads::generate_weakly_hard_task_set(wh_config, rng);
    for (const auto& policy :
         {core::SchedulerPolicy::fps(), core::SchedulerPolicy::lpfps()}) {
      for (const weakly_hard::SkipPolicy skip : policies) {
        for (const bool skip_dvs : {false, true}) {
          core::EngineOptions options;
          options.horizon = 150'000;
          options.seed = runner::derive_seed(9, specs.size());
          options.throw_on_miss = false;
          options.record_trace = true;
          options.weakly_hard.policy = skip;
          options.weakly_hard.skip_dvs = skip_dvs;
          specs.push_back({wh_tasks, cpu, policy, nullptr, options});
        }
      }
    }
    // A plain hard sim between rounds so shard cuts cross lane kinds.
    const sched::TaskSet hard_tasks =
        workloads::generate_task_set(hard_config, rng);
    core::EngineOptions options;
    options.horizon = 150'000;
    options.seed = runner::derive_seed(9, specs.size());
    options.throw_on_miss = false;
    options.record_trace = true;
    specs.push_back({hard_tasks, cpu, core::SchedulerPolicy::lpfps(),
                     nullptr, options});
  }
  return specs;
}

TEST(FleetWeaklyHard, SerialFleetAndShardedAreByteIdentical) {
  const std::vector<fleet::SimSpec> specs = make_specs();

  std::vector<std::string> serial;
  serial.reserve(specs.size());
  for (const fleet::SimSpec& spec : specs) {
    serial.push_back(identity(
        spec.tasks, core::simulate(spec.tasks, spec.processor, spec.policy,
                                   spec.exec_model, spec.options)));
  }

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    const std::vector<core::SimulationResult> sharded =
        fleet::run_fleet_sharded(specs, {}, workers);
    ASSERT_EQ(sharded.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(identity(specs[i].tasks, sharded[i]), serial[i])
          << "sharded(" << workers << ") lane " << i;
    }
  }
}

TEST(FleetWeaklyHard, ArmedLanesActuallySkipped) {
  // Sanity on the batch itself: the identity test above is vacuous if
  // no lane ever skipped, so pin that armed overloaded lanes did.
  const std::vector<fleet::SimSpec> specs = make_specs();
  const std::vector<core::SimulationResult> results =
      fleet::run_fleet_sharded(specs, {}, 1);
  int skipped_lanes = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].jobs_skipped_weakly > 0) ++skipped_lanes;
    if (specs[i].options.weakly_hard.policy ==
        weakly_hard::SkipPolicy::kNever) {
      EXPECT_EQ(results[i].jobs_skipped_weakly, 0) << "lane " << i;
    }
  }
  EXPECT_GT(skipped_lanes, 0);
}

}  // namespace
}  // namespace lpfps
