// Randomized property sweep: UUniFast task sets x execution-time models
// must, under LPFPS, (a) never miss a deadline (the engine throws),
// (b) never consume more power than FPS, and (c) produce schedules that
// pass the full trace audit (audit::audit_run: timeline, job windows,
// the fixed-priority invariant, work conservation, plans, energy and
// counters).
#include <gtest/gtest.h>

#include "audit/audit.h"
#include "audit/harness.h"
#include "core/engine.h"
#include "sched/analysis.h"
#include "workloads/generator.h"

namespace lpfps {
namespace {

using core::EngineOptions;
using core::SchedulerPolicy;

exec::ExecModelPtr model_by_index(int index) {
  switch (index % 3) {
    case 0:
      return std::make_shared<exec::ClampedGaussianModel>();
    case 1:
      return std::make_shared<exec::UniformModel>();
    default:
      return std::make_shared<exec::BimodalModel>(0.7);
  }
}

class FuzzProperty : public ::testing::TestWithParam<double> {};

TEST_P(FuzzProperty, RandomSetsNeverMissAndNeverLoseToFps) {
  const double utilization = GetParam();
  Rng rng(static_cast<std::uint64_t>(utilization * 1000) + 7);

  workloads::GeneratorConfig config;
  config.task_count = 5;
  config.total_utilization = utilization;
  config.period_min = 10'000;
  config.period_max = 160'000;
  config.period_granularity = 10'000;
  config.bcet_ratio = 0.3;

  int tested = 0;
  int draws = 0;
  while (tested < 6 && draws < 200) {
    ++draws;
    const sched::TaskSet tasks = workloads::generate_task_set(config, rng);
    if (!sched::is_schedulable_rta(tasks)) continue;
    ++tested;

    EngineOptions options;
    options.horizon = 1e6;
    options.seed = static_cast<std::uint64_t>(tested);
    options.record_trace = true;
    const auto exec = model_by_index(tested);

    const auto fps = core::simulate(
        tasks, power::ProcessorConfig::arm8_default(),
        SchedulerPolicy::fps(), exec, options);
    const auto lpfps = core::simulate(
        tasks, power::ProcessorConfig::arm8_default(),
        SchedulerPolicy::lpfps(), exec, options);

    EXPECT_EQ(lpfps.deadline_misses, 0);
    EXPECT_LE(lpfps.average_power, fps.average_power + 1e-9)
        << "U=" << utilization << " draw=" << draws;

    const audit::AuditReport report = audit::audit_run(
        lpfps, tasks, power::ProcessorConfig::arm8_default(),
        audit::derive_options(SchedulerPolicy::lpfps(), options));
    EXPECT_TRUE(report.ok())
        << "U=" << utilization << " draw=" << draws << "\n"
        << report.to_string();
  }
  EXPECT_EQ(tested, 6) << "could not draw enough schedulable sets";
}

INSTANTIATE_TEST_SUITE_P(UtilizationGrid, FuzzProperty,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8),
                         [](const auto& info) {
                           std::string name = "U";
                           name += std::to_string(
                               static_cast<int>(info.param * 100));
                           return name;
                         });

}  // namespace
}  // namespace lpfps
