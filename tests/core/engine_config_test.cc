// Engine behaviour across processor-configuration variations: wake-up
// latency, power fractions, frequency tables, transition rates.
#include <gtest/gtest.h>

#include <memory>

#include "core/engine.h"
#include "sched/priority.h"
#include "workloads/example.h"

namespace lpfps::core {
namespace {

sched::TaskSet single_task(std::int64_t period, Work wcet) {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("solo", period, wcet));
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

EngineOptions options(Time horizon, bool trace = false) {
  EngineOptions opts;
  opts.horizon = horizon;
  opts.record_trace = trace;
  return opts;
}

TEST(EngineConfig, ZeroWakeupDelaySleepsToTheRelease) {
  power::ProcessorConfig cpu = power::ProcessorConfig::arm8_default();
  cpu.power.wakeup_cycles = 0.0;
  const SimulationResult result =
      simulate(single_task(100, 20.0), cpu,
               SchedulerPolicy::lpfps_powerdown_only(), nullptr,
               options(1000.0, true));
  EXPECT_EQ(result.deadline_misses, 0);
  EXPECT_EQ(result.power_downs, 10);
  // No kWakeUp segments; power-down runs to the release instant.
  EXPECT_DOUBLE_EQ(result.mode(sim::ProcessorMode::kWakeUp).time, 0.0);
  EXPECT_NEAR(result.mode(sim::ProcessorMode::kPowerDown).time,
              10 * 80.0, 1e-6);
}

TEST(EngineConfig, FreePowerDownApproachesWorkOnlyEnergy) {
  power::ProcessorConfig cpu = power::ProcessorConfig::arm8_default();
  cpu.power.power_down_fraction = 0.0;
  cpu.power.wakeup_cycles = 0.0;
  const SimulationResult result =
      simulate(single_task(100, 20.0), cpu,
               SchedulerPolicy::lpfps_powerdown_only(), nullptr,
               options(1000.0));
  // 20 us of full-power work per 100 us period, everything else free.
  EXPECT_NEAR(result.average_power, 0.2, 1e-9);
}

TEST(EngineConfig, ExpensiveNopErasesFpsIdleSavings) {
  power::ProcessorConfig cpu = power::ProcessorConfig::arm8_default();
  cpu.power.nop_power_fraction = 1.0;  // Busy-wait as dear as real work.
  const SimulationResult result =
      simulate(single_task(100, 20.0), cpu, SchedulerPolicy::fps(),
               nullptr, options(1000.0));
  EXPECT_NEAR(result.average_power, 1.0, 1e-9);
}

TEST(EngineConfig, SingleFrequencyTableDisablesDvs) {
  power::ProcessorConfig cpu = power::ProcessorConfig::arm8_default();
  cpu.frequencies = power::FrequencyTable::from_levels({100.0});
  const SimulationResult result =
      simulate(single_task(100, 20.0), cpu, SchedulerPolicy::lpfps(),
               nullptr, options(1000.0));
  EXPECT_DOUBLE_EQ(result.mean_running_ratio, 1.0);
  EXPECT_GT(result.power_downs, 0);  // Power-down still works.
}

TEST(EngineConfig, SlowerRampsShrinkButKeepSavings) {
  const sched::TaskSet tasks = single_task(1'000, 300.0);
  double previous = 0.0;
  for (const double rho : {0.0007, 0.007, 0.07}) {
    power::ProcessorConfig cpu = power::ProcessorConfig::arm8_default();
    cpu.ramp_rate = rho;
    const SimulationResult result = simulate(
        tasks, cpu, SchedulerPolicy::lpfps(), nullptr, options(10'000.0));
    EXPECT_EQ(result.deadline_misses, 0) << rho;
    if (previous > 0.0) {
      // Faster transitions never cost more energy here.
      EXPECT_LE(result.total_energy, previous + 1e-6) << rho;
    }
    previous = result.total_energy;
  }
}

TEST(EngineConfig, ContinuousTableStretchesExactly) {
  power::ProcessorConfig cpu = power::ProcessorConfig::arm8_default();
  cpu.frequencies = power::FrequencyTable::continuous(8.0, 100.0);
  const SimulationResult result =
      simulate(single_task(1'000, 300.0), cpu,
               SchedulerPolicy::lpfps_dvs_only(), nullptr,
               options(10'000.0, true));
  EXPECT_EQ(result.deadline_misses, 0);
  // The steady stretched segments run at almost exactly C/T = 0.3
  // (slightly above: the just-in-time ramp-back plan reserves capacity).
  for (const sim::Segment& s : result.trace->segments()) {
    if (s.mode == sim::ProcessorMode::kRunning &&
        s.ratio_begin == s.ratio_end && s.ratio_begin < 1.0) {
      EXPECT_NEAR(s.ratio_begin, 0.3, 0.02);
    }
  }
}

TEST(EngineConfig, ValidateRejectsBrokenConfigs) {
  power::ProcessorConfig cpu = power::ProcessorConfig::arm8_default();
  cpu.ramp_rate = 0.0;
  EXPECT_THROW(cpu.validate(), std::logic_error);
  cpu = power::ProcessorConfig::arm8_default();
  cpu.voltage = nullptr;
  EXPECT_THROW(cpu.validate(), std::logic_error);
}

}  // namespace
}  // namespace lpfps::core
