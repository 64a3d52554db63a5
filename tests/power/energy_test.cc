#include "power/energy.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "common/float_compare.h"
#include "power/processor.h"
#include "power/speed_profile.h"

namespace lpfps::power {
namespace {

/// The ARM8-like processor's ramp rate, in ratio units per microsecond.
constexpr double kRho = 0.07;

class EnergyTest : public ::testing::Test {
 protected:
  EnergyTest()
      : model_(ProcessorConfig::arm8_default().make_power_model()),
        acc_(model_, kRho) {}

  PowerModel model_;
  EnergyAccumulator acc_;
};

TEST_F(EnergyTest, StartsEmpty) {
  EXPECT_DOUBLE_EQ(acc_.total_energy(), 0.0);
  EXPECT_DOUBLE_EQ(acc_.total_time(), 0.0);
  EXPECT_DOUBLE_EQ(acc_.average_power(), 0.0);
}

TEST_F(EnergyTest, FullSpeedRun) {
  acc_.add_run(10.0, 1.0);
  EXPECT_NEAR(acc_.total_energy(), 10.0, 1e-9);
  EXPECT_NEAR(acc_.average_power(), 1.0, 1e-9);
}

TEST_F(EnergyTest, IdleNopIsTwentyPercent) {
  acc_.add_idle_nop(10.0, 1.0);
  EXPECT_NEAR(acc_.total_energy(), 2.0, 1e-9);
}

TEST_F(EnergyTest, PowerDownIsFivePercent) {
  acc_.add_power_down(100.0);
  EXPECT_NEAR(acc_.total_energy(), 5.0, 1e-9);
}

TEST_F(EnergyTest, WakeupIsFullPower) {
  acc_.add_wakeup(0.1);
  EXPECT_NEAR(acc_.total_energy(), 0.1, 1e-9);
}

TEST_F(EnergyTest, PerModeBreakdown) {
  acc_.add_run(10.0, 1.0);
  acc_.add_idle_nop(5.0, 1.0);
  acc_.add_power_down(20.0);
  EXPECT_NEAR(acc_.totals(sim::ProcessorMode::kRunning).time, 10.0, 1e-12);
  EXPECT_NEAR(acc_.totals(sim::ProcessorMode::kIdleBusyWait).energy, 1.0,
              1e-12);
  EXPECT_NEAR(acc_.totals(sim::ProcessorMode::kPowerDown).time, 20.0,
              1e-12);
  EXPECT_NEAR(acc_.total_time(), 35.0, 1e-12);
}

TEST_F(EnergyTest, RunRampMatchesModelIntegral) {
  const double duration = (1.0 - 0.5) / kRho;
  acc_.add_run_ramp(duration, 0.5, 1.0);
  EXPECT_NEAR(acc_.total_energy(), model_.ramp_energy(0.5, 1.0, kRho, true),
              1e-12);
  EXPECT_NEAR(acc_.total_time(), duration, 1e-12);
}

TEST_F(EnergyTest, RampDurationMismatchRejected) {
  EXPECT_THROW(acc_.add_run_ramp(3.0, 0.5, 1.0), std::logic_error);
}

TEST_F(EnergyTest, SlowRunningIsCheaperThanFullIdleComparison) {
  // The paper's §3.2 argument: running slowed beats running at full then
  // powering down, for the same work, when the window is fixed.
  const double window = 40.0;
  const double work = 20.0;  // Example 2: half-utilized window.
  // Plan A: run at 0.5 the whole window.
  EnergyAccumulator slow(model_, kRho);
  slow.add_run(window, 0.5);
  // Plan B: run at full speed for 20 us, then power down for 20 us.
  EnergyAccumulator fast(model_, kRho);
  fast.add_run(work, 1.0);
  fast.add_power_down(window - work);
  EXPECT_LT(slow.total_energy(), fast.total_energy());
}

TEST_F(EnergyTest, NegativeDurationRejected) {
  EXPECT_THROW(acc_.add_run(-1.0, 1.0), std::logic_error);
}

TEST_F(EnergyTest, AddReturnsTheEnergyItCharged) {
  EXPECT_EQ(acc_.add_run(10.0, 1.0), 10.0);
  EXPECT_EQ(acc_.add_idle_nop(10.0, 1.0), 10.0 * model_.idle_nop_power(1.0));
  EXPECT_EQ(acc_.add_power_down(100.0), 100.0 * 0.05);
  EXPECT_EQ(acc_.add_wakeup(0.1), 0.1);
  // An empty interval, or a rounding sliver below zero, is not charged,
  // so it returns nothing.
  EXPECT_EQ(acc_.add_run(0.0, 1.0), 0.0);
  EXPECT_EQ(acc_.add_run(-kTimeEpsilon / 2.0, 1.0), 0.0);
  EXPECT_EQ(acc_.add_run_ramp(0.0, 0.7, 0.7), 0.0);
  EXPECT_EQ(acc_.totals(sim::ProcessorMode::kRunning).intervals, 1);
}

// ---- The ramp-energy memo -------------------------------------------------
//
// The accumulator answers repeated ramps from a direct-mapped memo.  These
// tests drive one long call sequence through accumulators and through a
// plain loop over PowerModel calls, and demand bit-identical results:
// every return value, every per-mode total and the grand total.

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// One accumulator call of the sequence, charged by the accumulator
/// built with its rho.
struct Call {
  enum Kind { kRun, kRunRamp, kIdleNop, kIdleRamp, kPowerDown, kWakeUp };
  Kind kind;
  Time duration;
  Ratio from;
  Ratio to;
  double rho;
};

/// The reference: what the accumulator must charge, from plain model
/// calls with no memo, and the mode it charges into.
Energy reference_energy(const PowerModel& model, const Call& c,
                        sim::ProcessorMode* mode) {
  switch (c.kind) {
    case Call::kRun:
      *mode = sim::ProcessorMode::kRunning;
      return c.duration * model.run_power(c.from);
    case Call::kRunRamp:
      *mode = sim::ProcessorMode::kRunning;
      return model.ramp_energy(c.from, c.to, c.rho, true);
    case Call::kIdleNop:
      *mode = sim::ProcessorMode::kIdleBusyWait;
      return c.duration * model.idle_nop_power(c.from);
    case Call::kIdleRamp:
      *mode = sim::ProcessorMode::kRamping;
      return model.ramp_energy(c.from, c.to, c.rho, false);
    case Call::kPowerDown:
      *mode = sim::ProcessorMode::kPowerDown;
      return c.duration * model.power_down_power();
    case Call::kWakeUp:
      *mode = sim::ProcessorMode::kWakeUp;
      return c.duration * 1.0;
  }
  return 0.0;
}

Energy apply(EnergyAccumulator& acc, const Call& c) {
  switch (c.kind) {
    case Call::kRun:
      return acc.add_run(c.duration, c.from);
    case Call::kRunRamp:
      return acc.add_run_ramp(c.duration, c.from, c.to);
    case Call::kIdleNop:
      return acc.add_idle_nop(c.duration, c.from);
    case Call::kIdleRamp:
      return acc.add_idle_ramp(c.duration, c.from, c.to);
    case Call::kPowerDown:
      return acc.add_power_down(c.duration);
    case Call::kWakeUp:
      return acc.add_wakeup(c.duration);
  }
  return 0.0;
}

/// A long mixed sequence: full ramps between quantized levels (the
/// engine's common case, so many probes repeat a key), arbitrary partial
/// ramps (mostly unique keys), both executing values and two rhos,
/// interleaved with constant-speed and sleep intervals.  Each call
/// carries the rho of the accumulator that charges it.  Twelve ARM8-like
/// levels give 288 level-pair keys per rho (144 pairs, both executing
/// values), far more than the memo has slots, so slots collide and
/// evict.
std::vector<Call> mixed_sequence() {
  const ProcessorConfig cpu = ProcessorConfig::arm8_default();
  const std::vector<MegaHertz>& table = cpu.frequencies.levels();
  std::vector<Ratio> levels;
  for (std::size_t i = 0; i < table.size(); i += 8) {
    levels.push_back(cpu.frequencies.ratio_of(table[i]));
  }
  EXPECT_EQ(levels.size(), 12u);
  // The spec rate and a slower one.  0.6 rather than 0.5: rates a power
  // of two apart differ only in the exponent bits.
  const std::array<double, 2> rhos = {cpu.ramp_rate, cpu.ramp_rate * 0.6};

  std::mt19937_64 rng(20240917);
  std::uniform_int_distribution<std::size_t> level(0, levels.size() - 1);
  std::uniform_real_distribution<double> ratio(0.1, 1.0);
  std::uniform_real_distribution<double> span(0.5, 400.0);
  std::uniform_int_distribution<int> pick(0, 99);

  std::vector<Call> calls;
  for (int i = 0; i < 20000; ++i) {
    const double rho = rhos[static_cast<std::size_t>(pick(rng) % 2)];
    const bool executing = pick(rng) % 2 == 0;
    const Call::Kind ramp = executing ? Call::kRunRamp : Call::kIdleRamp;
    const int roll = pick(rng);
    if (roll < 55) {
      const Ratio from = levels[level(rng)];
      const Ratio to = levels[level(rng)];
      calls.push_back({ramp, ramp_duration(from, to, rho), from, to, rho});
    } else if (roll < 75) {
      const Ratio from = ratio(rng);
      const Ratio to = ratio(rng);
      calls.push_back({ramp, ramp_duration(from, to, rho), from, to, rho});
    } else if (roll < 85) {
      calls.push_back({Call::kRun, span(rng), levels[level(rng)], 0.0, rho});
    } else if (roll < 92) {
      calls.push_back(
          {Call::kIdleNop, span(rng), levels[level(rng)], 0.0, rho});
    } else if (roll < 97) {
      calls.push_back({Call::kPowerDown, span(rng), 0.0, 0.0, rho});
    } else {
      calls.push_back({Call::kWakeUp, 0.1, 0.0, 0.0, rho});
    }
  }
  return calls;
}

TEST_F(EnergyTest, MemoisedRampsAreBitIdenticalToThePlainModel) {
  // One accumulator per rho, each fed its rho's calls in sequence order.
  const std::vector<Call> all = mixed_sequence();
  std::set<double> rhos;
  for (const Call& c : all) rhos.insert(c.rho);
  ASSERT_EQ(rhos.size(), 2u);
  for (const double rho : rhos) {
    std::vector<Call> calls;
    for (const Call& c : all) {
      if (c.rho == rho) calls.push_back(c);
    }
    std::set<std::array<std::uint64_t, 3>> ramp_keys;
    for (const Call& c : calls) {
      if (c.kind == Call::kRunRamp || c.kind == Call::kIdleRamp) {
        ramp_keys.insert({bits(c.from), bits(c.to),
                          static_cast<std::uint64_t>(c.kind)});
      }
    }
    // Far more keys than the memo's 64 slots, yet most calls repeat one.
    ASSERT_GT(ramp_keys.size(), 4u * 64u) << "rho " << rho;
    ASSERT_LT(ramp_keys.size(), calls.size() / 2) << "rho " << rho;

    EnergyAccumulator acc(model_, rho);
    std::array<Energy, 5> expected_by_mode{};
    for (std::size_t i = 0; i < calls.size(); ++i) {
      sim::ProcessorMode mode{};
      const Energy expected = reference_energy(model_, calls[i], &mode);
      const Energy got = apply(acc, calls[i]);
      ASSERT_EQ(bits(got), bits(expected)) << "rho " << rho << " call " << i;
      expected_by_mode[static_cast<std::size_t>(mode)] += expected;
    }

    Energy expected_total = 0.0;
    for (std::size_t m = 0; m < expected_by_mode.size(); ++m) {
      EXPECT_EQ(bits(acc.totals(static_cast<sim::ProcessorMode>(m)).energy),
                bits(expected_by_mode[m]))
          << "rho " << rho << " mode " << m;
      expected_total += expected_by_mode[m];
    }
    EXPECT_EQ(bits(acc.total_energy()), bits(expected_total)) << "rho " << rho;

    // Replaying the calls on a fresh accumulator (a fresh memo) charges
    // the same bits again: nothing carries over between accumulators.
    EnergyAccumulator again(model_, rho);
    for (const Call& c : calls) apply(again, c);
    EXPECT_EQ(bits(again.total_energy()), bits(acc.total_energy()))
        << "rho " << rho;
  }
}

TEST_F(EnergyTest, ANonPositiveRhoIsRejectedAtConstruction) {
  EXPECT_THROW(EnergyAccumulator(model_, 0.0), std::logic_error);
  EXPECT_THROW(EnergyAccumulator(model_, -kRho), std::logic_error);
}

TEST_F(EnergyTest, RejectedRampsThrowOnEveryCall) {
  const Time duration = ramp_duration(0.5, 1.0, kRho);
  // Populate the memo with the valid ramp first: a memoised key must
  // not let a bad call through.
  const Energy valid = acc_.add_run_ramp(duration, 0.5, 1.0);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_THROW(acc_.add_run_ramp(3.0, 0.5, 1.0), std::logic_error);
    EXPECT_THROW(acc_.add_idle_ramp(3.0, 0.5, 1.0), std::logic_error);
    // Passes the duration check but not the voltage model's range
    // check, so it is never stored and never hits.
    EXPECT_THROW(acc_.add_run_ramp(ramp_duration(1.0, 1.5, kRho), 1.0, 1.5),
                 std::logic_error);
  }
  EXPECT_EQ(bits(acc_.total_energy()), bits(valid));
  EXPECT_EQ(acc_.totals(sim::ProcessorMode::kRunning).intervals, 1);
  EXPECT_EQ(bits(acc_.add_run_ramp(duration, 0.5, 1.0)), bits(valid));
}

}  // namespace
}  // namespace lpfps::power
