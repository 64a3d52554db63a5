// Bitwise pin of the batched ramp integral.
//
// PowerModel::ramp_energy evaluates the power curve at all 65 Simpson
// abscissae through one VoltageModel::power_factors call.  The
// formulation it replaced, kept here as the reference, integrated
// scale * r * (V(r) / Vmax)^2 with integrate_simpson, one
// voltage_for_ratio call per point.  Every ramp energy must match that
// reference to the last bit, for both voltage models, so no golden,
// digest or energy pin moves with the kernel.
#include "power/power_model.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "power/frequency.h"
#include "power/voltage.h"
#include "support/simpson.h"

namespace lpfps::power {
namespace {

/// The per-point ramp integral ramp_energy used before power_factors.
Energy reference_ramp_energy(const PowerModel& model, Ratio r0, Ratio r1,
                             double rho, bool executing) {
  const double duration = std::fabs(r1 - r0) / rho;
  if (duration == 0.0) return 0.0;
  const double scale = executing ? 1.0 : model.params().nop_power_fraction;
  const VoltageModel& voltage = model.voltage();
  return integrate_simpson(
      [&](double t) {
        const Ratio r = r0 + (r1 - r0) * (t / duration);
        const double vv = voltage.voltage_for_ratio(r) / voltage.v_max();
        return scale * (r * vv * vv);
      },
      0.0, duration, 64);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct NamedModel {
  std::string name;
  VoltageModelPtr voltage;
};

/// The ablation's ring oscillator and the default ProcessorConfig law.
std::vector<NamedModel> voltage_models() {
  return {{"ring-oscillator", std::make_shared<RingOscillatorVoltageModel>()},
          {"proportional",
           std::make_shared<ProportionalVoltageModel>(3.3, 1.1)}};
}

/// Every fourth ARM8 level from 8 MHz, plus 100 MHz, as speed ratios.
std::vector<Ratio> level_sample() {
  const FrequencyTable table = FrequencyTable::arm8_like();
  std::vector<Ratio> ratios;
  for (MegaHertz f = 8.0; f < 100.0; f += 4.0) {
    ratios.push_back(table.ratio_of(f));
  }
  ratios.push_back(table.ratio_of(100.0));
  return ratios;
}

/// Endpoints of partial ramps that sit on no level, including the top
/// of the accepted range (1 + 1e-9).
std::vector<Ratio> off_level_sample() {
  return {0.0800001, 0.1234567891, 1.0 / 3.0, 0.47123, 0.6180339887,
          0.9999999, 1.0 + 5e-10, 1.0 + 1e-9};
}

/// The fault-free rate and a ramp fault's half rate.
constexpr double kRates[] = {0.07, 0.035};

/// Compares ramp_energy with the reference over every ordered pair of
/// `ratios` (diagonal included), both rates and both ramp kinds.
void expect_pairs_bit_identical(const std::vector<Ratio>& ratios) {
  for (const NamedModel& named : voltage_models()) {
    const PowerModel model(named.voltage, PowerParams{});
    int compared = 0;
    int mismatches = 0;
    std::string first;
    for (const double rho : kRates) {
      for (const bool executing : {true, false}) {
        for (const Ratio r0 : ratios) {
          for (const Ratio r1 : ratios) {
            const Energy got = model.ramp_energy(r0, r1, rho, executing);
            const Energy want =
                reference_ramp_energy(model, r0, r1, rho, executing);
            ++compared;
            if (bits(got) == bits(want)) continue;
            if (mismatches++ == 0) {
              char buffer[160];
              std::snprintf(buffer, sizeof(buffer),
                            "%.17g -> %.17g rho %g executing %d: %a vs %a",
                            r0, r1, rho, executing ? 1 : 0, got, want);
              first = buffer;
            }
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << named.name << ": " << mismatches << " of "
                             << compared << " ramps differ, first " << first;
  }
}

TEST(RampEnergyPin, LevelPairsMatchThePerPointIntegralBitwise) {
  expect_pairs_bit_identical(level_sample());
}

TEST(RampEnergyPin, OffLevelEndpointsMatchThePerPointIntegralBitwise) {
  std::vector<Ratio> ratios = off_level_sample();
  // Mixed pairs: partial ramps from or to a level.
  ratios.push_back(FrequencyTable::arm8_like().ratio_of(8.0));
  ratios.push_back(FrequencyTable::arm8_like().ratio_of(57.0));
  ratios.push_back(1.0);
  expect_pairs_bit_identical(ratios);
}

TEST(RampEnergyPin, EmptyRampChargesNothing) {
  for (const NamedModel& named : voltage_models()) {
    const PowerModel model(named.voltage, PowerParams{});
    EXPECT_EQ(bits(model.ramp_energy(0.42, 0.42, 0.07, true)), bits(0.0));
  }
}

TEST(VoltageModelBatch, PowerFactorsEqualTheScalarCallBitwise) {
  std::vector<Ratio> ratios = level_sample();
  for (const Ratio r : off_level_sample()) ratios.push_back(r);
  for (const NamedModel& named : voltage_models()) {
    const VoltageModel& voltage = *named.voltage;
    std::vector<double> batch(ratios.size());
    voltage.power_factors(ratios, batch);
    for (std::size_t i = 0; i < ratios.size(); ++i) {
      const double vv = voltage.voltage_for_ratio(ratios[i]) / voltage.v_max();
      EXPECT_EQ(bits(batch[i]), bits(voltage.power_factor(ratios[i])))
          << named.name << " at ratio " << ratios[i];
      EXPECT_EQ(bits(batch[i]), bits(ratios[i] * vv * vv))
          << named.name << " at ratio " << ratios[i];
    }
  }
}

TEST(VoltageModelBatch, RejectsEveryOutOfRangeRatio) {
  const double bad_ratios[] = {std::numeric_limits<double>::quiet_NaN(),
                               0.0,
                               -0.25,
                               1.0 + 1e-8,
                               std::numeric_limits<double>::infinity()};
  for (const NamedModel& named : voltage_models()) {
    const VoltageModel& voltage = *named.voltage;
    const PowerModel model(named.voltage, PowerParams{});
    for (const double bad : bad_ratios) {
      EXPECT_THROW((void)voltage.voltage_for_ratio(bad), std::logic_error)
          << named.name << " " << bad;
      EXPECT_THROW((void)voltage.power_factor(bad), std::logic_error)
          << named.name << " " << bad;
      // One bad ratio in the middle of an otherwise valid batch.
      const Ratio batch[] = {0.5, 0.75, bad, 0.9, 1.0};
      double out[5] = {};
      EXPECT_THROW(voltage.power_factors(batch, out), std::logic_error)
          << named.name << " " << bad;
      EXPECT_THROW((void)model.run_power(bad), std::logic_error)
          << named.name << " " << bad;
    }
    // A ramp whose endpoint leaves the range fails in its first or
    // last abscissa.
    EXPECT_THROW((void)model.ramp_energy(
                     0.5, std::numeric_limits<double>::quiet_NaN(), 0.07,
                     true),
                 std::logic_error);
    EXPECT_THROW((void)model.ramp_energy(0.5, 1.5, 0.07, false),
                 std::logic_error);
    EXPECT_THROW((void)model.ramp_energy(0.0, 0.5, 0.07, true),
                 std::logic_error);
  }
}

TEST(VoltageModelBatch, RejectsMismatchedSpans) {
  for (const NamedModel& named : voltage_models()) {
    const Ratio ratios[] = {0.5, 0.6};
    double out[3] = {};
    EXPECT_THROW(named.voltage->power_factors(ratios, out), std::logic_error)
        << named.name;
  }
}

}  // namespace
}  // namespace lpfps::power
