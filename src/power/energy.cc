#include "power/energy.h"

#include <bit>

#include "common/check.h"
#include "common/float_compare.h"
#include "power/speed_profile.h"

namespace lpfps::power {

EnergyAccumulator::EnergyAccumulator(const PowerModel* model)
    : model_(model) {
  LPFPS_CHECK(model_ != nullptr);
}

Energy EnergyAccumulator::charge(sim::ProcessorMode mode, Time duration,
                                 Energy energy) {
  LPFPS_CHECK(duration >= -kTimeEpsilon);
  if (duration <= 0.0) return 0.0;
  auto& slot = by_mode_[static_cast<std::size_t>(mode)];
  slot.time += duration;
  slot.energy += energy;
  ++slot.intervals;
  return energy;
}

Energy EnergyAccumulator::ramp_energy(Ratio from, Ratio to, double rho,
                                      bool executing) {
  const auto f = std::bit_cast<std::uint64_t>(from);
  const auto t = std::bit_cast<std::uint64_t>(to);
  const auto r = std::bit_cast<std::uint64_t>(rho);
  const std::uint8_t kind = executing ? 2 : 1;
  // Fibonacci hashing of the mixed key: the top bits pick the slot.
  const std::uint64_t mixed =
      (f ^ (t * 0xC2B2AE3D27D4EB4FULL) ^ r ^ kind) * 0x9E3779B97F4A7C15ULL;
  RampSlot& slot = ramp_memo_[mixed >> (64 - kRampSlotBits)];
  if (slot.from == f && slot.to == t && slot.rho == r && slot.kind == kind) {
    return slot.energy;
  }
  const Energy energy = model_->ramp_energy(from, to, rho, executing);
  slot = {f, t, r, energy, kind};
  return energy;
}

Energy EnergyAccumulator::add_run(Time duration, Ratio ratio) {
  return charge(sim::ProcessorMode::kRunning, duration,
                duration * model_->run_power(ratio));
}

Energy EnergyAccumulator::add_run_ramp(Time duration, Ratio from, Ratio to,
                                       double rho) {
  LPFPS_CHECK(approx_equal(duration, ramp_duration(from, to, rho),
                           1e-6 + duration * 1e-9));
  return charge(sim::ProcessorMode::kRunning, duration,
                ramp_energy(from, to, rho, /*executing=*/true));
}

Energy EnergyAccumulator::add_idle_nop(Time duration, Ratio ratio) {
  return charge(sim::ProcessorMode::kIdleBusyWait, duration,
                duration * model_->idle_nop_power(ratio));
}

Energy EnergyAccumulator::add_idle_ramp(Time duration, Ratio from, Ratio to,
                                        double rho) {
  LPFPS_CHECK(approx_equal(duration, ramp_duration(from, to, rho),
                           1e-6 + duration * 1e-9));
  return charge(sim::ProcessorMode::kRamping, duration,
                ramp_energy(from, to, rho, /*executing=*/false));
}

Energy EnergyAccumulator::add_power_down(Time duration) {
  return add_power_down(duration, model_->power_down_power());
}

Energy EnergyAccumulator::add_power_down(Time duration,
                                         double power_fraction) {
  LPFPS_CHECK(power_fraction >= 0.0 && power_fraction <= 1.0);
  return charge(sim::ProcessorMode::kPowerDown, duration,
                duration * power_fraction);
}

Energy EnergyAccumulator::add_wakeup(Time duration) {
  return charge(sim::ProcessorMode::kWakeUp, duration, duration * 1.0);
}

Energy EnergyAccumulator::total_energy() const {
  Energy total = 0.0;
  for (const ModeTotals& slot : by_mode_) total += slot.energy;
  return total;
}

Time EnergyAccumulator::total_time() const {
  Time total = 0.0;
  for (const ModeTotals& slot : by_mode_) total += slot.time;
  return total;
}

double EnergyAccumulator::average_power() const {
  const Time t = total_time();
  if (t <= 0.0) return 0.0;
  return total_energy() / t;
}

const ModeTotals& EnergyAccumulator::totals(sim::ProcessorMode mode) const {
  return by_mode_[static_cast<std::size_t>(mode)];
}

}  // namespace lpfps::power
