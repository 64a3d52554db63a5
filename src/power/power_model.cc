#include "power/power_model.h"

#include <array>
#include <cmath>

#include "common/check.h"

namespace lpfps::power {

namespace {

/// Simpson intervals per ramp: kRampSteps + 1 power-curve points.
constexpr int kRampSteps = 64;

}  // namespace

PowerModel::PowerModel(VoltageModelPtr voltage, PowerParams params)
    : voltage_(std::move(voltage)), params_(params) {
  LPFPS_CHECK(voltage_ != nullptr);
  LPFPS_CHECK(params_.nop_power_fraction > 0.0 &&
              params_.nop_power_fraction <= 1.0);
  LPFPS_CHECK(params_.power_down_fraction >= 0.0 &&
              params_.power_down_fraction <= 1.0);
  LPFPS_CHECK(params_.wakeup_cycles >= 0.0);
}

double PowerModel::run_power(Ratio ratio) const {
  return voltage_->power_factor(ratio);
}

double PowerModel::idle_nop_power(Ratio ratio) const {
  return params_.nop_power_fraction * run_power(ratio);
}

double PowerModel::power_down_power() const {
  return params_.power_down_fraction;
}

Energy PowerModel::ramp_energy(Ratio r0, Ratio r1, double rho,
                               bool executing) const {
  LPFPS_CHECK(rho > 0.0);
  const double duration = std::fabs(r1 - r0) / rho;
  if (duration == 0.0) return 0.0;
  const double scale = executing ? 1.0 : params_.nop_power_fraction;
  // Composite Simpson over [0, duration] in kRampSteps intervals: the
  // abscissae, the integrand and the summation order are exactly those
  // of the reference integrate_simpson(t -> scale * run_power(r(t)), 0,
  // duration, kRampSteps) in tests/support/simpson.h (with a = 0, its
  // a + h * i is h * i), so every energy keeps its bits, but the
  // voltage model is called once for all points instead of once per
  // point.  tests/power/ramp_energy_pin_test.cc pins the two bitwise.
  std::array<Ratio, kRampSteps + 1> ratios;
  std::array<double, kRampSteps + 1> power;
  const double h = duration / kRampSteps;
  const auto ratio_at = [&](double t) {
    return r0 + (r1 - r0) * (t / duration);
  };
  ratios[0] = ratio_at(0.0);
  for (int i = 1; i < kRampSteps; ++i) ratios[i] = ratio_at(h * i);
  ratios[kRampSteps] = ratio_at(duration);
  voltage_->power_factors(ratios, power);
  double sum = scale * power[0] + scale * power[kRampSteps];
  for (int i = 1; i < kRampSteps; ++i) {
    sum += (scale * power[i]) * ((i % 2 == 0) ? 2.0 : 4.0);
  }
  return sum * h / 3.0;
}

Time PowerModel::wakeup_delay(MegaHertz f_max) const {
  LPFPS_CHECK(f_max > 0.0);
  return params_.wakeup_cycles / f_max;  // cycles / (cycles per us).
}

}  // namespace lpfps::power
