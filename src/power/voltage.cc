#include "power/voltage.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lpfps::power {

namespace {

/// The domain every model accepts: 0 < ratio <= 1 (NaN fails).
void check_ratio(Ratio ratio) {
  LPFPS_CHECK(ratio > 0.0 && ratio <= 1.0 + 1e-9);
}

/// ratio * (v / v_max)^2, the dynamic-power law shared by every model.
double relative_power(Ratio ratio, Volts v, Volts v_max) {
  const double vv = v / v_max;
  return ratio * vv * vv;
}

}  // namespace

double VoltageModel::power_factor(Ratio ratio) const {
  double out = 0.0;
  power_factors({&ratio, 1}, {&out, 1});
  return out;
}

RingOscillatorVoltageModel::RingOscillatorVoltageModel(Volts v_max,
                                                       Volts v_threshold)
    : v_max_(v_max), v_threshold_(v_threshold) {
  LPFPS_CHECK(v_max_ > v_threshold_ && v_threshold_ >= 0.0);
  norm_ = (v_max_ - v_threshold_) * (v_max_ - v_threshold_) / v_max_;
}

Ratio RingOscillatorVoltageModel::ratio_for_voltage(Volts v) const {
  LPFPS_CHECK(v > v_threshold_ && v <= v_max_ + 1e-9);
  return (v - v_threshold_) * (v - v_threshold_) / v / norm_;
}

Volts RingOscillatorVoltageModel::voltage_of(Ratio ratio) const {
  // Solve (V - Vt)^2 / V = ratio * norm for V:
  //   V^2 - (2 Vt + k) V + Vt^2 = 0,  k = ratio * norm,
  // taking the larger root (the smaller one lies below Vt, where the
  // oscillator does not run).
  const double k = ratio * norm_;
  const double b = 2.0 * v_threshold_ + k;
  const double disc = b * b - 4.0 * v_threshold_ * v_threshold_;
  LPFPS_CHECK(disc >= 0.0);
  const double v = (b + std::sqrt(disc)) / 2.0;
  return std::min(v, v_max_);
}

Volts RingOscillatorVoltageModel::voltage_for_ratio(Ratio ratio) const {
  check_ratio(ratio);
  return voltage_of(ratio);
}

void RingOscillatorVoltageModel::power_factors(std::span<const Ratio> ratios,
                                               std::span<double> out) const {
  LPFPS_CHECK(ratios.size() == out.size());
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    check_ratio(ratios[i]);
    out[i] = relative_power(ratios[i], voltage_of(ratios[i]), v_max_);
  }
}

ProportionalVoltageModel::ProportionalVoltageModel(Volts v_max,
                                                   Volts v_floor)
    : v_max_(v_max), v_floor_(v_floor) {
  LPFPS_CHECK(v_max_ > 0.0 && v_floor_ >= 0.0 && v_floor_ <= v_max_);
}

Volts ProportionalVoltageModel::voltage_of(Ratio ratio) const {
  return std::max(v_floor_, v_max_ * ratio);
}

Volts ProportionalVoltageModel::voltage_for_ratio(Ratio ratio) const {
  check_ratio(ratio);
  return voltage_of(ratio);
}

void ProportionalVoltageModel::power_factors(std::span<const Ratio> ratios,
                                             std::span<double> out) const {
  LPFPS_CHECK(ratios.size() == out.size());
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    check_ratio(ratios[i]);
    out[i] = relative_power(ratios[i], voltage_of(ratios[i]), v_max_);
  }
}

}  // namespace lpfps::power
