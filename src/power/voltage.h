// Supply-voltage-vs-frequency models.
//
// Dynamic CMOS power is P ~ Ceff * V^2 * f: lowering the clock alone
// saves energy only linearly, but each lower frequency also admits a
// lower supply voltage, and that quadratic factor is where DVS wins
// (paper §1).  How much lower V can go for a given f is the voltage
// model:
//
//  * RingOscillatorVoltageModel — the paper's reference [20] (Pering,
//    Burd, Brodersen) generates the clock from a ring oscillator driven
//    by the operating voltage, so f tracks the inverter delay law
//    f ~ (V - Vt)^2 / V.  We invert that law analytically.
//  * ProportionalVoltageModel — the idealized V = Vmax * ratio (with a
//    floor), common in early DVS literature; kept for ablation A5.
#pragma once

#include <memory>
#include <span>

#include "common/units.h"

namespace lpfps::power {

class VoltageModel {
 public:
  virtual ~VoltageModel() = default;

  /// Supply voltage required to sustain the given normalized speed.
  /// Precondition: 0 < ratio <= 1.  voltage_for_ratio(1) == v_max().
  virtual Volts voltage_for_ratio(Ratio ratio) const = 0;

  virtual Volts v_max() const = 0;

  /// Normalized dynamic power at each of `ratios`, written to the
  /// same-length `out`:
  ///   P(ratio) / P_full = ratio * (V(ratio) / Vmax)^2.
  /// Each model implements it as one plain loop over its own V(ratio),
  /// so a caller that needs many points (a ramp's Simpson abscissae)
  /// pays one virtual call.  Every ratio is checked like
  /// voltage_for_ratio's; one bad ratio anywhere in the batch throws.
  virtual void power_factors(std::span<const Ratio> ratios,
                             std::span<double> out) const = 0;

  /// power_factors for a single ratio.
  double power_factor(Ratio ratio) const;
};

/// f(V) ~ (V - Vt)^2 / V, normalized so ratio(v_max) == 1.
class RingOscillatorVoltageModel final : public VoltageModel {
 public:
  /// Defaults follow the paper's ARM8-like processor: Vmax = 3.3 V, and a
  /// threshold voltage of 0.8 V typical for the 0.6 um-era process.
  explicit RingOscillatorVoltageModel(Volts v_max = 3.3,
                                      Volts v_threshold = 0.8);

  Volts voltage_for_ratio(Ratio ratio) const override;
  Volts v_max() const override { return v_max_; }
  void power_factors(std::span<const Ratio> ratios,
                     std::span<double> out) const override;
  Volts v_threshold() const { return v_threshold_; }

  /// Forward map: normalized speed achievable at voltage v.
  Ratio ratio_for_voltage(Volts v) const;

 private:
  /// V(ratio) for a ratio that already passed the range check.
  Volts voltage_of(Ratio ratio) const;

  Volts v_max_;
  Volts v_threshold_;
  double norm_;  // (Vmax - Vt)^2 / Vmax, so ratio(v) = ((v-Vt)^2/v)/norm_.
};

/// V(ratio) = max(v_floor, v_max * ratio).
class ProportionalVoltageModel final : public VoltageModel {
 public:
  explicit ProportionalVoltageModel(Volts v_max = 3.3, Volts v_floor = 0.8);

  Volts voltage_for_ratio(Ratio ratio) const override;
  Volts v_max() const override { return v_max_; }
  void power_factors(std::span<const Ratio> ratios,
                     std::span<double> out) const override;

 private:
  /// V(ratio) for a ratio that already passed the range check.
  Volts voltage_of(Ratio ratio) const;

  Volts v_max_;
  Volts v_floor_;
};

/// Shared-ownership handle used throughout configs.
using VoltageModelPtr = std::shared_ptr<const VoltageModel>;

}  // namespace lpfps::power
