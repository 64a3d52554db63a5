// Normalized processor power model.
//
// All powers are fractions of "full power" — the power drawn when
// executing typical instructions at (f_max, V_max).  The paper's
// experimental assumptions (§4):
//   * a NOP (busy-wait idle) instruction draws 20% of a typical
//     instruction [19];
//   * power-down mode draws 5% of full power, and returning from it
//     takes 10 clock cycles [9, 19];
//   * the clock/voltage transition follows the ring-oscillator model of
//     [20] with a worst-case delay of ~10 us (rate rho = 0.07 / us).
#pragma once

#include "common/units.h"
#include "power/voltage.h"

namespace lpfps::power {

struct PowerParams {
  /// NOP power as a fraction of a typical instruction at the same (f, V).
  double nop_power_fraction = 0.2;
  /// Power-down mode power as a fraction of full power.
  double power_down_fraction = 0.05;
  /// Clock cycles (at f_max) needed to return from power-down.
  double wakeup_cycles = 10.0;
};

/// One member of a sleep-state hierarchy (paper §2.1 describes the
/// PowerPC 603's four modes: each deeper state gates more of the chip
/// but takes longer to wake).  Power is a fraction of full power;
/// wake-up latency is in cycles at f_max.
struct SleepState {
  const char* name = "sleep";
  double power_fraction = 0.05;
  double wakeup_cycles = 10.0;
};

class PowerModel {
 public:
  PowerModel(VoltageModelPtr voltage, PowerParams params);

  /// Power while executing task work at normalized speed `ratio`:
  /// ratio * (V(ratio)/Vmax)^2.  run_power(1) == 1 by construction.
  double run_power(Ratio ratio) const;

  /// Power while busy-waiting on NOPs at normalized speed `ratio`.
  double idle_nop_power(Ratio ratio) const;

  /// Power while in power-down mode (independent of frequency).
  double power_down_power() const;

  /// Energy of one ramp from ratio r0 to r1 at rate `rho` (ratio units
  /// per microsecond).  `executing` selects run power (a task computes
  /// through the transition) vs NOP power (nothing to run).  Integrated
  /// numerically (Simpson, 64 intervals) because V(ratio) has no
  /// convenient antiderivative for the ring-oscillator model.
  Energy ramp_energy(Ratio r0, Ratio r1, double rho, bool executing) const;

  /// Time to return from power-down, in microseconds, at f_max (MHz).
  Time wakeup_delay(MegaHertz f_max) const;

  const PowerParams& params() const { return params_; }
  const VoltageModel& voltage() const { return *voltage_; }

 private:
  VoltageModelPtr voltage_;
  PowerParams params_;
};

}  // namespace lpfps::power
