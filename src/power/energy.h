// Energy accounting over a simulation run.
//
// The accumulator receives every processor interval the engine produces
// (runs, ramps, NOP idling, power-down, wake-up) and integrates the power
// model over it, keeping a per-mode breakdown so benches can report where
// the energy went (the paper's §4 discussion of *why* INS wins relies on
// exactly this breakdown).
//
// Every add_* returns the energy it charged, so a caller that attributes
// energy elsewhere (the engine's per-task totals) reuses that value
// instead of evaluating the power model a second time.
//
// An accumulator owns its power model and ramps at the one rate rho it
// was built with: every engine run charges its ramps at its processor's
// rho.  Ramp energies come from a small direct-mapped memo in front of
// PowerModel::ramp_energy.  LPFPS ramps between a handful of quantized
// levels, so the same (from, to, executing) tuple recurs constantly,
// and each miss costs a 65-point Simpson rule.  A slot is keyed on the
// exact bit patterns of all three inputs, compared in full on every
// probe, and is filled only after ramp_energy returned: a hit replays
// the very double the model produced for a bit-identical input that
// already passed the model's checks.  Input the model rejects is never
// stored, so it throws on every call.
#pragma once

#include <array>
#include <cstdint>

#include "common/units.h"
#include "power/power_model.h"
#include "sim/trace.h"

namespace lpfps::power {

/// Energy and wall-time attributed to one processor mode.
struct ModeTotals {
  Energy energy = 0.0;
  Time time = 0.0;
  /// Charged intervals folded into this slot — the observability
  /// layer's per-mode event counter (e.g. how many distinct run bursts
  /// the accumulator saw, before trace-level merging).
  std::int64_t intervals = 0;
};

class EnergyAccumulator {
 public:
  /// Charges every interval under `model` and every ramp at `rho`
  /// (ratio units per microsecond).  Throws std::logic_error unless rho
  /// is positive.
  EnergyAccumulator(PowerModel model, double rho);

  // Each add_* returns the energy it charged: 0 when the interval is
  // empty (duration <= 0) and so not charged at all.

  /// Task execution at constant speed.
  Energy add_run(Time duration, Ratio ratio);

  /// Task execution during a frequency/voltage ramp (linear in time).
  Energy add_run_ramp(Time duration, Ratio from, Ratio to);

  /// Busy-wait NOP idling at constant speed.
  Energy add_idle_nop(Time duration, Ratio ratio);

  /// Ramp with nothing to execute (the processor spins NOPs while the
  /// voltage settles).
  Energy add_idle_ramp(Time duration, Ratio from, Ratio to);

  /// Power-down residence at the model's default power-down fraction.
  Energy add_power_down(Time duration);

  /// Power-down residence in a specific sleep state (fraction of full
  /// power); used with sleep-state hierarchies.
  Energy add_power_down(Time duration, double power_fraction);

  /// Wake-up transition (full power, no useful work).
  Energy add_wakeup(Time duration);

  Energy total_energy() const;
  Time total_time() const;

  /// Average power = total energy / total time (0 if no time elapsed).
  double average_power() const;

  const ModeTotals& totals(sim::ProcessorMode mode) const;

 private:
  /// One memoised ramp: the input bit patterns and the model's result.
  /// kind 0 marks an empty slot; filled slots hold 1 (idle) or 2
  /// (executing), so an empty slot never matches a probe.
  struct RampSlot {
    std::uint64_t from = 0;
    std::uint64_t to = 0;
    Energy energy = 0.0;
    std::uint8_t kind = 0;
  };
  /// 64 slots (2 KiB) trade hit rate against footprint: every
  /// simulation owns an accumulator, which should stay cache-resident.
  /// Hit rates per Table 2 set are in docs/PERFORMANCE.md ("Ramp
  /// energy").
  static constexpr int kRampSlotBits = 6;
  static constexpr std::size_t kRampSlots = std::size_t{1} << kRampSlotBits;

  Energy charge(sim::ProcessorMode mode, Time duration, Energy energy);
  Energy ramp_energy(Ratio from, Ratio to, bool executing);

  PowerModel model_;
  double rho_;
  std::array<ModeTotals, 5> by_mode_{};
  std::array<RampSlot, kRampSlots> ramp_memo_{};
};

}  // namespace lpfps::power
