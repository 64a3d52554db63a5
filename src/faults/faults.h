// Injectable fault models and containment policies.
//
// LPFPS's deadline guarantee (paper Theorem 1) rests on three
// assumptions the rest of this library treats as axioms: every job
// finishes within its declared WCET, the voltage ramp really moves at
// the configured `rho`, and the power-down timer fires exactly when
// programmed.  This layer makes each assumption *breakable on purpose*
// so the engine's detection and containment machinery (budget
// enforcement, safe-mode fallback) can be exercised and verified — the
// robustness counterpart of the weakly-hard / feedback-scheduling lines
// of work (see docs/ROBUSTNESS.md).
//
// A FaultPlan is pure configuration: it never draws randomness itself.
// WCET overruns are injected by exec::FaultyExecModel (the one
// execution-time model whose samples may legally violate the
// [BCET, WCET] postcondition); ramp and wakeup faults are injected by
// the engine's physical layer (core::SimState).  With a default-constructed FaultPlan
// and ContainmentPolicy the engine's behaviour is bit-identical to a
// build without this layer (tests/core/engine_fault_injection_test.cc
// pins that differentially, data/golden/engine_equivalence.csv pins it
// against the pre-fault engine).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace lpfps::faults {

/// WCET overrun: with probability `probability`, a job's actual
/// execution time becomes wcet * (1 + magnitude) — deliberately past
/// the declared budget, by a deterministic factor so tests can predict
/// the faulted demand exactly (only the *whether*, not the *how much*,
/// is random).
struct OverrunFault {
  double probability = 0.0;  ///< Per-job chance of overrunning.
  double magnitude = 0.0;    ///< Fractional excess over the WCET.

  bool enabled() const { return probability > 0.0 && magnitude > 0.0; }
  void validate() const;
};

/// DVS ramp fault: the voltage regulator is slower than its datasheet.
/// The engine's *physics* move the ratio at `rho_factor * rho` while
/// every scheduling computation (slowdown ratios, just-in-time ramp-up
/// instants, plan windows) keeps using the spec `rho` — so plans return
/// to base speed later than promised, which is exactly the anomaly the
/// containment layer must catch.
struct RampFault {
  double rho_factor = 1.0;  ///< Effective rho = rho_factor * spec rho.

  bool enabled() const { return rho_factor < 1.0; }
  void validate() const;
};

/// Late power-down wakeup: with probability `probability` the wake-up
/// timer fires Uniform(0, max_delay] microseconds *after* the
/// programmed instant.  The scheduler programmed the timer for an exact
/// release; a late fire means releases can find the processor asleep.
struct WakeupFault {
  double probability = 0.0;
  Time max_delay = 0.0;  ///< Upper bound on the extra delay, us.

  bool enabled() const { return probability > 0.0 && max_delay > 0.0; }
  void validate() const;
};

/// Aggregate fault configuration for one run.  `overruns` is either
/// empty (no overrun faults), a single entry applied to every task, or
/// one entry per task (indexed like the TaskSet).
struct FaultPlan {
  std::vector<OverrunFault> overruns;
  RampFault ramp;
  WakeupFault wakeup;

  bool overruns_enabled() const;
  bool any() const {
    return overruns_enabled() || ramp.enabled() || wakeup.enabled();
  }

  /// The overrun spec governing task `index` (handles the broadcast
  /// single-entry form).  Returns a disabled spec when none apply.
  const OverrunFault& overrun_for(std::size_t index) const;

  /// Throws std::logic_error on out-of-domain parameters or an
  /// `overruns` vector that is neither empty, size 1, nor `task_count`.
  void validate(std::size_t task_count) const;
};

/// What the kernel does when the active job exhausts its WCET budget.
enum class OverrunAction : std::uint8_t {
  kNone,  ///< Detect and count only; the job keeps running.
  kKill,  ///< Abort the job at the budget boundary; remaining work is
          ///< discarded (skippable-task semantics).
};

const char* to_string(OverrunAction action);

/// Kernel-level containment configuration.
struct ContainmentPolicy {
  OverrunAction on_overrun = OverrunAction::kNone;
  /// From the first detected anomaly (budget exhaustion, late ramp
  /// completion, late wakeup) until the next idle instant: cancel any
  /// DVS plan, ramp to base speed, and abstain from new slowdowns and
  /// power-downs — LPFPS fails toward plain FPS.
  bool safe_mode_fallback = false;

  bool enabled() const {
    return on_overrun != OverrunAction::kNone || safe_mode_fallback;
  }
};

}  // namespace lpfps::faults
