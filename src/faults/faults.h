// Injectable WCET overruns and the containment policies that absorb them.
//
// LPFPS's deadline guarantee (paper Theorem 1) rests on three
// assumptions: every job finishes within its declared WCET, the voltage
// ramp moves at the configured `rho`, and the power-down timer fires
// exactly when programmed.  The engine models the second and third
// exactly — it ramps at the processor's rho and wakes at the L14
// instant, as the paper's hardware does — and this layer makes the
// first *breakable on purpose*, so the engine's detection and
// containment machinery (budget enforcement, kill, safe-mode fallback)
// can be exercised and verified: the skippable-task semantics of the
// weakly-hard line of work (see docs/ROBUSTNESS.md).
//
// A FaultPlan is pure configuration: it never draws randomness itself.
// core::SimState::start_job injects each overrun from the run's own
// generator, after the execution-time model's sample.  With a
// default-constructed FaultPlan and ContainmentPolicy the engine's
// behaviour is bit-identical to a build without this layer
// (tests/core/engine_fault_injection_test.cc pins that differentially,
// data/golden/engine_equivalence.csv pins it against the pre-fault
// engine).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

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
  /// Throws std::logic_error, naming the field and the value it got,
  /// for a probability outside [0, 1] or a magnitude that is negative
  /// or not finite.
  void validate() const;
};

/// Fault configuration for one run: the overrun list.  `overruns` is
/// either empty (no overrun faults), a single entry applied to every
/// task, or one entry per task (indexed like the TaskSet).
struct FaultPlan {
  std::vector<OverrunFault> overruns;

  bool overruns_enabled() const;

  /// The overrun spec governing task `index` (handles the broadcast
  /// single-entry form).  Returns a disabled spec when none apply.
  const OverrunFault& overrun_for(std::size_t index) const;

  /// Throws std::logic_error on out-of-domain parameters or an
  /// `overruns` vector that is neither empty, size 1, nor `task_count`;
  /// the message names the field and the value it got.
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
  /// From the first detected overrun until the next idle instant:
  /// cancel any DVS plan, ramp to base speed, and abstain from new
  /// slowdowns and power-downs — LPFPS fails toward plain FPS.
  bool safe_mode_fallback = false;

  bool enabled() const {
    return on_overrun != OverrunAction::kNone || safe_mode_fallback;
  }
};

}  // namespace lpfps::faults
