// The skip governor: release-time skip decisions for weakly-hard tasks.
//
// Determinism contract (docs/WEAKLY_HARD.md): a decision is a pure
// function of (a) the task's own settled-job history — the WindowHistory
// masks — and (b) the governor's overload latches, which the engine
// raises and clears at fixed points of its event loop.  No clocks, no
// randomness, no cross-task state.  Because the engine's sequential
// release model settles a task's previous job before its next release
// is even queued, the history a decision reads is always complete, so
// fleet, sharded and serial runs make bit-identical decisions and the
// auditor can replay every decision from the trace alone (W2).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/units.h"
#include "sched/task_set.h"
#include "weakly_hard/window.h"

namespace lpfps::weakly_hard {

/// When the governor spends permitted skips.
enum class SkipPolicy : std::uint8_t {
  kNever,     ///< Governor disarmed: weakly-hard tasks run as hard
              ///< (the differential-identity reference).
  kOverload,  ///< Skip only while the overload latch is raised —
              ///< structurally infeasible sets from t = 0, otherwise
              ///< from the first predicted miss / overrun / miss until
              ///< the next idle instant.
  kAlways,    ///< Skip whenever the window permits (full degradation).
};

const char* to_string(SkipPolicy policy);

/// The whole skip decision of one run: the policy and the skip-aware
/// DVS flag it was bound with, the two overload latches, and per-task
/// window histories and totals.  A disarmed governor (policy kNever)
/// answers every hook with one branch on the policy.
class SkipGovernor {
 public:
  /// Binds to `tasks`: disarmed (policy kNever, no skip-aware DVS)
  /// unless some task declares a weakly-hard constraint and `policy` is
  /// not kNever.  Sizes the per-task histories, caches each task's
  /// effective (m,k)/skip parameters and zeroes every counter and latch.
  /// Under kOverload it raises the structural latch when the hard RTA
  /// fails: a set that cannot meet every deadline even at base speed
  /// degrades from t = 0 and never clears.  The RTA needs D <= T.
  void bind(const sched::TaskSet& tasks, SkipPolicy policy, bool skip_dvs);

  bool armed() const { return policy_ != SkipPolicy::kNever; }
  /// Skip-aware DVS (docs/WEAKLY_HARD.md); implies an armed governor.
  bool skip_dvs() const { return skip_dvs_; }

  /// True when the engine's release-time probe may raise the dynamic
  /// latch: kOverload with neither latch up.
  bool probing() const {
    return policy_ == SkipPolicy::kOverload && !overloaded();
  }
  bool overloaded() const {
    return overload_structural_ || overload_dynamic_;
  }
  /// The dynamic latch: raised on a predicted miss at a release, a
  /// detected overrun or an actual miss, cleared at the next idle
  /// instant (the backlog has drained).  Inert while disarmed.
  void raise_overload() { overload_dynamic_ = true; }
  void clear_overload() { overload_dynamic_ = false; }

  /// True if the task carries any weakly-hard constraint.
  bool skippable(TaskIndex task) const {
    return params_[static_cast<std::size_t>(task)].k > 0;
  }

  /// True iff skipping the task's next job keeps its constraint
  /// satisfied (pure history check; ignores policy and overload).
  bool skip_permitted(TaskIndex task) const;

  /// The release-time decision: armed, the policy and the latches call
  /// for a skip, and the task's window permits it.
  bool should_skip(TaskIndex task) const {
    if (policy_ == SkipPolicy::kNever) return false;
    if (policy_ == SkipPolicy::kOverload && !overloaded()) return false;
    return skip_permitted(task);
  }

  /// Records the settled outcome of the task's next job in release
  /// order: met (completed in time), missed/killed/forfeited
  /// (met == false, skipped == false), or policy-skipped.  Updates the
  /// (m,k) violation count and the task's worst-window slack.  No-op
  /// while disarmed and for hard tasks.
  void settle(TaskIndex task, bool met, bool skipped) {
    if (armed()) record(task, met, skipped);
  }

  /// Policy skips recorded via settle().
  int jobs_skipped_weakly() const { return jobs_skipped_weakly_; }

  /// Settled k-windows that violated their (m,k) constraint (counted
  /// once per window, i.e. once per settle that left < m met jobs in
  /// the trailing window).
  int mk_violations() const { return mk_violations_; }

  /// Per-task minimum over settled windows of met_in_window - m,
  /// indexed like the TaskSet; k - m (the all-met value) when nothing
  /// settled yet, and kHardTaskSlack for hard tasks.  Empty while
  /// disarmed, like every per-task accessor's state.
  static constexpr int kHardTaskSlack = std::numeric_limits<int>::max();
  const std::vector<int>& worst_window_slack() const {
    return worst_slack_;
  }

 private:
  struct Params {
    int m = 0;
    int k = 0;       ///< 0 = hard task.
    int skip_s = 0;  ///< Nonzero selects the skip-over permission rule.
  };

  void record(TaskIndex task, bool met, bool skipped);

  SkipPolicy policy_ = SkipPolicy::kNever;
  bool skip_dvs_ = false;
  bool overload_structural_ = false;
  bool overload_dynamic_ = false;
  std::vector<Params> params_;
  std::vector<WindowHistory> histories_;
  std::vector<int> worst_slack_;
  int jobs_skipped_weakly_ = 0;
  int mk_violations_ = 0;
};

}  // namespace lpfps::weakly_hard
