// Periodic task model.
//
// The paper uses the classic Liu & Layland periodic model extended with
// deadlines (deadline-monotonic-compatible): each task tau_i releases an
// instance (a *job*) every T_i microseconds starting at its phase, each
// job needs at most C_i (WCET) and at least B_i (BCET) full-speed
// microseconds of processor time, and must finish within D_i of its
// release.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"

namespace lpfps::sched {

/// Priority value; lower value = higher priority (the real-time
/// scheduling convention, footnote 1 of the paper).
using Priority = int;

struct Task {
  std::string name;
  std::int64_t period = 0;    ///< T_i in microseconds (integer).
  std::int64_t deadline = 0;  ///< D_i in microseconds, relative to release.
  Work wcet = 0.0;            ///< C_i, worst-case execution time.
  Work bcet = 0.0;            ///< Best-case execution time (<= wcet).
  std::int64_t phase = 0;     ///< First release instant.
  Priority priority = 0;      ///< Lower value = higher priority.

  // Weakly-hard constraint (docs/WEAKLY_HARD.md).  A task declares at
  // most one of the two forms; both zero means hard (every deadline
  // binds).  Deadlines of weakly-hard tasks must satisfy D <= T so each
  // job's outcome is settled before the next release — the governor's
  // skip decisions then depend only on settled history.
  int mk_m = 0;    ///< (m,k)-firm: >= m met deadlines in every window of
                   ///< k consecutive jobs.  0 with mk_k == 0 means none.
  int mk_k = 0;    ///< (m,k)-firm window length; 1 <= m <= k <= 64 (the
                   ///< governor keeps the window in a 64-bit mask).
  int skip_s = 0;  ///< Skip-over parameter s >= 2: at most one skipped
                   ///< job per s consecutive jobs (== (s-1, s)-firm).

  /// True when the task carries an (m,k)-firm or skip-over constraint.
  bool weakly_hard() const { return mk_k > 0 || skip_s > 0; }

  /// The constraint as an (m, k) pair: (mk_m, mk_k) for (m,k)-firm
  /// tasks, (s-1, s) for skippable tasks, (0, 0) for hard tasks.
  int effective_m() const { return mk_k > 0 ? mk_m : (skip_s > 0 ? skip_s - 1 : 0); }
  int effective_k() const { return mk_k > 0 ? mk_k : skip_s; }

  /// Processor utilization C_i / T_i.
  double utilization() const;

  /// Throws std::logic_error naming the task, the field and its value
  /// if any field is out of domain (period/deadline <= 0, wcet <= 0,
  /// bcet outside (0, wcet], wcet > deadline, phase < 0, malformed
  /// weakly-hard parameters).
  void validate() const;
};

/// Convenience constructor for implicit-deadline tasks (D = T, phase 0,
/// BCET = WCET).  Priority must still be assigned (see sched/priority.h).
Task make_task(std::string name, std::int64_t period, Work wcet);

/// Full-field constructor with validation.
Task make_task(std::string name, std::int64_t period, std::int64_t deadline,
               Work wcet, Work bcet, std::int64_t phase = 0);

/// Returns `task` with an (m,k)-firm constraint attached (validated).
Task with_mk_constraint(Task task, int m, int k);

/// Returns `task` with a skip-over parameter attached (validated).
Task with_skip_parameter(Task task, int s);

}  // namespace lpfps::sched
