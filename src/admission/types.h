// Request/decision vocabulary of the admission-control service.
//
// Clients stream task add / remove / parameter-change requests; the
// service answers admit/reject plus the minimum safe clock frequency
// at which the (changed) set still meets every deadline.  Decisions
// split into two kinds of fields:
//
//   * decision fields — what was decided (admitted, minimum safe
//     frequency, the candidate set's fingerprint).  These are
//     bit-identical between the incremental and from-scratch analysis
//     arms, and they are exactly what io::admission_csv_row serializes;
//   * accounting fields — how the decision was obtained (stationary
//     fast path, tasks reanalyzed, levels probed, solves the bound
//     cleared).  Like the engine's cycle-detection counters
//     (core/result.h), these are excluded from the CSV row by design
//     and flow into bench JSON / AUDIT meta instead, so an accounting
//     difference can never masquerade as a behavioral one.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "sched/task.h"

namespace lpfps::admission {

enum class RequestKind { kAdd, kRemove, kMutate };

/// One concrete state-change request against the service's current set.
struct Request {
  RequestKind kind = RequestKind::kAdd;
  /// kRemove/kMutate: the target task's current index.
  TaskIndex index = kNoTask;
  /// kAdd: the task to admit.  kMutate: the replacement parameters.
  sched::Task task;
};

struct Decision {
  RequestKind kind = RequestKind::kAdd;
  /// True iff the request was applied: the resulting set is
  /// schedulable at f_max.  Rejected requests leave the service's set
  /// untouched (removals are always admitted — shrinking a schedulable
  /// set cannot break it).
  bool admitted = false;
  /// Index into the frequency table's levels of the lowest frequency
  /// at which the current set stays schedulable under the (non-ideal)
  /// WCET scaling model; -1 when rejected.
  int min_level = -1;
  MegaHertz min_safe_mhz = 0.0;
  Ratio min_safe_ratio = 0.0;
  /// Sensitivity: the largest uniform factor by which every WCET can be
  /// scaled while the set stays schedulable *at the granted level* —
  /// how much measured-WCET pessimism the admitted set tolerates before
  /// the answer above stops holding.  Always >= 1 for an admitted set
  /// (the unscaled set is feasible at min_level by construction);
  /// capped at 2^20 for sets with unbounded headroom (e.g. empty); 0
  /// when rejected or when ServiceConfig::sensitivity is off.  A
  /// decision field: bit-identical across arms (it is the largest
  /// feasible point of a fixed scale lattice, however the arm searches
  /// it and seeds its fixed points), serialized in the CSV row.
  double wcet_headroom = 0.0;
  /// Fingerprint of the *candidate* set the decision evaluated (the
  /// post-change set; equals the current set's fingerprint iff
  /// admitted).
  std::uint64_t fingerprint = 0;
  /// Size and utilization of the current (post-decision) set.
  std::int64_t task_count = 0;
  double utilization = 0.0;

  // --- accounting (excluded from io::admission_csv_row) ---
  /// Always false: the service keeps no decision cache.  Kept only
  /// because the perfbench harness (perfbench/src/) still reads it.
  bool cache_hit = false;
  /// The stationary-boundary fast path answered the minimum-frequency
  /// search (the cached boundary verified unchanged in <= 2 probes).
  bool stationary = false;
  std::int64_t tasks_reanalyzed = 0;
  std::int64_t tasks_seeded = 0;
  std::int64_t levels_probed = 0;
  /// Sensitivity task fixed-point solves that ran (a whole-set probe
  /// that stops at its k-th task counts k; bound-cleared checks count
  /// nothing).
  std::int64_t headroom_probes = 0;
  /// Task fixed-point solves the closed-form response-time bound
  /// skipped (incremental arm only).
  std::int64_t bound_clears = 0;
};

}  // namespace lpfps::admission
