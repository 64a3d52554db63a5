// Churn-workload generation for the admission service.
//
// A churn stream is an *abstract* request sequence: instead of naming
// concrete task indices (which drift as requests are admitted or
// rejected), each operation carries selectors — a `pick` value resolved
// against the current set size, a priority *hint* resolved by linear
// probing past occupied priorities.  Resolution is a pure function of
// (op, current set), so two services fed the same stream make identical
// decisions, stay in identical states, and therefore resolve every
// subsequent op identically — regardless of which analysis arm
// (incremental or from-scratch) they run.  That closure
// property is what lets the differential test replay one stream through
// both arms and demand bit-identical decisions.
//
// Determinism: op i is drawn from Rng(runner::derive_seed(seed, i + 1))
// and the initial set from derive_seed(seed, 0) — the per-request
// seeding discipline of the batch runner, so a stream is reproducible
// independent of thread count, batch position, or how many streams
// were generated before it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "admission/types.h"
#include "sched/task_set.h"

namespace lpfps::admission {

struct ChurnConfig {
  /// Initial set: UUniFast-drawn, redrawn until RTA-schedulable.
  int initial_tasks = 6;
  double initial_utilization = 0.5;

  int requests = 256;
  /// Operation mix; mutate takes the remainder.
  double add_fraction = 0.4;
  double remove_fraction = 0.3;
  /// Among mutates, the fraction that also re-draws the priority hint.
  double mutate_priority_fraction = 0.2;

  /// Parameter ranges for generated add/mutate tasks.
  std::int64_t period_min = 10'000;
  std::int64_t period_max = 1'000'000;
  std::int64_t period_granularity = 5'000;
  double task_utilization_min = 0.02;
  double task_utilization_max = 0.25;
  /// Deadlines drawn as ratio * period (constrained, D <= T).
  double deadline_ratio_min = 0.8;
  double bcet_ratio = 0.6;
  /// Priority hints are drawn in [0, priority_space).
  int priority_space = 64;
  /// When true, a drawn hint is replaced by the deadline's position on
  /// the log-period grid — shorter deadline, higher priority — so the
  /// stream models a controller that assigns deadline-monotonic-ish
  /// priorities (random hints make most adds unschedulable regardless
  /// of utilization, collapsing the set).  The transform consumes no
  /// extra Rng draws, so streams of either setting stay aligned.
  bool deadline_monotonic_hints = false;
  /// Fraction of mutates that are *relative*: instead of redrawing the
  /// task outright, the target keeps its period/deadline/priority and
  /// its WCET is multiplied by a factor drawn from
  /// [mutate_scale_min, mutate_scale_max] (clamped to the deadline).
  /// This models measured-WCET revision — the churn that dominates a
  /// deployed service and that mostly leaves the minimum-frequency
  /// boundary stationary (the fast path's target regime).  Factors on
  /// one side of 1.0 keep the request direction-known (>= 1 tightens,
  /// <= 1 relaxes), which is what lets the service retain probe state.
  double relative_mutates = 0.0;
  double mutate_scale_min = 0.97;
  double mutate_scale_max = 1.03;
};

/// One abstract operation; see resolve().
struct ChurnOp {
  RequestKind kind = RequestKind::kAdd;
  std::uint64_t pick = 0;  ///< Remove/mutate target: index = pick % size.
  std::int64_t period = 0;
  std::int64_t deadline = 0;
  Work wcet = 0.0;
  double bcet_ratio = 1.0;
  sched::Priority priority_hint = 0;
  bool change_priority = false;  ///< Mutate: re-probe priority from hint.
  /// Mutate: when > 0, a relative WCET revision by this factor against
  /// the target's *current* parameters (period/deadline/priority kept);
  /// 0 = absolute mutate using the drawn fields above.
  double scale = 0.0;
};

struct ChurnStream {
  sched::TaskSet initial;
  std::vector<ChurnOp> ops;
};

/// Draws a full stream.  Pure function of (config, seed).
ChurnStream make_churn_stream(const ChurnConfig& config, std::uint64_t seed);

/// Resolves an abstract op against the current set into a concrete
/// Request, or nullopt when the op is inapplicable (remove/mutate on an
/// empty set — the stream skips it).  Pure function of its arguments.
std::optional<Request> resolve(const ChurnOp& op,
                               const sched::TaskSet& current);

}  // namespace lpfps::admission
