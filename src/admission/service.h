// The admission-control service: schedulability as a long-lived query
// engine.
//
// A deployed LPFPS system does not analyze one task set once — modes
// change, tasks install and retire, measured WCETs are revised.  The
// service holds the current task set as mutable state and answers a
// stream of add / remove / parameter-change requests, each with an
// admit/reject decision and, for the admitted set, the minimum clock
// frequency at which every deadline still holds under the (possibly
// non-ideal) WCET scaling model.
//
// Four reuse layers make the query loop fast without changing any
// answer:
//
//   1. incremental RTA (sched/incremental_rta.h) — response-time
//      fixed points are reused across mutations and resumed as seeds,
//      re-solved highest priority first from the response of the task
//      just above (sched::seed_from_above), bit-identical to
//      from-scratch analysis by the exact-fixed-point contract; the
//      level probes and headroom checks below walk the same kept
//      priority order under the same seed rule;
//   2. a direction-aware minimum-frequency search — feasibility is
//      monotone in the frequency level AND in the request (adding or
//      tightening a task can only raise the minimum level, removing or
//      relaxing one can only lower it), so the incremental service
//      probes the previous answer first and gallops outward, with every
//      probe's fixed-point iteration seeded from the f_max response
//      times; the reference service binary-searches all levels from
//      C_i seeds.  Both land on the same minimal feasible level;
//   3. a cross-request stationary-boundary fast path — most churn
//      (small WCET revisions, near-boundary oscillation) leaves the
//      minimum-frequency boundary where it was, so the incremental
//      service retains the previous search's converged per-boundary
//      responses and, when the request direction permits
//      (interference only grew), verifies the cached boundary with at
//      most two seeded probes and answers without galloping or binary
//      search.  Verification, not trust: the fast path returns only
//      when feasible(B) && !feasible(B - 1) is established, the exact
//      condition every other schedule proves, so the answer is
//      bit-identical by construction;
//   4. a per-task WCET headroom — the sensitivity answer is the
//      largest feasible point of a fixed scale lattice, and set
//      feasibility is the AND of per-task predicates monotone in the
//      scale, so the incremental service searches one candidate task
//      (the one that bound the previous answer) and checks every other
//      task once at its answer, instead of probing the whole set at
//      each of the schedule's ~13 scales; the reference service probes
//      the whole set.  Both land on the same lattice point.
//
// Before the incremental arm solves a task's fixed point in a level
// probe or a headroom check, the closed-form response-time bound
// (sched::clear_by_response_bound) tries to prove the task feasible in
// O(1); a cleared task's solve is skipped.  A cleared task is feasible
// under the exact iteration, so only work counters change.  The
// reference arm runs no bound: it is the exact oracle the others are
// compared against.
//
// The invariant after every request: the current set is schedulable at
// f_max.  Admitting a request means the post-change set keeps that
// invariant; rejecting rolls the service back to the pre-request state
// (removals are always admitted — shrinking interference cannot create
// a deadline miss).  Decision fields, including the sensitivity answer
// Decision::wcet_headroom, are bit-identical between the incremental
// and from-scratch arms (the differential test's contract); accounting
// fields tell the arms apart.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "admission/types.h"
#include "power/frequency.h"
#include "sched/incremental_rta.h"
#include "wcet/scaling.h"

namespace lpfps::admission {

/// Bumps a saturating counter: sticks at max instead of wrapping, so a
/// service that runs for months cannot let a wrapped counter corrupt
/// rate arithmetic downstream.
inline void saturating_increment(std::uint64_t& counter) {
  if (counter != std::numeric_limits<std::uint64_t>::max()) ++counter;
}

/// `counter + amount`, saturating at max.
inline void saturating_add(std::uint64_t& counter, std::uint64_t amount) {
  const std::uint64_t room =
      std::numeric_limits<std::uint64_t>::max() - counter;
  counter += amount < room ? amount : room;
}

struct ServiceConfig {
  /// Discrete frequency levels the minimum-safe answer is drawn from.
  /// Continuous tables are rejected (no levels to search).
  power::FrequencyTable table = power::FrequencyTable::arm8_like();
  /// WCET-vs-frequency behavior; ideal() reproduces the 1/f assumption.
  wcet::FrequencyScalingModel scaling = wcet::FrequencyScalingModel::ideal();
  /// False = reference arm: every mutation reanalyzes every task from
  /// scratch, every frequency search binary-searches all levels, and
  /// the WCET headroom probes the whole set at every scale.
  bool incremental = true;
  /// Ignored: the service keeps no decision cache.  Kept only because
  /// the perfbench harness (perfbench/src/) still sets it; nothing reads
  /// it.
  bool use_cache = true;
  /// Compute Decision::wcet_headroom for every admitted request (the
  /// largest uniform WCET-scaling factor feasible at the granted
  /// level).  A decision knob, not an arm knob: it changes what is
  /// answered.
  bool sensitivity = true;

  /// Throws unless the table is discrete and the scaling model valid.
  void validate() const;
};

/// Cumulative service accounting (saturating counters).
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t levels_probed = 0;  ///< feasible_at_level evaluations.
  /// Searches answered by the stationary-boundary fast path (<= 2
  /// probes, no gallop or binary search).
  std::uint64_t stationary_hits = 0;
  /// Sensitivity task fixed-point solves that actually ran, on both
  /// arms: a whole-set probe that stops at its k-th task counts k, and
  /// a check the bound cleared counts nothing.
  std::uint64_t headroom_probes = 0;
  /// Per-task headroom searches (incremental arm): one per admit when
  /// the first candidate binds, one more each time the scan finds a
  /// task binding below it.
  std::uint64_t headroom_searches = 0;
  /// Task fixed-point solves skipped because the closed-form bound
  /// cleared the task (incremental arm: level probes and headroom
  /// checks; always 0 on the reference arm).
  std::uint64_t bound_clears = 0;
};

class AdmissionService {
 public:
  /// `initial` must be schedulable at f_max (the empty set is).
  explicit AdmissionService(sched::TaskSet initial, ServiceConfig config);

  /// Decides one request; applies it iff admitted.
  Decision handle(const Request& request);

  const sched::TaskSet& tasks() const { return rta_.tasks(); }
  const std::vector<std::optional<Time>>& response_times() const {
    return rta_.response_times();
  }
  const ServiceConfig& config() const { return config_; }

  /// FNV digest of the current set's canonical (RTA-relevant) bytes.
  std::uint64_t fingerprint() const;

  const ServiceStats& stats() const { return stats_; }
  const sched::IncrementalRta::Stats& rta_stats() const {
    return rta_.stats();
  }

  /// The canonical bytes of a task set, which fingerprint() and
  /// Decision::fingerprint hash: the task count, then period, deadline,
  /// WCET bit pattern, and priority per task in index order.  Name,
  /// BCET, and phase are excluded — they cannot affect any RTA or
  /// minimum-frequency answer.  Exposed for tests.
  static std::string canonical_key(const sched::TaskSet& tasks);

 private:
  /// Which way the request can have moved the minimum feasible level
  /// relative to the previous answer (monotonicity of feasibility in
  /// interference).
  enum class SearchBound {
    kNotBelowHint,  ///< Add / tightening mutate: min can only rise.
    kNotAboveHint,  ///< Remove / relaxing mutate: min can only fall.
    kUnbounded,     ///< Mixed mutate: no direction known.
  };

  /// The candidate set's canonical key, built directly from the current
  /// set plus the request — byte-identical to canonical_key() of the
  /// materialized candidate, without copying the set.
  std::string candidate_key(const Request& request) const;

  /// True iff every current task, stretched to `level`'s ratio, meets
  /// its deadline.  Allocation-free mirror of scaled_task_set +
  /// response_time_from_seed (bitwise the same booleans); `seeds`, when
  /// non-null, resumes each task's iteration from its f_max response
  /// time (a valid seed at any level — stretching WCETs only raises the
  /// least fixed point), further tightened by the converged responses
  /// of an earlier feasible probe this search when that probe ran at a
  /// level >= `level` (less stretch there means a smaller fixed point,
  /// so those responses never overshoot here).  With seeds (the
  /// incremental arm) the probe walks the tasks highest priority first
  /// and raises each seed to the response of the task just above
  /// (sched::seed_from_above); tasks the closed-form bound clears skip
  /// their solve and record their seed, max(seed, scaled C_i), which
  /// lies at or below the least fixed point at this level and every
  /// lower one.  The reference arm walks index order from C_i.  Counts
  /// one levels_probed.
  bool feasible_at_level(int level,
                         const std::vector<std::optional<Time>>* seeds);

  /// Lowest feasible level for the current set (known feasible at the
  /// top level).  Full binary search with C_i probe seeds (reference
  /// arm, and the first-ever answer); otherwise: first try the
  /// stationary fast path (verify the previous boundary in <= 2
  /// probes), then predict the boundary from the utilization change,
  /// probe the prediction, and gallop out from it within the
  /// `bound`-implied bracket, with seeded probes.  Identical result by
  /// monotonicity of feasibility in the level.  Sets
  /// last_search_stationary_.
  int min_feasible_level(SearchBound bound);

  /// Sensitivity: the largest uniform WCET-scaling factor s >= 1 at
  /// which the current set stays feasible at `level`, defined as the
  /// largest feasible point of a fixed lattice (the scales a fixed
  /// probe schedule visits: gallop s = 2, 4, ... capped at 2^20, then
  /// exactly 12 bisections), so the returned double depends only on
  /// feasibility booleans — exact fixed-point answers — and is
  /// bit-identical across arms and seeding strategies.  The reference
  /// arm runs the schedule over whole-set probes from scaled-C_i seeds.
  /// The incremental arm takes the minimum of per-task answers (equal,
  /// because set feasibility is the AND of monotone per-task
  /// predicates): one task_headroom search for a candidate, then one
  /// seeded check of every other task at that answer, highest priority
  /// first, searching again only for a task that fails there; the check
  /// skips the tasks the closed-form bound clears at that answer, and
  /// raises each seed to the response at that answer of the task just
  /// above (sched::seed_from_above; none right after a search, which
  /// moves the answer).  Counts headroom_probes per task solve that
  /// runs.
  double compute_headroom(int level);

  /// Task `b`'s own headroom at `level`: the fixed schedule run on b
  /// alone, its first solve seeded by seed_at and each later one
  /// resumed from b's response at the last feasible scale.  Leaves in
  /// `response` b's response at the answer (its seed_at when the answer
  /// is 1).  Counts one headroom_searches.
  double task_headroom(std::size_t b, int level, double& response);

  /// Every WCET's stretch factor at `level` under the scaling model.
  double stretch_at(int level) const;

  /// The fixed-point seed for task i at `level` (and any scale >= 1):
  /// 0 (start at C_i) without `seeds`; otherwise the max of its f_max
  /// response and, when the level search's last feasible probe ran at
  /// a level >= `level`, that probe's response.  Both lie at or below
  /// the least fixed point there.
  double seed_at(std::size_t i, int level,
                 const std::vector<std::optional<Time>>* seeds) const;

  /// First-order boundary prediction: stretch(r_min) * U is roughly
  /// invariant across small churn, so calibrate it on the previous
  /// answer (`hint`, `last_util_`) and solve for the level at the
  /// current utilization.  A heuristic probe target only — never a
  /// correctness input.
  int predicted_level(int hint) const;

  ServiceConfig config_;
  sched::IncrementalRta rta_;
  ServiceStats stats_;
  int last_min_level_ = -1;   ///< Search hint; -1 = no previous answer.
  double last_util_ = 0.0;    ///< Utilization at the previous answer.
  bool last_search_stationary_ = false;
  std::vector<double> scaled_wcet_;  ///< Probe scratch buffer.
  /// Incremental arm: the bound's per-task verdict over the current
  /// scaled_wcet_ (walked in rta_.by_priority()).
  std::vector<std::uint8_t> bound_cleared_;
  /// Probe-seed reuse: the converged per-task responses of the lowest
  /// feasible probe so far (valid seeds for any probe at or below
  /// probe_level_).  Retained *across* requests whenever the request
  /// can only have grown interference (SearchBound::kNotBelowHint:
  /// every fixed point rose, so the retained responses still lie at or
  /// below it); invalidated by handle() otherwise.  This is what makes
  /// the stationary fast path one cheap resumed probe instead of a
  /// from-C_i reanalysis at the boundary level.
  std::vector<double> probe_r_;
  std::vector<double> probe_scratch_;
  int probe_level_ = -1;
  /// Priority of the task whose own headroom was the previous answer:
  /// the next compute_headroom's first candidate (priorities are unique,
  /// so this survives index shifts).  Work only, never the answer.
  std::optional<sched::Priority> headroom_binding_;
};

}  // namespace lpfps::admission
