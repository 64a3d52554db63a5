#include "admission/service.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "core/fingerprint.h"

namespace lpfps::admission {
namespace {

void append_bytes(std::string& key, const void* data, std::size_t size) {
  key.append(static_cast<const char*>(data), size);
}

// One task's contribution to the canonical key: period, deadline, WCET
// bit pattern, priority.  Name, BCET, and phase are excluded — they
// cannot affect any RTA or minimum-frequency answer.
void append_task_key(std::string& key, const sched::Task& t) {
  append_bytes(key, &t.period, sizeof(t.period));
  append_bytes(key, &t.deadline, sizeof(t.deadline));
  std::uint64_t wcet_bits = 0;
  static_assert(sizeof(wcet_bits) == sizeof(t.wcet));
  std::memcpy(&wcet_bits, &t.wcet, sizeof(wcet_bits));
  append_bytes(key, &wcet_bits, sizeof(wcet_bits));
  const std::int32_t priority = t.priority;
  append_bytes(key, &priority, sizeof(priority));
}

constexpr std::size_t kTaskKeyBytes = 8 + 8 + 8 + 4;

// Sensitivity probe schedule: gallop the scale upward by doubling
// (cap 2^20 — "effectively unbounded headroom"), then exactly this
// many bisections.  Fixed so the returned double is a function of the
// feasibility booleans alone; with powers-of-two endpoints every
// midpoint is exact in binary, so the same booleans give the same
// bits on every arm.
constexpr double kHeadroomCap = 1048576.0;  // 2^20.
constexpr int kHeadroomIters = 12;

// The fixed probe schedule over a predicate that holds at scale 1 and
// is monotone (true at s implies true at every smaller s).  Its probes
// all lie on one lattice L: the powers of two 2..2^20 plus the
// 4,096-point dyadic grid 2^m + k * 2^(m - 12) inside each octave
// [2^m, 2^(m+1)).  Gallop plus bisection pins the largest point of L
// at which the predicate holds, and that point is what it returns.
template <typename Feasible>
double largest_feasible_scale(Feasible&& feasible) {
  // scale = 1 holds by the caller's contract, so the gallop starts at 2
  // with lo = 1 already proven.
  double lo = 1.0;
  double hi = 2.0;
  while (feasible(hi)) {
    lo = hi;
    hi *= 2.0;
    if (hi > kHeadroomCap) return kHeadroomCap;
  }
  for (int i = 0; i < kHeadroomIters; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (feasible(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// scaled[i] = tasks[i].wcet * stretch * scale, in that product order
// (scale = 1 leaves wcet * stretch bit-exact).  True iff no scaled WCET
// overruns its own deadline.
bool scale_wcets(const std::vector<sched::Task>& tasks, double stretch,
                 double scale, std::vector<double>& scaled) {
  scaled.resize(tasks.size());
  bool fits = true;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    scaled[i] = tasks[i].wcet * stretch * scale;
    if (scaled[i] > static_cast<double>(tasks[i].deadline)) fits = false;
  }
  return fits;
}

}  // namespace

void ServiceConfig::validate() const {
  scaling.validate();
  LPFPS_CHECK_MSG(!table.is_continuous(),
                  "admission requires a discrete frequency table");
  LPFPS_CHECK_MSG(!table.levels().empty(),
                  "admission: frequency table has no levels");
  LPFPS_CHECK_MSG(table.levels().back() == table.f_max(),
                  "admission: top level must be f_max");
}

AdmissionService::AdmissionService(sched::TaskSet initial,
                                   ServiceConfig config)
    : config_(std::move(config)),
      rta_(std::move(initial),
           config_.incremental ? sched::IncrementalRta::Mode::kIncremental
                               : sched::IncrementalRta::Mode::kFromScratch) {
  config_.validate();
  LPFPS_CHECK_MSG(rta_.schedulable(),
                  "admission: initial set must be schedulable at f_max");
}

std::string AdmissionService::canonical_key(const sched::TaskSet& tasks) {
  std::string key;
  key.reserve(8 + tasks.size() * kTaskKeyBytes);
  const std::uint64_t count = tasks.size();
  append_bytes(key, &count, sizeof(count));
  for (const sched::Task& t : tasks.tasks()) append_task_key(key, t);
  return key;
}

std::string AdmissionService::candidate_key(const Request& request) const {
  // Byte-identical to canonical_key() of the materialized candidate:
  // TaskSet::add appends, remove erases in place, replace swaps in
  // place, so the candidate's index order is derivable from the current
  // set plus the request without copying n tasks per request.
  const std::vector<sched::Task>& current = rta_.tasks().tasks();
  std::uint64_t count = current.size();
  if (request.kind == RequestKind::kAdd) ++count;
  if (request.kind == RequestKind::kRemove) --count;
  std::string key;
  key.reserve(8 + count * kTaskKeyBytes);
  append_bytes(key, &count, sizeof(count));
  for (std::size_t i = 0; i < current.size(); ++i) {
    const bool at_index = static_cast<TaskIndex>(i) == request.index;
    if (request.kind == RequestKind::kRemove && at_index) continue;
    if (request.kind == RequestKind::kMutate && at_index) {
      append_task_key(key, request.task);
    } else {
      append_task_key(key, current[i]);
    }
  }
  if (request.kind == RequestKind::kAdd) append_task_key(key, request.task);
  return key;
}

std::uint64_t AdmissionService::fingerprint() const {
  return core::fnv1a(canonical_key(rta_.tasks()));
}

double AdmissionService::stretch_at(int level) const {
  const MegaHertz f =
      config_.table.levels()[static_cast<std::size_t>(level)];
  return config_.scaling.stretch(config_.table.ratio_of(f));
}

double AdmissionService::seed_at(
    std::size_t i, int level,
    const std::vector<std::optional<Time>>* seeds) const {
  // A convergent response time at f_max is a valid seed at any lower
  // level and any scale >= 1: stretching every WCET by the same factor
  // >= 1 only raises the least fixed point.  An earlier feasible
  // probe's converged responses are valid when it ran at the same or a
  // higher level: less stretch there means a least fixed point at or
  // below this level's.  The from-scratch arm passes no seeds and
  // starts at the scaled C_i, like response_time_from_seed does.
  double seed = 0.0;
  if (seeds == nullptr) return seed;
  if ((*seeds)[i].has_value()) seed = *(*seeds)[i];
  if (probe_level_ >= level && probe_r_.size() == seeds->size()) {
    seed = std::max(probe_r_[i], seed);
  }
  return seed;
}

bool AdmissionService::feasible_at_level(
    int level, const std::vector<std::optional<Time>>* seeds) {
  saturating_increment(stats_.levels_probed);
  const std::vector<sched::Task>& tasks = rta_.tasks().tasks();
  const std::size_t n = tasks.size();
  // Allocation-free mirror of wcet::scaled_task_set followed by
  // response_time_from_seed on every task, so the boolean is bitwise
  // what the materialized reference path (the service_test brute-force
  // oracle) computes.
  if (!scale_wcets(tasks, stretch_at(level), 1.0, scaled_wcet_)) {
    return false;  // A stretched WCET overran D.
  }
  if (seeds == nullptr) {
    // Reference arm: index order, every task from its scaled C_i.
    for (std::size_t i = 0; i < n; ++i) {
      if (!sched::response_fixed_point(tasks, scaled_wcet_, i, 0.0)) {
        return false;
      }
    }
    return true;
  }
  // Incremental arm: highest priority first, each task also seeded from
  // the one just above (sched::seed_from_above), whose entry of
  // probe_scratch_ is final by then.
  const std::vector<std::size_t>& order = rta_.by_priority();
  probe_scratch_.resize(n);
  sched::clear_by_response_bound(tasks, scaled_wcet_, order, bound_cleared_);
  std::uint64_t clears = 0;
  bool feasible = true;
  for (std::size_t q = 0; q < n; ++q) {
    const std::size_t i = order[q];
    double seed = seed_at(i, level, seeds);
    if (q > 0) {
      seed = sched::seed_from_above(seed, probe_scratch_[order[q - 1]],
                                    scaled_wcet_[i],
                                    tasks[order[q - 1]].deadline, n);
    }
    if (bound_cleared_[i] != 0) {
      // Cleared: feasible here without a solve.  Its seed stays a valid
      // seed for every later probe of this search (all at or below this
      // level, where the least fixed point is no smaller), and for the
      // task below.
      probe_scratch_[i] = std::max(seed, scaled_wcet_[i]);
      ++clears;
      continue;
    }
    const std::optional<double> r =
        sched::response_fixed_point(tasks, scaled_wcet_, i, seed);
    if (!r.has_value()) {
      feasible = false;
      break;
    }
    probe_scratch_[i] = *r;
  }
  saturating_add(stats_.bound_clears, clears);
  if (feasible) {
    // A fully feasible probe becomes the new seed source: every later
    // probe in this search runs at or below this level.
    probe_r_.swap(probe_scratch_);
    probe_level_ = level;
  }
  return feasible;
}

int AdmissionService::predicted_level(int hint) const {
  // At the feasibility boundary, response times sit near their
  // deadlines, and to first order they scale with total utilization
  // times the WCET stretch — so stretch(r_min) * U is roughly invariant
  // across small churn.  Calibrate the product on the previous answer
  // and solve stretch(r) = k / U for the level at the current
  // utilization.  The prediction usually lands within a level or two
  // of the new boundary, which makes the probe count independent of
  // how far one request moved it.  It is only a probe target: the
  // search below proves minimality regardless of where this points.
  const double u = rta_.tasks().utilization();
  if (u <= 0.0 || last_util_ <= 0.0) return hint;
  const double beta = config_.scaling.memory_bound_fraction;
  if (1.0 - beta <= 1e-12) return hint;  // Stretch is flat in the level.
  const std::vector<MegaHertz>& levels = config_.table.levels();
  const double prev_ratio =
      config_.table.ratio_of(levels[static_cast<std::size_t>(hint)]);
  const double k = config_.scaling.stretch(prev_ratio) * last_util_;
  const double s = std::max(1.0, k / u);
  const double ratio = 1.0 / (1.0 + (s - 1.0) / (1.0 - beta));
  const double f_target = ratio * config_.table.f_max();
  const auto it =
      std::lower_bound(levels.begin(), levels.end(), f_target - 1e-9);
  return static_cast<int>(it - levels.begin());
}

int AdmissionService::min_feasible_level(SearchBound bound) {
  const int top = static_cast<int>(config_.table.levels().size()) - 1;
  const std::vector<std::optional<Time>>* seeds =
      config_.incremental ? &rta_.response_times() : nullptr;
  last_search_stationary_ = false;
  // probe_level_ / probe_r_ are NOT reset here: handle() already
  // invalidated them unless the request direction keeps them valid
  // (kNotBelowHint — every fixed point grew), in which case the first
  // probe below resumes from the previous search's converged state.
  const int hint = last_min_level_ < 0 ? -1 : std::min(last_min_level_, top);
  // Sound bracket for the minimum.  The top level is feasible without a
  // probe (stretch(1) == 1.0 exactly, so it is the f_max set the caller
  // just admitted); `bound` tightens the bracket further: kNotBelowHint
  // keeps every level below the previous answer infeasible, and
  // kNotAboveHint keeps every level at or above it feasible.
  int blo = 0;
  int bhi = top;
  if (config_.incremental && hint >= 0) {
    if (bound == SearchBound::kNotBelowHint) {
      blo = hint;
    } else if (bound == SearchBound::kNotAboveHint) {
      bhi = hint;
    }
  }
  // Memo for the (at most two) stationary-fast-path probes, consulted
  // before feasible_at_level so a fast-path miss never re-probes a
  // level the fall-through schedule visits again.  Memoized results
  // are the same booleans a re-probe would produce (exact fixed
  // points), so this can only change probe *counts*, never answers.
  int memo_level[2] = {-2, -2};
  bool memo_result[2] = {false, false};
  int memo_count = 0;
  const auto feasible = [&](int level) {
    if (level >= bhi) return true;
    for (int k = 0; k < memo_count; ++k) {
      if (memo_level[k] == level) return memo_result[k];
    }
    const bool result = feasible_at_level(level, seeds);
    if (memo_count < 2) {
      memo_level[memo_count] = level;
      memo_result[memo_count] = result;
      ++memo_count;
    }
    return result;
  };
  // Binary search for the lowest feasible level in [lo, hi], where
  // feasible(hi) is already established.
  const auto binary_min = [&](int lo, int hi) {
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      if (feasible(mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  };
  if (!config_.incremental || hint < 0) {
    // Reference arm (and the first-ever answer): no usable previous
    // answer — binary-search the whole table from C_i probe seeds.
    return binary_min(blo, bhi);
  }
  if (blo == bhi) return blo;
  // Stationary-boundary fast path: most churn leaves the boundary at
  // the previous answer, and verifying that takes at most two probes —
  // feasible(hint) pins it from above, infeasible(hint - 1) from below
  // (each side free when the bracket already supplies it).  Probes are
  // seeded from the retained previous-search responses when handle()
  // kept them valid, so the common verification converges in a handful
  // of iterations per task.  On a miss, the memoized results flow into
  // the prediction/gallop schedule below.
  switch (bound) {
    case SearchBound::kNotBelowHint:  // blo == hint: minimality is free.
      if (feasible(hint)) {
        last_search_stationary_ = true;
        return hint;
      }
      break;
    case SearchBound::kNotAboveHint:  // bhi == hint: feasibility is free.
      if (!feasible(hint - 1)) {
        last_search_stationary_ = true;
        return hint;
      }
      break;
    case SearchBound::kUnbounded:
      if (feasible(hint) && (hint == blo || !feasible(hint - 1))) {
        last_search_stationary_ = true;
        return hint;
      }
      break;
  }
  // Incremental arm: probe the predicted boundary, settle the common
  // "prediction exact" case with a second probe, and otherwise gallop
  // toward the boundary (O(log e) probes for a prediction off by e
  // levels).  Every return below is justified by level monotonicity
  // alone — feasible(p) with infeasible(p - 1) pins the minimum — so
  // any probe schedule lands on the same answer and the arms stay
  // bit-identical in every decision field.
  const int p = std::clamp(predicted_level(hint), blo, bhi);
  if (feasible(p)) {
    if (p == blo || !feasible(p - 1)) return p;
    // Overshot: the minimum is below p - 1.  Gallop down.
    int lo = blo;
    int hi = p - 1;
    if (hi == blo) return blo;  // feasible(p - 1) already pinned it.
    for (int step = 2;; step *= 2) {
      const int probe = p - step;
      if (probe <= blo) {
        if (feasible(blo)) return blo;
        lo = blo + 1;
        break;
      }
      if (feasible(probe)) {
        hi = probe;
      } else {
        lo = probe + 1;
        break;
      }
    }
    return binary_min(lo, hi);
  }
  // Undershot: the minimum is above p.  Gallop up.
  int lo = p + 1;
  int hi = bhi;
  for (int step = 1;; step *= 2) {
    const int probe = p + step;
    if (probe >= bhi) break;  // bhi is feasible without a probe.
    if (feasible(probe)) {
      hi = probe;
      break;
    }
    lo = probe + 1;
  }
  return binary_min(lo, hi);
}

double AdmissionService::task_headroom(std::size_t b, int level,
                                       double& response) {
  const std::vector<sched::Task>& tasks = rta_.tasks().tasks();
  const double stretch = stretch_at(level);
  // Each solve resumes from b's response at the last feasible scale:
  // every later probe of the schedule runs at a larger scale, so that
  // response lies at or below the new least fixed point.
  response = seed_at(b, level, &rta_.response_times());
  saturating_increment(stats_.headroom_searches);
  return largest_feasible_scale([&](double scale) {
    scale_wcets(tasks, stretch, scale, scaled_wcet_);
    saturating_increment(stats_.headroom_probes);
    const std::optional<double> r =
        sched::response_fixed_point(tasks, scaled_wcet_, b, response);
    if (!r.has_value()) return false;
    response = *r;
    return true;
  });
}

double AdmissionService::compute_headroom(int level) {
  const std::vector<sched::Task>& tasks = rta_.tasks().tasks();
  const std::size_t n = tasks.size();
  if (n == 0) return kHeadroomCap;  // Nothing to scale.
  const double stretch = stretch_at(level);
  if (!config_.incremental) {
    // Reference arm: the schedule over whole-set probes, every task
    // solved from its scaled C_i until the first one fails.
    return largest_feasible_scale([&](double scale) {
      if (!scale_wcets(tasks, stretch, scale, scaled_wcet_)) return false;
      for (std::size_t i = 0; i < n; ++i) {
        saturating_increment(stats_.headroom_probes);
        if (!sched::response_fixed_point(tasks, scaled_wcet_, i, 0.0)
                 .has_value()) {
          return false;
        }
      }
      return true;
    });
  }
  // Incremental arm: the minimum of per-task headrooms.  The set is
  // feasible at scale s iff every task is (its own C_i <= D_i and its
  // fixed point within D_i), and each task's predicate is monotone in s
  // (response_fixed_point's argument: more scale, more interference, a
  // larger least fixed point).  A conjunction of monotone predicates
  // holds at a lattice point iff it lies at or below every task's
  // largest feasible point, so the whole-set schedule's answer is the
  // minimum over tasks of each task's own schedule answer, bit for bit.
  //
  // One task's search is 13 single-task solves (in [1, 2)); a check is
  // one.  Search a candidate b, check every other task once at b's
  // answer h, highest priority first, and search again only a task that
  // fails there: its own answer is then below h, and tasks that passed
  // at the larger h still pass below it, so the scan continues from
  // where it stood.
  const std::vector<std::optional<Time>>& f_max = rta_.response_times();
  const std::vector<std::size_t>& order = rta_.by_priority();
  // The candidate is the task that bound the previous answer, else the
  // lowest priority one (numerically largest); either way it only
  // decides how much work is done, never the answer.
  std::size_t b = order.back();
  for (std::size_t i = 0; i < n; ++i) {
    if (tasks[i].priority == headroom_binding_) {
      b = i;
      break;
    }
  }
  // Each check first tries the closed-form bound at the current answer;
  // a cleared task passes there without a solve.
  const auto scale_and_clear = [&](double scale) {
    scale_wcets(tasks, stretch, scale, scaled_wcet_);
    sched::clear_by_response_bound(tasks, scaled_wcet_, order,
                                   bound_cleared_);
  };
  const std::size_t first = b;
  // `above` carries the response at h of the task just above the one
  // checked (its recorded seed if the bound cleared it; 0 for none), the
  // seed_from_above of the next check.  A search drops h, so it drops
  // every response at the old h: the searched task's own response at
  // its answer is carried on, and `first`'s is no longer at h.
  double first_response = 0.0;
  double h = task_headroom(b, level, first_response);
  scale_and_clear(h);
  double above = 0.0;
  std::uint64_t clears = 0;
  for (std::size_t q = 0; q < n; ++q) {
    const std::size_t i = order[q];
    if (i == first) {
      above = first_response;
      continue;
    }
    double seed = seed_at(i, level, &f_max);
    if (q > 0) {
      seed = sched::seed_from_above(seed, above, scaled_wcet_[i],
                                    tasks[order[q - 1]].deadline, n);
    }
    if (bound_cleared_[i] != 0) {
      above = std::max(seed, scaled_wcet_[i]);
      ++clears;
      continue;
    }
    saturating_increment(stats_.headroom_probes);
    const std::optional<double> r =
        sched::response_fixed_point(tasks, scaled_wcet_, i, seed);
    if (r.has_value()) {
      above = *r;
      continue;
    }
    b = i;
    h = task_headroom(b, level, above);
    first_response = 0.0;
    scale_and_clear(h);
  }
  saturating_add(stats_.bound_clears, clears);
  headroom_binding_ = tasks[b].priority;
  return h;
}

Decision AdmissionService::handle(const Request& request) {
  saturating_increment(stats_.requests);
  Decision d;
  d.kind = request.kind;

  d.fingerprint = core::fnv1a(candidate_key(request));

  // A priority clash can never be scheduled under unique-priority FPS;
  // reject without analysis (IncrementalRta refuses duplicate priorities
  // outright).
  const bool clash =
      request.kind != RequestKind::kRemove &&
      rta_.priority_taken(request.task.priority,
                          request.kind == RequestKind::kMutate
                              ? request.index
                              : kNoTask);

  bool schedulable = false;
  int min_level = -1;
  double headroom = 0.0;
  if (!clash) {
    // Request direction: it both brackets the level search and decides
    // whether the retained cross-request probe responses stay valid.
    // Same priority with WCET up / period down / deadline down can only
    // tighten every task's constraint (interference grows, own slack
    // shrinks); the mirror image can only relax them.  Anything else
    // gives no direction.
    sched::Task previous;
    SearchBound bound = SearchBound::kUnbounded;
    switch (request.kind) {
      case RequestKind::kAdd:
        bound = SearchBound::kNotBelowHint;
        break;
      case RequestKind::kRemove:
        bound = SearchBound::kNotAboveHint;
        break;
      case RequestKind::kMutate:
        previous = rta_.tasks()[request.index];
        if (request.task.priority == previous.priority) {
          if (request.task.wcet >= previous.wcet &&
              request.task.period <= previous.period &&
              request.task.deadline <= previous.deadline) {
            bound = SearchBound::kNotBelowHint;
          } else if (request.task.wcet <= previous.wcet &&
                     request.task.period >= previous.period &&
                     request.task.deadline >= previous.deadline) {
            bound = SearchBound::kNotAboveHint;
          }
        }
        break;
    }
    // Retained probe responses survive exactly the requests that can
    // only *grow* every fixed point (kNotBelowHint): grown least fixed
    // points keep the old responses at or below them, so they remain
    // sound seeds.  A remove/relax shrinks fixed points and would turn
    // them into overshooting seeds — invalidate.  An add appends one
    // task; seed it with 0 (contributes nothing beyond the scaled C_i
    // floor) and pop it again if the add is rejected, which restores
    // the pre-request vector exactly because a rejected request never
    // runs a level search.
    const bool retain = config_.incremental &&
                        bound == SearchBound::kNotBelowHint &&
                        probe_level_ >= 0;
    bool probe_pushed = false;
    if (!retain) {
      probe_level_ = -1;
    } else if (request.kind == RequestKind::kAdd) {
      probe_r_.push_back(0.0);
      probe_pushed = true;
    }

    // The rollback snapshot is one response vector plus (for mutate)
    // one task: a rejected add is undone by popping the appended task, a
    // rejected mutate by swapping the old task back, and removals are
    // never rejected — so no full TaskSet copy is needed anywhere here.
    std::vector<std::optional<Time>> before_r = rta_.response_times();
    const sched::IncrementalRta::Stats rta_before = rta_.stats();
    switch (request.kind) {
      case RequestKind::kAdd:
        rta_.add_task(request.task);
        break;
      case RequestKind::kRemove:
        rta_.remove_task(request.index);
        break;
      case RequestKind::kMutate:
        rta_.mutate_task(request.index, request.task);
        break;
    }
    schedulable = rta_.schedulable();
    d.tasks_reanalyzed =
        rta_.stats().tasks_reanalyzed - rta_before.tasks_reanalyzed;
    d.tasks_seeded = rta_.stats().tasks_seeded - rta_before.tasks_seeded;
    if (schedulable) {
      const std::uint64_t clears_before = stats_.bound_clears;
      const std::uint64_t probes_before = stats_.levels_probed;
      min_level = min_feasible_level(bound);
      d.levels_probed =
          static_cast<std::int64_t>(stats_.levels_probed - probes_before);
      d.stationary = last_search_stationary_;
      if (d.stationary) saturating_increment(stats_.stationary_hits);
      if (config_.sensitivity) {
        const std::uint64_t hr_before = stats_.headroom_probes;
        headroom = compute_headroom(min_level);
        d.headroom_probes =
            static_cast<std::int64_t>(stats_.headroom_probes - hr_before);
      }
      d.bound_clears =
          static_cast<std::int64_t>(stats_.bound_clears - clears_before);
    } else {
      // Shrinking interference cannot create a deadline miss, so a
      // rejection here is always an add or a mutate.
      LPFPS_CHECK(request.kind != RequestKind::kRemove);
      if (request.kind == RequestKind::kAdd) {
        rta_.undo_add(std::move(before_r));
      } else {
        rta_.undo_mutate(request.index, std::move(previous),
                         std::move(before_r));
      }
    }
    if (probe_pushed && !schedulable) probe_r_.pop_back();
  }

  d.admitted = schedulable;
  if (schedulable) {
    d.min_level = min_level;
    d.wcet_headroom = headroom;
    d.min_safe_mhz =
        config_.table.levels()[static_cast<std::size_t>(min_level)];
    d.min_safe_ratio = config_.table.ratio_of(d.min_safe_mhz);
    last_min_level_ = min_level;
    last_util_ = rta_.tasks().utilization();
    saturating_increment(stats_.admitted);
  } else {
    saturating_increment(stats_.rejected);
  }
  d.task_count = static_cast<std::int64_t>(rta_.tasks().size());
  d.utilization = rta_.tasks().utilization();
  return d;
}

}  // namespace lpfps::admission
