// Exact fixed-priority response-time analysis on integer ticks.
//
// A test oracle that shares no code with the library: task parameters
// are whole numbers of ticks, and the recurrence
//     w <- base + sum over higher-priority j of n_j * C_j,
//     n_j = max(1, ceil((w + J_j) / T_j))
// is iterated in int64, so every value is exact.  It keeps the
// library's contract (start at the base, stop at the first fixed point,
// give up once an iterate plus the task's own jitter passes the
// deadline).  tests/sched/rta_oracle_test.cc checks the library's RTA
// kernel against it; tests/core/engine_critical_instant_test.cc checks
// the simulated response of each task's first job.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace lpfps::oracle {

// One task in ticks.  (m, k) == (0, 0) is a hard task.  A smaller
// priority value is a higher priority.
struct TickTask {
  std::int64_t period = 0;
  std::int64_t deadline = 0;
  std::int64_t wcet = 0;
  std::int64_t jitter = 0;
  std::int64_t blocking = 0;
  int priority = 0;
  int m = 0;
  int k = 0;
};

// Which demand the recurrence counts: every higher-priority job
// (kPlain), the same plus release jitter and blocking (kJitter), or only
// the jobs an (m,k) constraint makes mandatory (kMandatory).
enum class Term { kPlain, kJitter, kMandatory };

inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return a <= 0 ? 0 : (a + b - 1) / b;
}

// Jobs among n consecutive releases that run in full degradation.
inline std::int64_t mandatory_jobs(std::int64_t n, int m, int k) {
  if (k == 0) return n;
  return (n / k) * m + std::min<std::int64_t>(n % k, m);
}

// The oracle's answer for one task: the fixed point w (without the own
// jitter) and the jobs of each higher-priority task it counts, or
// converged == false when an iterate passed the deadline.
struct Exact {
  bool converged = false;
  std::int64_t w = 0;
  std::vector<std::int64_t> jobs;
};

inline Exact exact_response(const std::vector<TickTask>& set, std::size_t i,
                            Term term) {
  const TickTask& task = set[i];
  const std::int64_t base =
      task.wcet + (term == Term::kJitter ? task.blocking : 0);
  const std::int64_t own_jitter = term == Term::kJitter ? task.jitter : 0;
  Exact out;
  out.jobs.assign(set.size(), 0);
  std::int64_t w = base;
  for (;;) {
    std::int64_t next = base;
    for (std::size_t j = 0; j < set.size(); ++j) {
      const TickTask& other = set[j];
      if (other.priority >= task.priority) continue;
      const std::int64_t window =
          w + (term == Term::kJitter ? other.jitter : 0);
      std::int64_t n =
          std::max<std::int64_t>(1, ceil_div(window, other.period));
      if (term == Term::kMandatory) n = mandatory_jobs(n, other.m, other.k);
      out.jobs[j] = n;
      next += n * other.wcet;
    }
    if (next == w) break;
    if (next + own_jitter > task.deadline) return out;
    w = next;
  }
  out.converged = true;
  out.w = w;
  return out;
}

// Seeded draws from raw 64-bit outputs, so a corpus does not depend on
// the standard library's distribution algorithms.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng_() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  double unit() { return static_cast<double>(rng_() >> 11) * 0x1p-53; }
  bool one_in(int n) { return between(1, n) == 1; }

 private:
  std::mt19937_64 rng_;
};

// Gives the tasks of `set` the distinct priorities 0..n-1: a uniformly
// random permutation when `shuffle`, else deadline-monotonic (ties in
// index order).
inline void assign_priorities(std::vector<TickTask>& set, Draw& draw,
                              bool shuffle) {
  std::vector<std::size_t> order(set.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (shuffle) {
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[static_cast<std::size_t>(draw.between(
                              0, static_cast<std::int64_t>(i)))]);
    }
  } else {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return set[a].deadline < set[b].deadline;
                     });
  }
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    set[order[rank]].priority = static_cast<int>(rank);
  }
}

}  // namespace lpfps::oracle
