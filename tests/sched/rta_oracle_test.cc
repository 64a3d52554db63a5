// The response-time kernel (sched::solve_response_time) against an exact
// integer oracle.
//
// Every input here is a whole number of ticks of 0.1, 0.01 or 0.001 us,
// so the recurrence can be iterated exactly in int64 ticks.  The oracle
// (tests/support/exact_rta.h) shares no code with the kernel.  It keeps
// the kernel's contract (start at the base, stop at the first fixed
// point, give up once an iterate plus the task's own jitter passes the
// deadline) on exact integers and returns the release counts of the
// fixed point.  For the plain, jitter-plus-blocking and degraded (m,k)
// analyses the test asserts:
//   * the verdicts: a value where the oracle converges, nullopt where it
//     gives up, and the same whole-set schedulability answer;
//   * each value bit for bit: the double recomputed from the oracle's
//     counts in index order (base + n_j * C_j, j ascending), which is
//     what the kernel computes iff every count it used is the exact one;
//   * on sets without a weakly-hard task, degraded == plain bitwise.
// The random corpus is a seeded UUniFast draw; a constructed family adds
// responses that land exactly on a higher-priority period multiple,
// which the random corpus rarely hits and where the release count's
// -kTimeEpsilon decides the answer.
//
// The priority-ordered walks seed each task from the final response of
// the task just above it (sched::seed_from_above): IncrementalRta at
// f_max, and the admission service's level probes and headroom checks
// over stretched and scaled WCETs.  On the corpus and the family, every
// such seed lies at or below the oracle's answer and the seeded solve
// equals the solve from C_i bitwise; a family of tiny WCETs trips the
// seed's rounding guard, where an unguarded seed would change answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sched/analysis.h"
#include "sched/incremental_rta.h"
#include "sched/task.h"
#include "sched/task_set.h"
#include "support/exact_rta.h"
#include "weakly_hard/analysis.h"

namespace lpfps::sched {
namespace {

constexpr int kSetsPerResolution = 20000;

using oracle::ceil_div;
using oracle::Draw;
using oracle::Exact;
using oracle::exact_response;
using oracle::mandatory_jobs;
using oracle::Term;
using oracle::TickTask;

// The double the kernel must return if it counted exactly the oracle's
// jobs: the same products, summed in the same order.
double recompute(const TaskSet& tasks, std::size_t i, double base,
                 const Exact& exact) {
  double v = base;
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    const Task& other = tasks.tasks()[j];
    if (other.priority >= tasks.tasks()[i].priority) continue;
    v += static_cast<double>(exact.jobs[j]) * other.wcet;
  }
  return v;
}

// The kernel-side view of a tick set: periods and deadlines in whole
// microseconds, WCETs, jitter and blocking as the doubles nearest their
// tick counts.
struct Rendered {
  TaskSet tasks;
  AnalysisExtras extras;
};

Rendered render(const std::vector<TickTask>& set, std::int64_t ticks_per_us) {
  const double scale = static_cast<double>(ticks_per_us);
  Rendered out;
  for (const TickTask& t : set) {
    const double wcet = static_cast<double>(t.wcet) / scale;
    Task task = make_task("t", t.period / ticks_per_us,
                          t.deadline / ticks_per_us, wcet, wcet);
    task.priority = t.priority;
    if (t.k > 0 && t.m == t.k - 1) {
      task.skip_s = t.k;  // The skip-over form of (s - 1, s).
    } else if (t.k > 0) {
      task.mk_m = t.m;
      task.mk_k = t.k;
    }
    out.tasks.add(task);
    out.extras.jitter.push_back(static_cast<double>(t.jitter) / scale);
    out.extras.blocking.push_back(static_cast<double>(t.blocking) / scale);
  }
  return out;
}

// Mismatch counts over a batch of analyses, with the first mismatch of
// each kind spelled out.  `where` is only called for a mismatch.
struct Tally {
  struct Count {
    std::int64_t mismatches = 0;
    std::string first;
  };
  std::int64_t analyses = 0;
  Count verdict;
  Count value;
  std::int64_t past_deadline_fixed_points = 0;

  template <typename Where>
  static void note(Count& count, const Where& where, const std::string& what) {
    if (count.mismatches++ == 0) count.first = what + where();
  }

  // `got` from the library against the oracle's answer for the same
  // task; `want` is the recomputed double, used if the oracle converged.
  template <typename Where>
  void check(const std::optional<Time>& got, const Exact& exact, double want,
             const Where& where) {
    ++analyses;
    if (got.has_value() != exact.converged) {
      note(verdict, where,
           exact.converged ? "kernel gave up where the oracle converged: "
                           : "kernel converged where the oracle gave up: ");
    } else if (got.has_value() && *got != want) {
      std::ostringstream os;
      os.precision(17);
      os << "kernel " << *got << ", oracle counts give " << want << ": ";
      note(value, where, os.str());
    }
  }

  void expect_clean(const char* label) const {
    EXPECT_EQ(verdict.mismatches, 0) << label << ": " << verdict.first;
    EXPECT_EQ(value.mismatches, 0) << label << ": " << value.first;
  }
};

std::string describe(const std::vector<TickTask>& set, std::size_t i,
                     std::int64_t ticks_per_us) {
  std::ostringstream os;
  os << "task " << i << " of {";
  for (const TickTask& t : set) {
    os << " (T=" << t.period << " D=" << t.deadline << " C=" << t.wcet
       << " J=" << t.jitter << " B=" << t.blocking << " p=" << t.priority
       << " m,k=" << t.m << "," << t.k << ")";
  }
  os << " } in ticks of 1/" << ticks_per_us << " us";
  return os.str();
}

// Runs the plain and jitter-plus-blocking terms on `set` (which has no
// weakly-hard task) and the mandatory term on `constrained` (the same
// set with its (m,k) constraints), tallying each against the oracle.
// Returns how many plain responses land exactly on a multiple of a
// higher-priority period.
int check_set(const std::vector<TickTask>& set,
              const std::vector<TickTask>& constrained,
              std::int64_t ticks_per_us, Tally& plain, Tally& jitter,
              Tally& mandatory) {
  const Rendered r = render(set, ticks_per_us);
  const TaskSet& tasks = r.tasks;
  const std::size_t n = set.size();
  int landings = 0;
  const auto whole = [&] { return describe(set, 0, ticks_per_us); };

  // Plain, through every plain entry point, and the degraded analysis,
  // which on a set without weakly-hard tasks must be the plain one.
  bool all_plain = true;
  const std::vector<std::optional<Time>> all = response_times(tasks);
  for (std::size_t i = 0; i < n; ++i) {
    const auto index = static_cast<TaskIndex>(i);
    const auto where = [&] { return describe(set, i, ticks_per_us); };
    const Exact exact = exact_response(set, i, Term::kPlain);
    const double want = recompute(tasks, i, tasks[index].wcet, exact);
    plain.check(response_time(tasks, index), exact, want, where);
    plain.check(all[i], exact, want, where);
    plain.check(response_time_from_seed(tasks, index, 0.0), exact, want,
                where);
    const auto degraded = weakly_hard::degraded_response_time(tasks, index);
    if (degraded.has_value() != all[i].has_value() ||
        (degraded.has_value() && *degraded != *all[i])) {
      Tally::note(plain.value, where, "degraded != plain: ");
    }
    all_plain = all_plain && exact.converged && exact.w <= set[i].deadline;
    for (std::size_t j = 0; exact.converged && j < n; ++j) {
      if (set[j].priority < set[i].priority &&
          exact.w % set[j].period == 0) {
        ++landings;
        break;
      }
    }
  }
  if (is_schedulable_rta(tasks) != all_plain) {
    Tally::note(plain.verdict, whole, "is_schedulable_rta: ");
  }
  if (weakly_hard::is_schedulable_weakly_hard_rta(tasks) != all_plain) {
    Tally::note(plain.verdict, whole,
                "is_schedulable_weakly_hard_rta, no weakly-hard task: ");
  }

  // Jitter plus blocking.
  bool all_jitter = true;
  for (std::size_t i = 0; i < n; ++i) {
    const auto index = static_cast<TaskIndex>(i);
    const Exact exact = exact_response(set, i, Term::kJitter);
    const double base = tasks[index].wcet + r.extras.blocking[i];
    const double want = recompute(tasks, i, base, exact) + r.extras.jitter[i];
    jitter.check(response_time_extended(tasks, index, r.extras), exact, want,
                 [&] { return describe(set, i, ticks_per_us); });
    const bool meets =
        exact.converged && exact.w + set[i].jitter <= set[i].deadline;
    if (exact.converged && !meets) ++jitter.past_deadline_fixed_points;
    all_jitter = all_jitter && meets;
  }
  if (is_schedulable_extended(tasks, r.extras) != all_jitter) {
    Tally::note(jitter.verdict, whole, "is_schedulable_extended: ");
  }

  // Mandatory (m,k) jobs.
  const Rendered rc = render(constrained, ticks_per_us);
  bool all_met = true;
  for (std::size_t i = 0; i < n; ++i) {
    const auto index = static_cast<TaskIndex>(i);
    const Exact exact = exact_response(constrained, i, Term::kMandatory);
    const double want = recompute(rc.tasks, i, rc.tasks[index].wcet, exact);
    mandatory.check(weakly_hard::degraded_response_time(rc.tasks, index),
                    exact, want,
                    [&] { return describe(constrained, i, ticks_per_us); });
    all_met = all_met && exact.converged && exact.w <= set[i].deadline;
  }
  if (weakly_hard::is_schedulable_weakly_hard_rta(rc.tasks) != all_met) {
    Tally::note(mandatory.verdict,
                [&] { return describe(constrained, 0, ticks_per_us); },
                "is_schedulable_weakly_hard_rta: ");
  }
  return landings;
}

// The seed walks against the oracle.  `seeds` counts the seeds a walk
// raised above a task's own, and how many of them overshot the
// oracle's answer (must stay 0).
struct SeedTally {
  std::int64_t raised = 0;
  Tally::Count above_answer;
};

// One walk highest priority first over the WCET view c_j * m of `set`,
// the tick set with every WCET times m, where the oracle stays exact:
// every task from max(c_i, seed_from_above) and from c_i, which must
// agree bitwise and with the oracle; a task the closed-form bound
// clears passes on its seed, as the service's walks do.  m = 1 is the
// f_max walk (IncrementalRta's, checked on the class itself); m = 2
// and 3 stand in for a level's stretch and a headroom scale.
void check_walk(const std::vector<TickTask>& set, std::int64_t ticks_per_us,
                std::int64_t m, Tally& walk, SeedTally& seeds) {
  std::vector<TickTask> scaled = set;
  for (TickTask& t : scaled) t.wcet *= m;
  const Rendered r = render(set, ticks_per_us);
  const std::vector<Task>& tasks = r.tasks.tasks();
  const std::size_t n = tasks.size();
  std::vector<double> view(n);
  for (std::size_t j = 0; j < n; ++j) {
    view[j] = tasks[j].wcet * static_cast<double>(m);
  }
  const IncrementalRta rta(r.tasks);
  const std::vector<std::size_t>& order = rta.by_priority();
  std::vector<std::uint8_t> cleared;
  clear_by_response_bound(tasks, view, order, cleared);
  double above = 0.0;
  for (std::size_t q = 0; q < n; ++q) {
    const std::size_t i = order[q];
    const auto where = [&] {
      return describe(scaled, i, ticks_per_us) + " at m = " +
             std::to_string(m);
    };
    Exact exact = exact_response(scaled, i, Term::kPlain);
    exact.converged = exact.converged && exact.w <= scaled[i].deadline;
    double want = view[i];
    for (std::size_t j = 0; j < n; ++j) {
      if (tasks[j].priority < tasks[i].priority) {
        want += static_cast<double>(exact.jobs[j]) * view[j];
      }
    }
    const double seed =
        q == 0 ? view[i]
               : seed_from_above(view[i], above, view[i],
                                 tasks[order[q - 1]].deadline, n);
    if (seed != view[i]) {
      ++seeds.raised;
      if (exact.converged && seed > want) {
        Tally::note(seeds.above_answer, where, "seed above the answer: ");
      }
    }
    const std::optional<Time> from_seed =
        response_fixed_point(tasks, view, i, seed);
    const std::optional<Time> from_c =
        response_fixed_point(tasks, view, i, 0.0);
    walk.check(from_seed, exact, want, where);
    if (from_seed != from_c) Tally::note(walk.value, where, "seeded != C_i: ");
    if (m == 1) walk.check(rta.response_times()[i], exact, want, where);
    above = cleared[i] != 0 ? seed : from_seed.value_or(0.0);
  }
}

// UUniFast (Bini & Buttazzo): n utilizations summing to `total`.
std::vector<double> uunifast(Draw& draw, int n, double total) {
  std::vector<double> u(static_cast<std::size_t>(n));
  double sum = total;
  for (int i = 0; i + 1 < n; ++i) {
    const double next = sum * std::pow(draw.unit(), 1.0 / (n - 1 - i));
    u[static_cast<std::size_t>(i)] = sum - next;
    sum = next;
  }
  u.back() = sum;
  return u;
}

// 2-13 tasks, U in [0.6, 1.05], integer periods of 2-200 us, WCETs in
// ticks, constrained deadlines (half implicit), deadline-monotonic
// priorities except every fourth set, whose priorities are a random
// permutation.  Jitter, blocking and (m,k) constraints ride along for
// the other two terms.
std::vector<TickTask> draw_set(Draw& draw, std::int64_t ticks_per_us,
                               int index) {
  const int n = static_cast<int>(draw.between(2, 13));
  const double total = 0.6 + 0.45 * draw.unit();
  const std::vector<double> u = uunifast(draw, n, total);
  std::vector<TickTask> set(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    TickTask& t = set[static_cast<std::size_t>(i)];
    const std::int64_t period_us = draw.between(2, 200);
    t.period = period_us * ticks_per_us;
    t.wcet = std::clamp<std::int64_t>(
        std::llround(u[static_cast<std::size_t>(i)] *
                     static_cast<double>(t.period)),
        1, t.period);
    const std::int64_t deadline_us =
        draw.one_in(2) ? period_us
                       : draw.between(ceil_div(t.wcet, ticks_per_us),
                                      period_us);
    t.deadline = deadline_us * ticks_per_us;
    t.jitter = draw.one_in(2) ? draw.between(0, t.period / 4) : 0;
    t.blocking = draw.one_in(3) ? draw.between(0, t.deadline) : 0;
    if (draw.one_in(3)) {
      t.k = static_cast<int>(draw.between(2, 8));
      t.m = static_cast<int>(draw.between(1, t.k));
    }
  }
  oracle::assign_priorities(set, draw, /*shuffle=*/index % 4 == 3);
  return set;
}

std::vector<TickTask> without_constraints(std::vector<TickTask> set) {
  for (TickTask& t : set) t.m = t.k = 0;
  return set;
}

class RtaOracle : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(RtaOracle, RandomCorpusMatchesTheExactAnalysis) {
  const std::int64_t ticks_per_us = GetParam();
  Draw draw(0x5eed0000u + static_cast<std::uint64_t>(ticks_per_us));
  Tally plain;
  Tally jitter;
  Tally mandatory;
  Tally walk;
  SeedTally seeds;
  int landings = 0;
  for (int s = 0; s < kSetsPerResolution; ++s) {
    const std::vector<TickTask> set = draw_set(draw, ticks_per_us, s);
    const std::vector<TickTask> hard = without_constraints(set);
    landings += check_set(hard, set, ticks_per_us, plain, jitter, mandatory);
    for (const std::int64_t m : {1, 2, 3}) {
      check_walk(hard, ticks_per_us, m, walk, seeds);
    }
  }
  plain.expect_clean("plain");
  jitter.expect_clean("jitter");
  mandatory.expect_clean("mandatory");
  walk.expect_clean("seed walks");
  EXPECT_EQ(seeds.above_answer.mismatches, 0) << seeds.above_answer.first;
  EXPECT_GT(seeds.raised, 0);
  // The corpus must reach the ordering the kernel's stop rule decides:
  // a fixed point found at the start, already past the deadline, is
  // reported, not treated as divergence.
  EXPECT_GT(jitter.past_deadline_fixed_points, 0);
  std::printf("ticks of 1/%lld us: %lld plain, %lld jitter, %lld mandatory "
              "analyses; %d responses on a period multiple; %lld walk "
              "solves, %lld seeds from above\n",
              static_cast<long long>(ticks_per_us),
              static_cast<long long>(plain.analyses),
              static_cast<long long>(jitter.analyses),
              static_cast<long long>(mandatory.analyses), landings,
              static_cast<long long>(walk.analyses),
              static_cast<long long>(seeds.raised));
}

// Two-task sets whose least fixed point is exactly k T_a, a multiple of
// the higher-priority period, for every term: plain (c_b = k (T_a -
// c_a)), jitter (the window w + J_a ends on k T_a) and mandatory jobs
// of an (m,k) task a.  Where the double sum lands a few ulps above k T_a
// only the release count's -kTimeEpsilon keeps the job released at that
// instant out; the family must contain such members at every resolution.
TEST_P(RtaOracle, ResponsesOnAPeriodMultiple) {
  const std::int64_t ticks_per_us = GetParam();
  Tally tallies[3];
  Tally walk;
  SeedTally seeds;
  int above[3] = {0, 0, 0};
  for (std::int64_t period_us = 1; period_us <= 12; ++period_us) {
    const std::int64_t period = period_us * ticks_per_us;
    for (int q = 0; q < 100; ++q) {
      const std::int64_t c_a = 1 + (period - 2) * q / 99;
      for (int k = 1; k <= 8; ++k) {
        for (const Term term :
             {Term::kPlain, Term::kJitter, Term::kMandatory}) {
          TickTask a;
          a.period = a.deadline = period;
          a.wcet = c_a;
          TickTask b;
          b.period = b.deadline = k * period;  // b also ends on its deadline.
          const std::int64_t landing = k * period;  // End of b's window for a.
          if (term == Term::kPlain) {
            b.wcet = k * (period - c_a);
          } else if (term == Term::kJitter) {
            a.jitter = (period - c_a) / 2;
            b.wcet = k * (period - c_a) - a.jitter;
          } else {
            a.m = 1 + q % 2;
            a.k = a.m + 1 + q % 3;
            b.wcet = k * period - mandatory_jobs(k, a.m, a.k) * c_a;
          }
          if (b.wcet < 1) continue;
          a.priority = 0;
          b.priority = 1;
          // Alternate which task comes first in index order.
          const std::size_t ib = k % 2 == 0 ? 1 : 0;
          const std::vector<TickTask> set =
              ib == 1 ? std::vector<TickTask>{a, b}
                      : std::vector<TickTask>{b, a};
          const auto where = [&] { return describe(set, ib, ticks_per_us); };
          const Exact exact = exact_response(set, ib, term);
          ASSERT_TRUE(exact.converged) << where();
          ASSERT_EQ(exact.w + a.jitter, landing) << where();
          const Rendered r = render(set, ticks_per_us);
          const auto index = static_cast<TaskIndex>(ib);
          const double want =
              recompute(r.tasks, ib, r.tasks[index].wcet, exact);
          const auto t = static_cast<int>(term);
          std::optional<Time> got;
          if (term == Term::kPlain) {
            got = response_time(r.tasks, index);
          } else if (term == Term::kJitter) {
            got = response_time_extended(r.tasks, index, r.extras);
          } else {
            got = weakly_hard::degraded_response_time(r.tasks, index);
          }
          tallies[t].check(got, exact, want, where);
          if (term == Term::kPlain) {
            for (const std::int64_t m : {1, 2, 3}) {
              check_walk(set, ticks_per_us, m, walk, seeds);
            }
          }
          // Would a count without the -kTimeEpsilon book job k + 1?
          const double window = want + r.extras.jitter[1 - ib];
          if (std::ceil(window / static_cast<double>(period_us)) > k) {
            ++above[t];
          }
        }
      }
    }
  }
  const char* labels[3] = {"plain", "jitter", "mandatory"};
  for (int t = 0; t < 3; ++t) {
    tallies[t].expect_clean(labels[t]);
    EXPECT_GT(above[t], 0) << "no " << labels[t]
                           << " member lands above its multiple";
  }
  walk.expect_clean("seed walks");
  EXPECT_EQ(seeds.above_answer.mismatches, 0) << seeds.above_answer.first;
  EXPECT_GT(seeds.raised, 0);
  std::printf("ticks of 1/%lld us: %lld/%lld/%lld family analyses; "
              "%d/%d/%d sums above the multiple\n",
              static_cast<long long>(ticks_per_us),
              static_cast<long long>(tallies[0].analyses),
              static_cast<long long>(tallies[1].analyses),
              static_cast<long long>(tallies[2].analyses), above[0],
              above[1], above[2]);
}

// Two-task sets {k above i} whose c_i, a few ticks of 10^-15 us, lies
// within the rounding of a sum near D_k: seed_from_above keeps c_i
// (the guard trips on every member), and IncrementalRta's walk matches
// the oracle.  An unguarded seed R_k = c_k changes answers: where
// c_k + c_i rounds to c_k and D_i < c_k, c_k is a fixed point of i's
// step that the solve from c_i never reaches (it gives up past D_i).
TEST(RtaOracleSeeds, TinyWcetTakesTheFallback) {
  constexpr std::int64_t kTicksPerUs = 1'000'000'000'000'000;  // 10^15.
  Tally walk;
  int unguarded_differs = 0;
  for (std::int64_t tens = 1; tens <= 12; ++tens) {
    const std::int64_t period_us = 10 * tens;
    for (int q = 1; q <= 99; ++q) {
      for (const std::int64_t c_i : {1, 3, 7, 15}) {
        for (const bool tight : {false, true}) {
          TickTask k;
          k.period = k.deadline = period_us * kTicksPerUs;
          k.wcet = period_us * q * (kTicksPerUs / 100);
          // D_i far (>= 1 us) from c_k + c_i either way, so that
          // kTimeEpsilon decides no verdict.
          const std::int64_t deadline_us =
              tight ? k.wcet / kTicksPerUs / 2 : period_us;
          if (deadline_us < 1) continue;
          TickTask i;
          i.period = i.deadline = deadline_us * kTicksPerUs;
          i.wcet = c_i;
          k.priority = 0;
          i.priority = 1;
          const std::size_t ii = q % 2 == 0 ? 1 : 0;
          const std::vector<TickTask> set =
              ii == 1 ? std::vector<TickTask>{k, i}
                      : std::vector<TickTask>{i, k};
          const auto where = [&] { return describe(set, ii, kTicksPerUs); };
          const Rendered r = render(set, kTicksPerUs);
          const auto index = static_cast<TaskIndex>(ii);
          const Task& low = r.tasks[index];
          const Task& high = r.tasks[static_cast<TaskIndex>(1 - ii)];
          const Time r_k = high.wcet;  // k alone: R_k = c_k.
          ASSERT_EQ(seed_from_above(low.wcet, r_k, low.wcet, high.deadline,
                                    set.size()),
                    low.wcet)
              << where();
          const Exact exact = exact_response(set, ii, Term::kPlain);
          const double want = recompute(r.tasks, ii, low.wcet, exact);
          const IncrementalRta rta(r.tasks);
          walk.check(rta.response_times()[ii], exact, want, where);
          if (response_time_from_seed(r.tasks, index, r_k) !=
              response_time_from_seed(r.tasks, index, 0.0)) {
            ++unguarded_differs;
          }
        }
      }
    }
  }
  walk.expect_clean("tiny c_i");
  EXPECT_GT(unguarded_differs, 0);
  std::printf("%lld tiny-c_i analyses; an unguarded seed changes %d\n",
              static_cast<long long>(walk.analyses), unguarded_differs);
}

INSTANTIATE_TEST_SUITE_P(Ticks, RtaOracle, ::testing::Values(10, 100, 1000),
                         [](const auto& info) {
                           return "per_us_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace lpfps::sched
