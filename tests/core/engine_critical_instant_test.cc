// First-job response times from the engine against the exact integer
// response-time analysis of tests/support/exact_rta.h.
//
// With zero phases every task is released at once, which under fixed
// priorities and constrained deadlines (D <= T) is the critical instant:
// the first job of each task meets the worst-case interference, so its
// response time is the fixed point of the response-time recurrence.
// The test draws sets the oracle finds schedulable, with whole-
// microsecond periods and deadlines and WCETs in ticks of 1, 1/8 or
// 1/64 us (dyadic, so every instant the engine computes is exact in
// double), and runs them under FPS with every job at its WCET.  For
// every task, completion minus release of instance 0 in the trace must
// equal the oracle's value exactly.  Each set runs through
// core::simulate and through one fleet::FleetEngine whose single lane
// rebinds from set to set.  The oracle shares no code with the engine
// or with sched::.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "fleet/fleet.h"
#include "power/processor.h"
#include "sched/task.h"
#include "sched/task_set.h"
#include "support/exact_rta.h"

namespace lpfps::core {
namespace {

using oracle::Draw;
using oracle::Exact;
using oracle::exact_response;
using oracle::Term;
using oracle::TickTask;

constexpr int kSetsPerResolution = 400;

struct Case {
  std::vector<TickTask> set;
  std::int64_t ticks_per_us = 1;
  std::vector<std::int64_t> response;  ///< Oracle value per task, ticks.
};

// 2-8 tasks, integer periods of 2-100 us, deadlines implicit or drawn
// in [1, T] us, WCETs of up to 2/n of the period, deadline-monotonic
// priorities except every fourth set, whose priorities are a random
// permutation.
std::vector<TickTask> draw_set(Draw& draw, std::int64_t ticks_per_us,
                               int index) {
  const auto n = static_cast<std::size_t>(draw.between(2, 8));
  std::vector<TickTask> set(n);
  for (TickTask& t : set) {
    const std::int64_t period_us = draw.between(2, 100);
    t.period = period_us * ticks_per_us;
    t.deadline =
        (draw.one_in(2) ? period_us : draw.between(1, period_us)) *
        ticks_per_us;
    t.wcet = draw.between(
        1, std::max<std::int64_t>(
               1, 2 * t.period / static_cast<std::int64_t>(n)));
  }
  oracle::assign_priorities(set, draw, /*shuffle=*/index % 4 == 3);
  return set;
}

// Draws sets until `count` are schedulable by the oracle, keeping each
// task's exact response.
std::vector<Case> schedulable_cases(std::int64_t ticks_per_us, int count) {
  Draw draw(0xc417u + static_cast<std::uint64_t>(ticks_per_us));
  std::vector<Case> cases;
  for (int index = 0; static_cast<int>(cases.size()) < count; ++index) {
    Case c{draw_set(draw, ticks_per_us, index), ticks_per_us, {}};
    bool schedulable = true;
    for (std::size_t i = 0; schedulable && i < c.set.size(); ++i) {
      const Exact exact = exact_response(c.set, i, Term::kPlain);
      schedulable = exact.converged && exact.w <= c.set[i].deadline;
      c.response.push_back(exact.w);
    }
    if (schedulable) cases.push_back(std::move(c));
  }
  return cases;
}

fleet::SimSpec spec_of(const Case& c) {
  fleet::SimSpec spec;
  std::int64_t max_period_us = 0;
  for (std::size_t i = 0; i < c.set.size(); ++i) {
    const TickTask& t = c.set[i];
    const double wcet =
        static_cast<double>(t.wcet) / static_cast<double>(c.ticks_per_us);
    std::string name = "t";
    name += std::to_string(i);
    sched::Task task =
        sched::make_task(std::move(name), t.period / c.ticks_per_us,
                         t.deadline / c.ticks_per_us, wcet, wcet);
    task.priority = t.priority;
    spec.tasks.add(task);
    max_period_us = std::max(max_period_us, t.period / c.ticks_per_us);
  }
  spec.processor = power::ProcessorConfig::arm8_default();
  spec.policy = SchedulerPolicy::fps();
  spec.exec_model = nullptr;  // Every job at its WCET.
  // Every first job completes by its deadline, within one period.
  spec.options.horizon = static_cast<Time>(2 * max_period_us);
  spec.options.record_trace = true;
  // A late first job shows up as a response mismatch, with the set.
  spec.options.throw_on_miss = false;
  return spec;
}

std::string describe(const Case& c) {
  std::ostringstream os;
  os << "{";
  for (const TickTask& t : c.set) {
    os << " (T=" << t.period << " D=" << t.deadline << " C=" << t.wcet
       << " p=" << t.priority << ")";
  }
  os << " } in ticks of 1/" << c.ticks_per_us << " us";
  return os.str();
}

// Mismatches between the first-job responses in `result` and the
// oracle; writes the first one into `first`.
int count_mismatches(const Case& c, const SimulationResult& result,
                     const char* path, std::string& first) {
  int mismatches = 0;
  const auto note = [&](const std::string& what) {
    if (mismatches++ == 0) first = std::string(path) + ": " + what;
  };
  if (!result.trace.has_value()) {
    note("no trace");
    return mismatches;
  }
  std::vector<bool> seen(c.set.size(), false);
  for (const sim::JobRecord& job : result.trace->jobs()) {
    if (job.instance != 0) continue;
    const auto i = static_cast<std::size_t>(job.task);
    seen[i] = true;
    const double want = static_cast<double>(c.response[i]) /
                        static_cast<double>(c.ticks_per_us);
    if (!job.finished || job.completion - job.release != want) {
      std::ostringstream os;
      os.precision(17);
      os << "task " << i << " first response "
         << job.completion - job.release << ", exact " << want << " in "
         << describe(c);
      note(os.str());
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (!seen[i]) note("task " + std::to_string(i) + " has no first job");
  }
  return mismatches;
}

class CriticalInstant : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(CriticalInstant, FirstJobResponseEqualsExactRta) {
  const std::vector<Case> cases =
      schedulable_cases(GetParam(), kSetsPerResolution);
  std::vector<fleet::SimSpec> specs;
  for (const Case& c : cases) specs.push_back(spec_of(c));

  // The corpus must reach the cases the recurrence exists for: first
  // jobs delayed by higher-priority work, and responses landing exactly
  // on a higher-priority release.
  int interfered = 0;
  int landings = 0;
  for (const Case& c : cases) {
    for (std::size_t i = 0; i < c.set.size(); ++i) {
      if (c.response[i] == c.set[i].wcet) continue;
      ++interfered;
      for (const TickTask& other : c.set) {
        if (other.priority < c.set[i].priority &&
            c.response[i] % other.period == 0) {
          ++landings;
          break;
        }
      }
    }
  }
  EXPECT_GT(interfered, 0);
  EXPECT_GT(landings, 0);

  int direct_mismatches = 0;
  std::string direct_first;
  for (std::size_t s = 0; s < cases.size(); ++s) {
    const fleet::SimSpec& spec = specs[s];
    direct_mismatches += count_mismatches(
        cases[s],
        simulate(spec.tasks, spec.processor, spec.policy, spec.exec_model,
                 spec.options),
        "core::simulate", direct_first);
  }
  EXPECT_EQ(direct_mismatches, 0) << direct_first;

  fleet::FleetEngine engine;
  for (const fleet::SimSpec& spec : specs) engine.add(spec);
  const std::vector<SimulationResult> results = engine.run_all();
  ASSERT_EQ(results.size(), cases.size());
  EXPECT_EQ(engine.stats().lane_rebinds, cases.size() - 1);
  int fleet_mismatches = 0;
  std::string fleet_first;
  for (std::size_t s = 0; s < cases.size(); ++s) {
    fleet_mismatches +=
        count_mismatches(cases[s], results[s], "fleet lane", fleet_first);
  }
  EXPECT_EQ(fleet_mismatches, 0) << fleet_first;

  std::printf("ticks of 1/%lld us: %zu sets, %d first jobs delayed, %d "
              "ending on a higher-priority release\n",
              static_cast<long long>(GetParam()), cases.size(), interfered,
              landings);
}

INSTANTIATE_TEST_SUITE_P(DyadicTicks, CriticalInstant,
                         ::testing::Values(1, 8, 64));

}  // namespace
}  // namespace lpfps::core
