// admission/service.h — admit/reject semantics, rollback, the
// minimum-safe-frequency answer checked against brute force, and the
// saturating counters that keep month-long services from wrapping.
#include "admission/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "admission/workload.h"
#include "common/float_compare.h"
#include "io/admission_io.h"
#include "power/frequency.h"
#include "sched/analysis.h"
#include "sched/task.h"
#include "wcet/scaling.h"

namespace lpfps::admission {
namespace {

sched::Task task(const char* name, std::int64_t period, Work wcet,
                 sched::Priority priority) {
  sched::Task t = sched::make_task(name, period, wcet);
  t.priority = priority;
  return t;
}

Request add(sched::Task t) {
  Request r;
  r.kind = RequestKind::kAdd;
  r.task = std::move(t);
  return r;
}

Request remove(TaskIndex index) {
  Request r;
  r.kind = RequestKind::kRemove;
  r.index = index;
  return r;
}

Request mutate(TaskIndex index, sched::Task t) {
  Request r;
  r.kind = RequestKind::kMutate;
  r.index = index;
  r.task = std::move(t);
  return r;
}

ServiceConfig small_table_config() {
  ServiceConfig config;
  config.table = power::FrequencyTable::from_levels({25, 50, 75, 100});
  return config;
}

/// Reference answer: scan levels from the bottom, first feasible wins.
int brute_force_min_level(const sched::TaskSet& tasks,
                          const ServiceConfig& config) {
  const auto& levels = config.table.levels();
  for (int level = 0; level < static_cast<int>(levels.size()); ++level) {
    const auto scaled = wcet::scaled_task_set(
        tasks, config.scaling,
        config.table.ratio_of(levels[static_cast<std::size_t>(level)]));
    if (!scaled.has_value()) continue;
    bool feasible = true;
    for (TaskIndex i = 0; i < static_cast<TaskIndex>(scaled->size()); ++i) {
      const auto r = sched::response_time_from_seed(*scaled, i,
                                                    (*scaled)[i].wcet);
      if (!r.has_value() ||
          definitely_greater(*r, static_cast<double>((*scaled)[i].deadline))) {
        feasible = false;
        break;
      }
    }
    if (feasible) return level;
  }
  return static_cast<int>(levels.size()) - 1;
}

/// Reference for the sensitivity answer: every WCET stretched to
/// `level` and further scaled by `scale`, then the exact RTA — the
/// materialized mirror of one whole-set headroom probe.
bool reference_headroom_feasible(const sched::TaskSet& tasks,
                                 const ServiceConfig& config, int level,
                                 double scale) {
  const MegaHertz f = config.table.levels()[static_cast<std::size_t>(level)];
  const double stretch = config.scaling.stretch(config.table.ratio_of(f));
  sched::TaskSet scaled;
  for (const sched::Task& t : tasks.tasks()) {
    sched::Task s = t;
    s.wcet = t.wcet * stretch * scale;
    if (s.wcet > static_cast<double>(s.deadline)) return false;
    s.bcet = std::min(s.bcet, s.wcet);
    scaled.add(s);
  }
  for (TaskIndex i = 0; i < static_cast<TaskIndex>(scaled.size()); ++i) {
    const auto r = sched::response_time_from_seed(scaled, i, scaled[i].wcet);
    if (!r.has_value() ||
        definitely_greater(*r, static_cast<double>(scaled[i].deadline))) {
      return false;
    }
  }
  return true;
}

sched::Task task_with_deadline(const char* name, std::int64_t period,
                               std::int64_t deadline, Work wcet,
                               sched::Priority priority) {
  sched::Task t = task(name, period, wcet, priority);
  t.deadline = deadline;
  return t;
}

/// Replays `requests` through the incremental arm and the reference arm
/// (from scratch, whole-set headroom probes), asserting every decision
/// field bitwise equal.  Returns the incremental arm's decisions, and in
/// `searches` how many per-task headroom searches each request ran.
std::vector<Decision> replay_against_reference(
    const sched::TaskSet& initial, const std::vector<Request>& requests,
    const ServiceConfig& config, std::vector<std::uint64_t>* searches) {
  ServiceConfig reference_config = config;
  reference_config.incremental = false;
  AdmissionService fast(initial, config);
  AdmissionService reference(initial, reference_config);
  std::vector<Decision> decisions;
  for (const Request& request : requests) {
    const std::uint64_t before = fast.stats().headroom_searches;
    const Decision df = fast.handle(request);
    const Decision dr = reference.handle(request);
    EXPECT_EQ(df.admitted, dr.admitted);
    EXPECT_EQ(df.min_level, dr.min_level);
    EXPECT_EQ(df.min_safe_mhz, dr.min_safe_mhz);    // Bitwise.
    EXPECT_EQ(df.wcet_headroom, dr.wcet_headroom);  // Bitwise.
    EXPECT_EQ(df.fingerprint, dr.fingerprint);
    searches->push_back(fast.stats().headroom_searches - before);
    decisions.push_back(df);
  }
  EXPECT_EQ(reference.stats().headroom_searches, 0u);  // Whole-set only.
  return decisions;
}

TEST(AdmissionService, AdmitsFeasibleAddAndReportsMinFrequency) {
  AdmissionService service(sched::TaskSet{}, small_table_config());
  const Decision d = service.handle(add(task("a", 100, 10.0, 0)));
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.kind, RequestKind::kAdd);
  EXPECT_EQ(d.task_count, 1);
  // U = 0.1: even 25 MHz (ideal stretch 4x -> WCET 40 <= D 100) works.
  EXPECT_EQ(d.min_level, 0);
  EXPECT_DOUBLE_EQ(d.min_safe_mhz, 25.0);
  EXPECT_DOUBLE_EQ(d.min_safe_ratio, 0.25);
  EXPECT_EQ(service.fingerprint(), d.fingerprint);
}

TEST(AdmissionService, RejectRollsBackEveryObservableState) {
  AdmissionService service(sched::TaskSet{}, small_table_config());
  service.handle(add(task("a", 100, 60.0, 0)));
  const std::uint64_t fp_before = service.fingerprint();
  const auto r_before = service.response_times();

  // 60/100 + 50/100 > 1: unschedulable even at f_max.
  const Decision d = service.handle(add(task("b", 100, 50.0, 1)));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.min_level, -1);
  EXPECT_DOUBLE_EQ(d.min_safe_mhz, 0.0);
  EXPECT_EQ(d.task_count, 1);  // Still just "a".
  EXPECT_NE(d.fingerprint, fp_before);  // The *candidate's* fingerprint.
  EXPECT_EQ(service.fingerprint(), fp_before);
  EXPECT_EQ(service.tasks().size(), 1u);
  ASSERT_EQ(service.response_times().size(), r_before.size());
  EXPECT_EQ(service.response_times()[0], r_before[0]);
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST(AdmissionService, RemovalsAreAlwaysAdmitted) {
  AdmissionService service(sched::TaskSet{}, small_table_config());
  service.handle(add(task("a", 100, 40.0, 0)));
  service.handle(add(task("b", 200, 80.0, 1)));
  const Decision d = service.handle(remove(0));
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.kind, RequestKind::kRemove);
  EXPECT_EQ(d.task_count, 1);
  EXPECT_EQ(service.tasks()[0].name, "b");
}

TEST(AdmissionService, PriorityClashIsRejectedWithoutAnalysis) {
  AdmissionService service(sched::TaskSet{}, small_table_config());
  service.handle(add(task("a", 100, 10.0, 0)));
  const Decision d = service.handle(add(task("b", 200, 10.0, 0)));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.tasks_reanalyzed, 0);
  EXPECT_EQ(service.tasks().size(), 1u);
}

TEST(AdmissionService, MutateAdmitsAndRejects) {
  AdmissionService service(sched::TaskSet{}, small_table_config());
  service.handle(add(task("a", 100, 40.0, 0)));
  // Growing to 90 still fits (R = 90 <= 100)...
  EXPECT_TRUE(service.handle(mutate(0, task("a", 100, 90.0, 0))).admitted);
  EXPECT_DOUBLE_EQ(service.tasks()[0].wcet, 90.0);
  // ...but a second task then cannot.
  EXPECT_FALSE(service.handle(add(task("b", 100, 20.0, 1))).admitted);
  // Shrinking back always admits.
  EXPECT_TRUE(service.handle(mutate(0, task("a", 100, 10.0, 0))).admitted);
}

TEST(AdmissionService, MinLevelMatchesBruteForceOverChurn) {
  // Both search strategies (hinted walk and binary search), against the
  // linear-scan reference, across a random churn run on the full
  // ARM8-like 93-level table.
  for (const bool incremental : {true, false}) {
    ServiceConfig config;
    config.incremental = incremental;
    config.scaling = wcet::FrequencyScalingModel{0.3};
    ChurnConfig churn;
    churn.requests = 80;
    const ChurnStream stream = make_churn_stream(churn, 2026);
    AdmissionService service(stream.initial, config);
    int checked = 0;
    for (const ChurnOp& op : stream.ops) {
      const auto request = resolve(op, service.tasks());
      if (!request.has_value()) continue;
      const Decision d = service.handle(*request);
      if (!d.admitted) continue;
      ASSERT_EQ(d.min_level, brute_force_min_level(service.tasks(), config))
          << "incremental=" << incremental;
      ++checked;
    }
    EXPECT_GT(checked, 20) << "churn run admitted too few requests";
  }
}

TEST(AdmissionService, MemoryBoundTasksNeedLowerFrequency) {
  // beta > 0 stretches WCET less when slowing down, so the minimum safe
  // level can only be <= the ideal model's.
  ServiceConfig ideal = small_table_config();
  ServiceConfig memory_bound = small_table_config();
  memory_bound.scaling = wcet::FrequencyScalingModel{0.8};

  AdmissionService a(sched::TaskSet{}, ideal);
  AdmissionService b(sched::TaskSet{}, memory_bound);
  const Decision da = a.handle(add(task("t", 100, 60.0, 0)));
  const Decision db = b.handle(add(task("t", 100, 60.0, 0)));
  ASSERT_TRUE(da.admitted);
  ASSERT_TRUE(db.admitted);
  // Ideal: 75 MHz stretches 60 -> 80 <= 100, 50 MHz -> 120 > 100.
  EXPECT_EQ(da.min_level, 2);
  // beta=0.8 at 25 MHz: stretch = 1 + 0.2*3 = 1.6 -> 96 <= 100.
  EXPECT_EQ(db.min_level, 0);
  EXPECT_LE(db.min_level, da.min_level);
}

TEST(AdmissionService, RevisitedSetReplaysDecisionBitwise) {
  // add a, add b, remove b, add b: the second add(b) revisits the set
  // the first one decided and must reproduce its CSV row and
  // response-time vector bit for bit, on both arms.
  const sched::Task a = task("a", 100, 30.0, 0);
  const sched::Task b = task("b", 400, 100.0, 1);
  std::vector<std::string> rows;
  for (const bool incremental : {true, false}) {
    ServiceConfig config = small_table_config();
    config.incremental = incremental;
    AdmissionService service(sched::TaskSet{}, config);
    ASSERT_TRUE(service.handle(add(a)).admitted);
    const Decision first = service.handle(add(b));
    ASSERT_TRUE(first.admitted);
    const std::vector<std::optional<Time>> first_r = service.response_times();
    ASSERT_TRUE(service.handle(remove(1)).admitted);
    const Decision again = service.handle(add(b));
    EXPECT_EQ(io::admission_csv_row(again), io::admission_csv_row(first))
        << "incremental=" << incremental;
    ASSERT_EQ(service.response_times().size(), first_r.size());
    for (std::size_t i = 0; i < first_r.size(); ++i) {
      EXPECT_EQ(service.response_times()[i], first_r[i])  // Bitwise.
          << "incremental=" << incremental << " task " << i;
    }
    rows.push_back(io::admission_csv_row(again));
  }
  EXPECT_EQ(rows[0], rows[1]);  // The arms agree too.
}

TEST(AdmissionService, StationaryChurnAnswersWithoutSearching) {
  // Measured-WCET-revision churn (every mutate a small relative scale)
  // leaves the minimum-frequency boundary where it was almost every
  // request: the incremental arm must take the stationary fast path and
  // probe far fewer levels than the binary-searching reference — with
  // byte-identical decisions.
  ChurnConfig churn;
  churn.requests = 120;
  churn.initial_tasks = 8;
  churn.initial_utilization = 0.55;
  churn.add_fraction = 0.02;
  churn.remove_fraction = 0.02;
  churn.relative_mutates = 1.0;
  churn.deadline_monotonic_hints = true;
  const ChurnStream stream = make_churn_stream(churn, 99);

  ServiceConfig fast_config;
  fast_config.scaling = wcet::FrequencyScalingModel{0.3};
  ServiceConfig reference_config = fast_config;
  reference_config.incremental = false;

  AdmissionService fast(stream.initial, fast_config);
  AdmissionService reference(stream.initial, reference_config);
  for (const ChurnOp& op : stream.ops) {
    const auto request = resolve(op, fast.tasks());
    if (!request.has_value()) continue;
    const Decision df = fast.handle(*request);
    const Decision dr = reference.handle(*request);
    ASSERT_EQ(df.admitted, dr.admitted);
    ASSERT_EQ(df.min_level, dr.min_level);
    ASSERT_EQ(df.min_safe_mhz, dr.min_safe_mhz);        // Bitwise.
    ASSERT_EQ(df.wcet_headroom, dr.wcet_headroom);      // Bitwise.
    ASSERT_EQ(df.fingerprint, dr.fingerprint);
  }
  EXPECT_GT(fast.stats().stationary_hits, 0u);
  EXPECT_LT(fast.stats().levels_probed, reference.stats().levels_probed);
}

TEST(AdmissionService, HeadroomBracketsTheFeasibilityBoundary) {
  // For every admitted request, the reported headroom must be feasible
  // and a hair above it infeasible (the probe schedule's final bracket
  // is narrower than 0.1%), against the materialized reference.
  ServiceConfig config;
  config.scaling = wcet::FrequencyScalingModel{0.3};
  ChurnConfig churn;
  churn.requests = 80;
  const ChurnStream stream = make_churn_stream(churn, 515);
  AdmissionService service(stream.initial, config);
  int checked = 0;
  for (const ChurnOp& op : stream.ops) {
    const auto request = resolve(op, service.tasks());
    if (!request.has_value()) continue;
    const Decision d = service.handle(*request);
    if (!d.admitted) continue;
    ASSERT_GE(d.wcet_headroom, 1.0);
    if (d.wcet_headroom >= 1048576.0) continue;  // Capped: no boundary.
    EXPECT_TRUE(reference_headroom_feasible(service.tasks(), config,
                                            d.min_level, d.wcet_headroom));
    EXPECT_FALSE(reference_headroom_feasible(
        service.tasks(), config, d.min_level, d.wcet_headroom * 1.001));
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

TEST(AdmissionService, HeadroomBeyondTheFirstOctaveAndAtTheCap) {
  // The churn workloads never leave [1, 2); these sets gallop further.
  // At 25 MHz (stretch 4) a C = 0.1, T = D = 10^6 task runs 0.4, so
  // even 2^20 times that (419,430.4) fits: one or two such tasks report
  // the cap, a third pushes the sum past D and the answer into the top
  // octave.  A C = 1, T = D = 100 task below the two tiny ones responds
  // in 4.8 at 25 MHz, headroom about 20.8 — the [16, 32) octave, five
  // gallop steps up; at C = 3 it responds in 12.8, about 7.8.
  const std::vector<Request> requests = {
      add(task("tiny0", 1'000'000, 0.1, 0)),
      add(task("tiny1", 1'000'000, 0.1, 1)),
      add(task("tiny2", 1'000'000, 0.1, 2)),
      remove(2),
      add(task("short", 100, 1.0, 3)),
      mutate(2, task("short", 100, 3.0, 3)),
  };
  std::vector<std::uint64_t> searches;
  const std::vector<Decision> d = replay_against_reference(
      sched::TaskSet{}, requests, small_table_config(), &searches);
  ASSERT_EQ(d.size(), requests.size());
  for (const Decision& decision : d) {
    ASSERT_TRUE(decision.admitted);
    EXPECT_EQ(decision.min_level, 0);
  }
  EXPECT_EQ(d[0].wcet_headroom, 1048576.0);
  EXPECT_EQ(d[1].wcet_headroom, 1048576.0);
  EXPECT_GE(d[2].wcet_headroom, 524288.0);
  EXPECT_LT(d[2].wcet_headroom, 1048576.0);
  EXPECT_EQ(d[3].wcet_headroom, 1048576.0);
  EXPECT_GE(d[4].wcet_headroom, 16.0);
  EXPECT_LT(d[4].wcet_headroom, 32.0);
  EXPECT_GE(d[5].wcet_headroom, 4.0);
  EXPECT_LT(d[5].wcet_headroom, 8.0);
}

TEST(AdmissionService, HeadroomSearchesAgainWhenTheBindingTaskChanges) {
  // High-priority tasks with tight constrained deadlines bind, not the
  // lowest-priority one.  At the granted 50 MHz (stretch 2) "a"
  // tolerates 80s <= 100 (s <= 1.25), "b" (40 + 50) * 2s = 180s <= 200
  // (s <= 1.111), and "slack" a scale in [4, 8).
  sched::TaskSet initial;
  initial.add(task_with_deadline("a", 1000, 100, 40.0, 0));
  initial.add(task_with_deadline("b", 1000, 200, 50.0, 1));
  initial.add(task("slack", 10'000, 100.0, 2));
  const std::vector<Request> requests = {
      // No previous answer: "slack" (lowest priority) is searched
      // first, the scan finds "a" failing at its answer, then "b".
      mutate(2, task("slack", 10'000, 110.0, 2)),
      // Binding task "b" removed: its priority is gone, the candidate
      // falls back to "slack", and the scan finds "a" binding.
      remove(1),
      // "a" bound the previous answer; the scan finds "b" below it.
      add(task_with_deadline("b", 1000, 200, 50.0, 1)),
      // A mutate makes "a" binding again (80s <= 85) while the previous
      // answer was set by "b".
      mutate(0, task_with_deadline("a", 1000, 85, 40.0, 0)),
  };
  std::vector<std::uint64_t> searches;
  const std::vector<Decision> d = replay_against_reference(
      initial, requests, small_table_config(), &searches);
  ASSERT_EQ(d.size(), requests.size());
  for (const Decision& decision : d) {
    ASSERT_TRUE(decision.admitted);
    EXPECT_EQ(decision.min_level, 1);
  }
  // The largest lattice point 1 + k / 4096 with 180s <= 200: k = 455.
  const double b_bound = 1.0 + 455.0 / 4096.0;
  EXPECT_EQ(searches[0], 3u);  // "slack", then "a", then "b".
  EXPECT_EQ(d[0].wcet_headroom, b_bound);
  EXPECT_EQ(searches[1], 2u);  // Binding task removed.
  EXPECT_EQ(d[1].wcet_headroom, 1.25);
  EXPECT_EQ(searches[2], 2u);  // "a" first, then "b" below it.
  EXPECT_EQ(d[2].wcet_headroom, b_bound);
  EXPECT_EQ(searches[3], 2u);  // "b" first, then the mutated "a".
  EXPECT_EQ(d[3].wcet_headroom, 1.0625);
}

TEST(AdmissionService, HeadroomCarriesNoResponseAcrossASearch) {
  // At one level (stretch 1) "lo" is searched first, to a scale near 7.
  // There the bound clears "p" and "w" ("w" records 146), and "x" fails
  // (its WCET alone, 73, overruns 60), so "x" is searched: 40s <= 60
  // gives 1.5.  "y" is then checked at 1.5 (R = 67.5 <= 75; the bound,
  // 79.7, does not clear it) from "x"'s response there, 60.  A seed
  // carried from "w" at the old scale, 146, would count two jobs of "p"
  // (82.5 > 75) and fail "y", whose own headroom is 1.67.
  ServiceConfig config;
  config.table = power::FrequencyTable::from_levels({100});
  sched::TaskSet initial;
  initial.add(task("p", 100, 10.0, 0));
  initial.add(task("w", 1000, 20.0, 1));
  initial.add(task_with_deadline("x", 1000, 60, 10.0, 2));
  initial.add(task_with_deadline("y", 1000, 75, 5.0, 3));
  initial.add(task("lo", 100'000, 1.0, 4));
  std::vector<std::uint64_t> searches;
  const std::vector<Decision> d = replay_against_reference(
      initial, {mutate(4, task("lo", 100'000, 1.0, 4))}, config, &searches);
  ASSERT_EQ(d.size(), 1u);
  ASSERT_TRUE(d[0].admitted);
  EXPECT_EQ(d[0].wcet_headroom, 1.5);
  EXPECT_EQ(searches[0], 2u);  // "lo", then "x".
}

TEST(AdmissionService, HeadroomSolvesFewerTasksThanWholeSetProbes) {
  // Per-task headroom: one candidate search plus one check per other
  // task, against ~13 whole-set probes on the reference arm — with
  // bitwise-equal answers.  Mirrors the levels_probed assertion above.
  ChurnConfig churn;
  churn.requests = 120;
  churn.initial_tasks = 20;
  churn.initial_utilization = 0.5;
  churn.task_utilization_max = 0.08;
  const ChurnStream stream = make_churn_stream(churn, 4242);

  ServiceConfig fast_config;
  fast_config.scaling = wcet::FrequencyScalingModel{0.3};
  ServiceConfig reference_config = fast_config;
  reference_config.incremental = false;
  AdmissionService fast(stream.initial, fast_config);
  AdmissionService reference(stream.initial, reference_config);
  int admitted = 0;
  for (const ChurnOp& op : stream.ops) {
    const auto request = resolve(op, fast.tasks());
    if (!request.has_value()) continue;
    const Decision df = fast.handle(*request);
    const Decision dr = reference.handle(*request);
    ASSERT_EQ(df.admitted, dr.admitted);
    ASSERT_EQ(df.min_level, dr.min_level);
    ASSERT_EQ(df.wcet_headroom, dr.wcet_headroom);  // Bitwise.
    ASSERT_EQ(df.fingerprint, dr.fingerprint);
    admitted += df.admitted ? 1 : 0;
  }
  EXPECT_GT(admitted, 20);
  EXPECT_GE(fast.stats().headroom_searches,
            static_cast<std::uint64_t>(admitted));
  EXPECT_LT(fast.stats().headroom_probes, reference.stats().headroom_probes);
}

TEST(AdmissionService, SensitivityOffReportsZeroHeadroom) {
  ServiceConfig config = small_table_config();
  config.sensitivity = false;
  AdmissionService service(sched::TaskSet{}, config);
  const Decision d = service.handle(add(task("a", 100, 10.0, 0)));
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.wcet_headroom, 0.0);
  EXPECT_EQ(service.stats().headroom_probes, 0u);
}

TEST(AdmissionService, RequiresDiscreteTableAndSchedulableInitial) {
  ServiceConfig continuous;
  continuous.table = power::FrequencyTable::continuous(8, 100);
  EXPECT_THROW(AdmissionService(sched::TaskSet{}, continuous),
               std::logic_error);

  sched::TaskSet overload;
  overload.add(task("x", 100, 90.0, 0));
  overload.add(task("y", 100, 90.0, 1));
  EXPECT_THROW(AdmissionService(std::move(overload), small_table_config()),
               std::logic_error);
}

TEST(AdmissionService, CanonicalKeyIgnoresNameBcetPhase) {
  sched::TaskSet s1, s2;
  sched::Task t1 = task("alpha", 100, 10.0, 0);
  sched::Task t2 = task("beta", 100, 10.0, 0);
  t2.bcet = 5.0;
  t2.phase = 7;
  s1.add(t1);
  s2.add(t2);
  EXPECT_EQ(AdmissionService::canonical_key(s1),
            AdmissionService::canonical_key(s2));
  sched::TaskSet s3;
  s3.add(task("alpha", 100, 10.5, 0));  // WCET differs -> key differs.
  EXPECT_NE(AdmissionService::canonical_key(s1),
            AdmissionService::canonical_key(s3));
}

TEST(SaturatingCounter, IncrementsSaturateAtMax) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t c = kMax - 2;
  saturating_increment(c);
  EXPECT_EQ(c, kMax - 1);
  saturating_increment(c);
  EXPECT_EQ(c, kMax);
  saturating_increment(c);  // Must stick, not wrap to 0.
  EXPECT_EQ(c, kMax);

  std::uint64_t d = kMax - 10;
  saturating_add(d, 7);
  EXPECT_EQ(d, kMax - 3);
  saturating_add(d, 1000);
  EXPECT_EQ(d, kMax);
  saturating_add(d, 1);
  EXPECT_EQ(d, kMax);
}

}  // namespace
}  // namespace lpfps::admission
