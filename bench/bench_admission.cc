// Admission-control throughput and latency baseline.
//
// Drives the admission service (docs/ADMISSION.md) with random churn
// workloads on UUniFast task sets and reports admissions/sec plus
// per-request latency percentiles, for two analysis arms:
//
//   incremental  seeded RTA resumes + hinted frequency walk + per-task
//                headroom + closed-form bound (the production config)
//   scratch      from-scratch RTA, binary-search frequency, whole-set
//                headroom probes — the reference arm
//
// Both arms produce bit-identical decision streams (the differential
// suite's contract), so the events/sec columns compare identical work.
// The bench itself re-verifies that equivalence on every run — each
// churn point's decision digest is computed per arm and any mismatch
// aborts — and writes the verification record to AUDIT_admission.json,
// with the RTA accounting counters in the meta (counters are excluded
// from decision CSV rows by convention; this is where they surface
// instead).
//
// A third section runs batches of independent sessions through the
// runner's thread pool (admission/pipeline.h) at 1 and N workers.
// Two further sections follow:
//
//   stationary-churn   WCET-revision churn at scales {40, 80} (plus a
//                      200-task point under LPFPS_HORIZON_SCALE >= 2)
//                      where the stationary fast path answers most
//                      requests in <= 2 probes; geomean speedup in the
//                      meta as `speedup_stationary_vs_scratch`.  Runs
//                      with sensitivity off so the gated ratio isolates
//                      the boundary-search reuse (the incremental arm's
//                      per-task headroom would add its own, separate
//                      gain to it)
//   multicore-churn    4-core partitioned admission, incremental vs
//                      from-scratch per-core engines, equal digests
//
// Emits BENCH_admission.json; CI's perf-smoke job diffs events/sec and
// latency_p99_us against bench/baseline_admission.json (>25% throughput
// drop or p99 growth fails) and asserts the incremental arm sustains
// >= 4.1x the scratch arm's admissions/sec and the stationary regime
// >= 6.5x.  The speedups are also recorded in the meta as
// `speedup_incremental_vs_scratch` / `speedup_stationary_vs_scratch`,
// and the task solves the closed-form response-time bound skipped
// (`clears/req`, 0 on the scratch arm) ride along in stdout, the bench
// points, and the meta.
//
// Timing methodology matches bench_kernel_throughput: each point sizes
// an adaptive repetition count to fill ~kMinWall seconds.  Latency
// percentiles pool per-request samples across those repetitions, so
// p99 rests on thousands of samples, not the tail of one 512-request
// pass.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "admission/pipeline.h"
#include "admission/service.h"
#include "admission/workload.h"
#include "core/fingerprint.h"
#include "io/admission_io.h"
#include "io/bench_json.h"
#include "runner/runner.h"

namespace {

using namespace lpfps;
using admission::AdmissionService;
using admission::ChurnConfig;
using admission::ChurnOp;
using admission::ChurnStream;
using admission::Decision;
using admission::Request;
using admission::ServiceConfig;

constexpr double kMinWall = 0.1;  ///< Seconds of timed work per point.
constexpr std::uint64_t kSeed = 11;

struct Arm {
  const char* name;
  bool incremental;
};

constexpr Arm kArms[] = {
    {"incremental", true},
    {"scratch", false},
};

ServiceConfig config_for(const Arm& arm) {
  ServiceConfig config;
  config.incremental = arm.incremental;
  // A mildly memory-bound platform: the non-ideal model is the default
  // here precisely so the bench exercises it continuously.
  config.scaling = wcet::FrequencyScalingModel{0.3};
  return config;
}

/// One full replay of a churn stream through a fresh service.
/// Returns requests handled.  Every handle() call is individually
/// wall-timed: `busy_seconds` (when non-null) accumulates time spent
/// inside the service only — the throughput metric deliberately
/// excludes workload resolution and the audit's CSV digest, which cost
/// the same in every arm and would otherwise dilute the comparison —
/// and `latencies` (when non-null) collects one microsecond sample per
/// request.  `digest` (when non-null) gets the FNV chain over the
/// decision CSV rows; `rta`/`stats` the final counters.
std::int64_t replay(const ChurnStream& stream, const ServiceConfig& config,
                    double* busy_seconds, std::uint64_t* digest,
                    sched::IncrementalRta::Stats* rta,
                    std::vector<double>* latencies,
                    admission::ServiceStats* stats = nullptr) {
  AdmissionService service(stream.initial, config);
  std::int64_t handled = 0;
  std::uint64_t hash = core::kFnvOffsetBasis;
  double busy = 0.0;
  for (const ChurnOp& op : stream.ops) {
    const auto request = admission::resolve(op, service.tasks());
    if (!request.has_value()) continue;
    const io::WallTimer timer;
    const Decision d = service.handle(*request);
    const double seconds = timer.seconds();
    busy += seconds;
    if (latencies != nullptr) latencies->push_back(seconds * 1e6);
    if (digest != nullptr) {
      hash = core::fnv1a(io::admission_csv_row(d), hash);
    }
    ++handled;
  }
  if (busy_seconds != nullptr) *busy_seconds = busy;
  if (digest != nullptr) *digest = hash;
  if (rta != nullptr) *rta = service.rta_stats();
  if (stats != nullptr) *stats = service.stats();
  return handled;
}

/// count / requests, 0 when idle.  With the bound's clears: task solves
/// skipped per request (0 on the scratch arm, which runs no bound).
double per_request(std::uint64_t count, std::uint64_t requests) {
  return requests > 0
             ? static_cast<double>(count) / static_cast<double>(requests)
             : 0.0;
}

struct Throughput {
  std::int64_t events_per_run = 0;
  int reps = 1;
  double wall_seconds = 0.0;  ///< Accumulated over all reps.
  double best_seconds = 0.0;  ///< Fastest single rep.

  std::int64_t total_events() const { return events_per_run * reps; }
  /// Rate of the fastest rep.  Scheduler preemptions and other host
  /// noise only ever add time, so the minimum over reps is the most
  /// stable estimator of the true per-request cost — the property the
  /// CI speedup gate needs.
  double events_per_sec() const {
    return best_seconds > 0.0 ? events_per_run / best_seconds : 0.0;
  }
};

/// `run_once` returns {events, seconds-of-measured-work}; reps adapt
/// until the accumulated measured time supports a stable rate, with at
/// least three so best_seconds is a genuine minimum.
template <typename Fn>
Throughput measure(Fn run_once) {
  Throughput t;
  const auto [events, once] = run_once();
  t.events_per_run = events;
  t.reps = std::max(
      3, static_cast<int>(std::ceil(kMinWall / (once > 1e-6 ? once : 1e-6))));
  double total = 0.0;
  double best = 0.0;
  for (int i = 0; i < t.reps; ++i) {
    const auto [check, seconds] = run_once();
    if (check != t.events_per_run) {
      std::fprintf(stderr, "non-deterministic request count\n");
      std::abort();
    }
    total += seconds;
    if (best == 0.0 || seconds < best) best = seconds;
  }
  t.wall_seconds = total;
  t.best_seconds = best;
  return t;
}

/// Nearest-rank percentile of an unsorted sample set, in place.
double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(samples.size())));
  return samples[rank];
}

ChurnConfig churn_for(int initial_tasks) {
  ChurnConfig churn;
  churn.initial_tasks = initial_tasks;
  churn.initial_utilization = 0.45;
  churn.requests = 512;
  // Arriving tasks are sized like resident ones, so one request moves
  // total utilization by ~1/n of capacity.  This keeps the stream in
  // the admission-control regime the service targets (a stable set
  // under small churn, boundary drifting a few levels per request)
  // instead of collapsing to a handful of machine-sized tasks.
  churn.task_utilization_min = 0.2 / initial_tasks;
  churn.task_utilization_max = 1.5 / initial_tasks;
  // Deadline-monotonic-ish hints keep adds admissible on priority
  // grounds, so rejections come from real capacity pressure and the
  // set stays near its nominal size.
  churn.deadline_monotonic_hints = true;
  return churn;
}

/// The stationary regime: a stable resident set whose measured WCETs
/// are continually revised by a few percent, with rare arrivals and
/// departures.  This is the deployed-service steady state the
/// cross-request fast path targets — the boundary level barely moves,
/// so the incremental arm answers most requests with <= 2 verified
/// probes while the reference still binary-searches the full table.
ChurnConfig stationary_churn_for(int initial_tasks) {
  ChurnConfig churn = churn_for(initial_tasks);
  churn.initial_utilization = 0.55;
  churn.add_fraction = 0.02;
  churn.remove_fraction = 0.02;
  churn.relative_mutates = 1.0;
  churn.mutate_scale_min = 0.97;
  churn.mutate_scale_max = 1.03;
  return churn;
}

}  // namespace

int main() {
  const io::WallTimer total;
  io::BenchJsonWriter json("admission");
  io::BenchJsonWriter audit("admission", "AUDIT_");
  json.meta()
      .set("seed", kSeed)
      .set("requests_per_stream", 512)
      .set("min_wall_seconds", kMinWall)
      .set("memory_bound_fraction", 0.3);

  std::printf("%-10s %-14s %-22s %9s %5s %8s %12s %9s %9s %9s\n", "section",
              "name", "policy", "requests", "reps", "wall_s", "adm/sec",
              "p50_us", "p95_us", "p99_us");

  std::uint64_t audit_mismatches = 0;
  std::int64_t audit_decisions = 0;
  sched::IncrementalRta::Stats meta_rta;
  double inc_eps = 0.0;
  double scratch_eps = 0.0;
  double speedup_product = 1.0;
  int speedup_scales = 0;
  std::uint64_t churn_clears_meta = 0;  // Incremental arm, all scales.
  std::uint64_t churn_requests_meta = 0;

  // ---- Sections 1+2: churn throughput and latency per set scale. -------
  // Scales span the resident-set sizes an admission service is deployed
  // against (tens to ~a hundred tasks).  From-scratch analysis cost
  // grows with the set while the incremental arm's per-request work
  // tracks the change, so the speedup climbs with scale; the summary
  // aggregates per-scale ratios with a geometric mean so no single
  // scale dominates.
  for (const int scale : {25, 50, 100}) {
    const ChurnConfig churn = churn_for(scale);
    const ChurnStream stream =
        admission::make_churn_stream(churn, kSeed + static_cast<std::uint64_t>(scale));
    const std::string name = "churn-" + std::to_string(scale);

    std::uint64_t reference_digest = 0;
    bool have_reference = false;
    for (const Arm& arm : kArms) {
      const ServiceConfig config = config_for(arm);
      const Throughput t = measure([&] {
        double busy = 0.0;
        const std::int64_t handled =
            replay(stream, config, &busy, nullptr, nullptr, nullptr);
        return std::pair<std::int64_t, double>(handled, busy);
      });
      // One audited replay outside the throughput loop: decision
      // digest, final counters, and the first latency samples.
      std::uint64_t digest = 0;
      sched::IncrementalRta::Stats rta;
      admission::ServiceStats stats;
      std::vector<double> latencies;
      replay(stream, config, nullptr, &digest, &rta, &latencies, &stats);
      // Latency pool: re-replay until the sample count supports a
      // stable p99; every replay must reproduce the same digest.
      while (latencies.size() <
             static_cast<std::size_t>(t.events_per_run) * 8) {
        std::uint64_t check = 0;
        replay(stream, config, nullptr, &check, nullptr, &latencies);
        if (check != digest) ++audit_mismatches;
      }
      const double p50 = percentile(latencies, 0.50);
      const double p95 = percentile(latencies, 0.95);
      const double p99 = percentile(latencies, 0.99);
      const double clears = per_request(stats.bound_clears, stats.requests);

      // Every arm must reproduce the same decision stream (the
      // differential contract, re-verified on every bench run).
      if (!have_reference) {
        reference_digest = digest;
        have_reference = true;
      } else if (digest != reference_digest) {
        ++audit_mismatches;
      }
      audit_decisions += t.events_per_run;

      if (std::string(arm.name) == "incremental") {
        meta_rta = rta;
        churn_clears_meta += stats.bound_clears;
        churn_requests_meta += stats.requests;
        inc_eps = t.events_per_sec();
      } else if (std::string(arm.name) == "scratch") {
        scratch_eps = t.events_per_sec();
      }

      std::printf("%-10s %-14s %-22s %9lld %5d %8.3f %12.0f %9.2f %9.2f %9.2f"
                  "  clears/req=%.1f\n",
                  "admission", name.c_str(), arm.name,
                  static_cast<long long>(t.total_events()), t.reps,
                  t.wall_seconds, t.events_per_sec(), p50, p95, p99, clears);
      json.add_point()
          .set("section", "admission")
          .set("name", name)
          .set("policy", arm.name)
          .set("events", t.total_events())
          .set("reps", t.reps)
          .set("wall_seconds", t.wall_seconds)
          .set("events_per_sec", t.events_per_sec())
          .set("latency_p50_us", p50)
          .set("latency_p95_us", p95)
          .set("latency_p99_us", p99)
          .set("decision_digest", core::hex64(digest))
          .set("tasks_reanalyzed", rta.tasks_reanalyzed)
          .set("tasks_seeded", rta.tasks_seeded)
          .set("tasks_kept", rta.tasks_kept)
          .set("bound_clears_per_request", clears);
      audit.add_point()
          .set("section", "differential")
          .set("name", name)
          .set("policy", arm.name)
          .set("decision_digest", core::hex64(digest))
          .set("matches_reference", digest == reference_digest);
    }
    if (inc_eps > 0.0 && scratch_eps > 0.0) {
      speedup_product *= inc_eps / scratch_eps;
      ++speedup_scales;
    }
    inc_eps = 0.0;
    scratch_eps = 0.0;
  }

  // ---- Section 3: session batches over the thread pool. ----------------
  {
    std::vector<admission::SessionSpec> specs(32);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].churn = churn_for(10 + static_cast<int>(i % 3) * 10);
      specs[i].churn.requests = 128;
      specs[i].service = config_for(kArms[0]);
      specs[i].seed = runner::derive_seed(kSeed, i);
    }
    // At least 2 workers so the parallel point exercises real pool
    // dispatch even on a single-core host (bit-identity, not speedup,
    // is what the second row demonstrates there).
    const std::size_t workers = std::max<std::size_t>(
        2, runner::default_job_count());
    std::uint64_t serial_digest = 0;
    for (const std::size_t threads : {std::size_t{1}, workers}) {
      std::uint64_t batch_digest = 0;
      const Throughput t = measure([&] {
        const io::WallTimer timer;
        const auto results = admission::run_sessions(specs, threads);
        const double seconds = timer.seconds();
        std::int64_t handled = 0;
        std::uint64_t hash = core::kFnvOffsetBasis;
        for (const auto& r : results) {
          handled += static_cast<std::int64_t>(r.requests);
          hash = core::fnv1a_bytes(&r.decision_digest,
                                   sizeof(r.decision_digest), hash);
        }
        batch_digest = hash;
        return std::pair<std::int64_t, double>(handled, seconds);
      });
      if (threads == 1) {
        serial_digest = batch_digest;
      } else if (batch_digest != serial_digest) {
        ++audit_mismatches;  // N-worker replay diverged from serial.
      }
      const std::string name = "threads-" + std::to_string(threads);
      std::printf("%-10s %-14s %-22s %9lld %5d %8.3f %12.0f %9s %9s %9s\n",
                  "pipeline", name.c_str(), "incremental",
                  static_cast<long long>(t.total_events()), t.reps,
                  t.wall_seconds, t.events_per_sec(), "-", "-", "-");
      json.add_point()
          .set("section", "pipeline")
          .set("name", name)
          .set("policy", "incremental")
          .set("events", t.total_events())
          .set("reps", t.reps)
          .set("wall_seconds", t.wall_seconds)
          .set("events_per_sec", t.events_per_sec());
      audit.add_point()
          .set("section", "pipeline")
          .set("name", name)
          .set("policy", "incremental")
          .set("batch_digest", core::hex64(batch_digest))
          .set("matches_serial", batch_digest == serial_digest);
    }
  }

  // ---- Section 4: stationary churn (the fast path's home regime). ------
  // Scales {40, 80} always; a 200-task point under LPFPS_HORIZON_SCALE
  // >= 2 (nightly) where the from-scratch gap is widest.
  double stationary_product = 1.0;
  int stationary_scales = 0;
  std::uint64_t stationary_hits_meta = 0;
  std::uint64_t stationary_requests_meta = 0;
  std::uint64_t stationary_clears_meta = 0;
  double stationary_inc_eps = 0.0;
  double stationary_scratch_eps = 0.0;
  {
    std::vector<int> scales = {40, 80};
    if (io::horizon_scale() >= 2.0) scales.push_back(200);
    for (const int scale : scales) {
      const ChurnConfig churn = stationary_churn_for(scale);
      const ChurnStream stream = admission::make_churn_stream(
          churn, kSeed + 7000 + static_cast<std::uint64_t>(scale));
      const std::string name = "stationary-" + std::to_string(scale);

      std::uint64_t reference_digest = 0;
      bool have_reference = false;
      for (const Arm& arm : kArms) {
        ServiceConfig config = config_for(arm);
        // Sensitivity off in this section, so the ratio it gates
        // measures the boundary-search reuse alone: the incremental
        // arm's per-task headroom (one candidate search plus one check
        // per task, against whole-set probes on the reference arm)
        // would fold a second, unrelated gain into it.  The `admission`
        // section runs with sensitivity on and gates its own
        // throughput, p99, and the headroom-inclusive speedup.
        config.sensitivity = false;
        const Throughput t = measure([&] {
          double busy = 0.0;
          const std::int64_t handled =
              replay(stream, config, &busy, nullptr, nullptr, nullptr);
          return std::pair<std::int64_t, double>(handled, busy);
        });
        std::uint64_t digest = 0;
        sched::IncrementalRta::Stats rta;
        admission::ServiceStats stats;
        std::vector<double> latencies;
        replay(stream, config, nullptr, &digest, &rta, &latencies, &stats);
        while (latencies.size() <
               static_cast<std::size_t>(t.events_per_run) * 8) {
          std::uint64_t check = 0;
          replay(stream, config, nullptr, &check, nullptr, &latencies);
          if (check != digest) ++audit_mismatches;
        }
        const double p50 = percentile(latencies, 0.50);
        const double p95 = percentile(latencies, 0.95);
        const double p99 = percentile(latencies, 0.99);
        const double clears =
            per_request(stats.bound_clears, stats.requests);

        if (!have_reference) {
          reference_digest = digest;
          have_reference = true;
        } else if (digest != reference_digest) {
          ++audit_mismatches;
        }
        audit_decisions += t.events_per_run;

        if (std::string(arm.name) == "incremental") {
          stationary_inc_eps = t.events_per_sec();
          stationary_hits_meta += stats.stationary_hits;
          stationary_requests_meta += stats.requests;
          stationary_clears_meta += stats.bound_clears;
        } else if (std::string(arm.name) == "scratch") {
          stationary_scratch_eps = t.events_per_sec();
        }

        std::printf(
            "%-10s %-14s %-22s %9lld %5d %8.3f %12.0f %9.2f %9.2f %9.2f"
            "  stationary=%llu clears/req=%.1f\n",
            "stationary", name.c_str(), arm.name,
            static_cast<long long>(t.total_events()), t.reps, t.wall_seconds,
            t.events_per_sec(), p50, p95, p99,
            static_cast<unsigned long long>(stats.stationary_hits), clears);
        json.add_point()
            .set("section", "stationary-churn")
            .set("name", name)
            .set("policy", arm.name)
            .set("events", t.total_events())
            .set("reps", t.reps)
            .set("wall_seconds", t.wall_seconds)
            .set("events_per_sec", t.events_per_sec())
            .set("latency_p50_us", p50)
            .set("latency_p95_us", p95)
            .set("latency_p99_us", p99)
            .set("decision_digest", core::hex64(digest))
            .set("stationary_hits", stats.stationary_hits)
            .set("levels_probed", stats.levels_probed)
            .set("bound_clears_per_request", clears);
        audit.add_point()
            .set("section", "stationary-churn")
            .set("name", name)
            .set("policy", arm.name)
            .set("decision_digest", core::hex64(digest))
            .set("matches_reference", digest == reference_digest)
            .set("stationary_hits", stats.stationary_hits);
      }
      if (stationary_inc_eps > 0.0 && stationary_scratch_eps > 0.0) {
        stationary_product *= stationary_inc_eps / stationary_scratch_eps;
        ++stationary_scales;
      }
      stationary_inc_eps = 0.0;
      stationary_scratch_eps = 0.0;
    }
  }

  // ---- Section 5: partitioned multicore admission under churn. ---------
  {
    std::vector<admission::MulticoreSessionSpec> specs(16);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].churn = churn_for(20 + static_cast<int>(i % 3) * 10);
      specs[i].churn.requests = 128;
      specs[i].cores = 4;
      specs[i].seed = runner::derive_seed(kSeed + 63, i);
    }
    const std::size_t workers =
        std::max<std::size_t>(2, runner::default_job_count());
    std::uint64_t incremental_digest = 0;
    double multicore_inc_eps = 0.0;
    double multicore_scratch_eps = 0.0;
    for (const bool scratch : {false, true}) {
      std::vector<admission::MulticoreSessionSpec> arm_specs = specs;
      for (auto& spec : arm_specs) spec.scratch = scratch;
      std::uint64_t batch_digest = 0;
      std::int64_t handled_once = 0;
      const Throughput t = measure([&] {
        const io::WallTimer timer;
        const auto results =
            admission::run_multicore_sessions(arm_specs, workers);
        const double seconds = timer.seconds();
        std::int64_t handled = 0;
        std::uint64_t hash = core::kFnvOffsetBasis;
        for (const auto& r : results) {
          handled += static_cast<std::int64_t>(r.requests);
          hash = core::fnv1a_bytes(&r.decision_digest,
                                   sizeof(r.decision_digest), hash);
        }
        batch_digest = hash;
        handled_once = handled;
        return std::pair<std::int64_t, double>(handled, seconds);
      });
      if (!scratch) {
        incremental_digest = batch_digest;
        multicore_inc_eps = t.events_per_sec();
      } else {
        multicore_scratch_eps = t.events_per_sec();
        if (batch_digest != incremental_digest) ++audit_mismatches;
      }
      audit_decisions += handled_once;
      const char* policy = scratch ? "scratch" : "incremental";
      std::printf("%-10s %-14s %-22s %9lld %5d %8.3f %12.0f %9s %9s %9s\n",
                  "multicore", "cores-4", policy,
                  static_cast<long long>(t.total_events()), t.reps,
                  t.wall_seconds, t.events_per_sec(), "-", "-", "-");
      json.add_point()
          .set("section", "multicore-churn")
          .set("name", "cores-4")
          .set("policy", policy)
          .set("events", t.total_events())
          .set("reps", t.reps)
          .set("wall_seconds", t.wall_seconds)
          .set("events_per_sec", t.events_per_sec())
          .set("batch_digest", core::hex64(batch_digest));
      audit.add_point()
          .set("section", "multicore-churn")
          .set("name", "cores-4")
          .set("policy", policy)
          .set("batch_digest", core::hex64(batch_digest))
          .set("matches_incremental", batch_digest == incremental_digest);
    }
    json.meta().set("speedup_multicore_vs_scratch",
                    multicore_scratch_eps > 0.0
                        ? multicore_inc_eps / multicore_scratch_eps
                        : 0.0);
  }

  const double speedup =
      speedup_scales > 0
          ? std::pow(speedup_product, 1.0 / speedup_scales)
          : 0.0;
  const double stationary_speedup =
      stationary_scales > 0
          ? std::pow(stationary_product, 1.0 / stationary_scales)
          : 0.0;
  std::printf("%-10s %-14s speedup x%.2f (incremental vs scratch, "
              "geomean over %d scales)\n",
              "admission", "summary", speedup, speedup_scales);
  std::printf("%-10s %-14s speedup x%.2f (stationary churn, geomean over "
              "%d scales; stationary hits %llu/%llu)\n",
              "stationary", "summary", stationary_speedup, stationary_scales,
              static_cast<unsigned long long>(stationary_hits_meta),
              static_cast<unsigned long long>(stationary_requests_meta));
  json.meta()
      .set("speedup_incremental_vs_scratch", speedup)
      .set("speedup_stationary_vs_scratch", stationary_speedup)
      .set("stationary_hits", stationary_hits_meta)
      .set("stationary_requests", stationary_requests_meta)
      .set("bound_clears_per_request",
           per_request(churn_clears_meta, churn_requests_meta))
      .set("stationary_bound_clears_per_request",
           per_request(stationary_clears_meta, stationary_requests_meta))
      .set("tasks_reanalyzed", meta_rta.tasks_reanalyzed)
      .set("tasks_seeded", meta_rta.tasks_seeded)
      .set("tasks_kept", meta_rta.tasks_kept)
      .set("tasks_skipped", meta_rta.tasks_skipped);
  audit.meta()
      .set("decisions_verified", audit_decisions)
      .set("digest_mismatches", audit_mismatches)
      .set("stationary_hits", stationary_hits_meta)
      .set("stationary_requests", stationary_requests_meta);

  audit.set_wall_time_seconds(total.seconds());
  const std::string audit_path = audit.write();
  if (!audit_path.empty()) std::printf("audit json: %s\n", audit_path.c_str());
  json.set_wall_time_seconds(total.seconds());
  const std::string path = json.write();
  if (!path.empty()) std::printf("bench json: %s\n", path.c_str());

  if (audit_mismatches != 0) {
    std::fprintf(stderr,
                 "admission differential mismatch: %llu digest(s) diverged\n",
                 static_cast<unsigned long long>(audit_mismatches));
    return 1;
  }
  return 0;
}
