// lpfps_perfbench — the repository benchmark driver.
//
//   lpfps_perfbench --workload <sweep|paper-sims|admission-churn>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--smoke] [--corrupt-digest] [--trace-out <file>]
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//   sweep            UUniFast 5-task sets at U = 0.1..0.9, kept if they
//                    pass RTA, each run under FPS and LPFPS (clamped
//                    Gaussian, BCET/WCET 0.5, three hyperperiods) through
//                    the sharded audited fleet at a fixed worker count.
//                    One request = one audit::simulate_fleet_sharded call
//                    over a single-policy batch of sets.
//   paper-sims       the four Table 2 sets at BCET/WCET 0.5 under FPS and
//                    LPFPS through core::simulate, unaudited, Gaussian.
//                    One request = one core::simulate call.
//   admission-churn  one closed-loop client replaying churn streams over
//                    50-100-task resident sets through
//                    AdmissionService::handle with the production config.
//                    One request = one handle() call.
//
// --trace 0 measures the end-to-end metrics for --seconds seconds.
// --trace 1 alternates untraced and traced passes of the workload (spans
// recorded around every call into a layer, kept in memory and written
// to --trace-out at the end), reports the difference as the tracing
// overhead, and then measures every layer from outside by timing calls
// into its public functions, fed with the workload's own inputs.
//
// Times are process CPU time (all threads), scaled to nominal seconds by
// a fixed reference kernel sampled next to the work, because the shared
// host moves both wall time and CPU speed from one minute to the next.
// Wall time only paces the run and measures parallel speed-up.
//
// Outputs are checked on every run: result-row and decision digests
// against independent references, audit violations, and exceptions.
// Every check failure counts the operations it covers as failed.
// --corrupt-digest flips every reference digest, so a run must report
// failures (the self-test uses it to show the check is live).
//
// Human-readable lines go to stdout first; the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "admission/service.h"
#include "admission/workload.h"
#include "audit/audit.h"
#include "audit/harness.h"
#include "common/random.h"
#include "core/engine.h"
#include "core/fingerprint.h"
#include "core/sim_state.h"
#include "exec/exec_model.h"
#include "fleet/fleet.h"
#include "io/admission_io.h"
#include "io/trace_io.h"
#include "power/processor.h"
#include "runner/runner.h"
#include "sched/analysis.h"
#include "sched/incremental_rta.h"
#include "spans.h"
#include "workloads/generator.h"
#include "workloads/registry.h"

namespace {

using namespace lpfps;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

// ---- sizes -----------------------------------------------------------------

constexpr int kSweepSetsPerUtilization = 48;
constexpr std::size_t kSweepSetsPerRequest = 48;
constexpr double kSweepHyperperiods = 3.0;
constexpr std::size_t kSweepWorkers = 2;
/// Paper sims run this many of the registry's whole-hyperperiod horizons.
constexpr double kPaperHorizons = 10.0;
constexpr int kAdmissionStreams = 64;
constexpr int kAdmissionRequests = 64;
/// Share of admission-churn mutates that are relative WCET revisions;
/// the rest redraw the task, so the stream carries both kinds.
constexpr double kAdmissionRelativeMutates = 0.5;
/// Setup repetitions timed before the first pass (more follow each pass).
constexpr int kSetupReps = 5;
/// Share of --seconds the traced run spends on each of its untraced and
/// traced passes (they alternate); the layer probes follow.
constexpr double kTracedPhaseShare = 0.25;

// ---- timing and statistics -------------------------------------------------

/// CPU time of the whole process, every thread included.  The host is
/// shared: the hypervisor steals whole slices from the guest and other
/// processes preempt ours, which inflates wall time by tens of percent
/// from one minute to the next.  CPU time leaves both out (the kernel
/// subtracts steal from task runtime), so every measurement uses it.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Process CPU seconds since construction.
class Stopwatch {
 public:
  Stopwatch() : start_(cpu_now()) {}
  double seconds() const { return cpu_now() - start_; }

 private:
  double start_;
};

/// Wall seconds since construction: paces the run and measures parallel
/// speed-up, nothing else.
class WallClock {
 public:
  WallClock() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double per(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// ---- options and report ----------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool corrupt_digest = false;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports: correctness accounting, metrics, and the
/// deterministic digests the self-test compares across runs.
struct Report {
  bool corrupt_digest = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> digests;

  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts `ops` operations, all failed unless `ok`.
  void check(bool ok, std::int64_t ops) {
    attempted += ops;
    if (!ok) failed += ops;
  }
  /// A reference digest as the checks see it (flipped under
  /// --corrupt-digest).
  std::uint64_t reference(std::uint64_t digest) const {
    return corrupt_digest ? digest ^ 1u : digest;
  }
  void record_digest(std::string name, std::uint64_t digest) {
    digests.emplace_back(std::move(name), core::hex64(digest));
  }
};

// ---- shared helpers --------------------------------------------------------

const power::ProcessorConfig& cpu() {
  static const power::ProcessorConfig config =
      power::ProcessorConfig::arm8_default();
  return config;
}

/// The sweep's fixed fleet worker count.  A request ends when its slowest
/// shard does, so using every core of a shared host lets any neighbour's
/// burst stall every request; half of a 4-core box keeps the sweep
/// parallel and its numbers steady.
std::size_t worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw / 2, 1, kSweepWorkers);
}

std::uint64_t rows_digest(const std::vector<core::SimulationResult>& results) {
  std::uint64_t hash = core::kFnvOffsetBasis;
  for (const core::SimulationResult& r : results) {
    hash = core::fnv1a(io::result_csv_row(r), hash);
  }
  return hash;
}

std::int64_t events_of(const std::vector<core::SimulationResult>& results) {
  std::int64_t events = 0;
  for (const core::SimulationResult& r : results) {
    events += r.scheduler_invocations;
  }
  return events;
}

core::SimulationResult simulate(const fleet::SimSpec& spec) {
  return core::simulate(spec.tasks, spec.processor, spec.policy,
                        spec.exec_model, spec.options);
}

/// FPS at 2i, LPFPS at 2i+1, both with `options[i]` — the pair order
/// every workload's simulation specs use.
std::vector<fleet::SimSpec> policy_pairs(
    const std::vector<sched::TaskSet>& sets,
    const std::vector<core::EngineOptions>& options) {
  const auto gaussian = std::make_shared<exec::ClampedGaussianModel>();
  std::vector<fleet::SimSpec> specs;
  specs.reserve(2 * sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    specs.push_back(
        {sets[i], cpu(), core::SchedulerPolicy::fps(), gaussian, options[i]});
    specs.push_back(
        {sets[i], cpu(), core::SchedulerPolicy::lpfps(), gaussian, options[i]});
  }
  return specs;
}

/// Mean over pairs of LPFPS / FPS average power (paper Fig. 8).
double energy_ratio(const std::vector<core::SimulationResult>& pairs) {
  double sum = 0.0;
  for (std::size_t i = 0; i + 1 < pairs.size(); i += 2) {
    sum += pairs[i + 1].average_power / pairs[i].average_power;
  }
  return per(sum, static_cast<double>(pairs.size() / 2));
}

/// Runs `pass` until `budget_s` seconds have gone by and at least
/// `min_passes` passes ran.  Returns the pass count.
int run_for(double budget_s, int min_passes, const std::function<void()>& pass) {
  const WallClock clock;
  int passes = 0;
  while (passes < min_passes || clock.seconds() < budget_s) {
    pass();
    ++passes;
  }
  return passes;
}

// ---- host-speed reference ---------------------------------------------------

/// Operations per reference sample, and the keys its heap holds.
constexpr int kReferenceOps = 8192;
constexpr std::size_t kReferenceKeys = 256;
/// Thread CPU seconds of one reference sample on a quiet 4-vCPU Xeon
/// guest (Emerald Rapids, KVM).  Measured times are reported in these
/// nominal seconds: scaled by this over the samples taken next to them.
constexpr double kReferenceNominalSeconds = 250e-6;

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One run of the host-speed reference, in thread CPU seconds.  CPU time
/// still varies with the host: the clock speed a busy package grants and
/// the neighbours sharing a core move it by up to 1.8x between minutes.
/// So the passes sample a fixed kernel next to the work and scale the
/// work's time by the kernel's.  The kernel lives here, never in the
/// library, so no change to the program moves it: a xorshift stream
/// through a 256-key binary min-heap, branchy cache-resident integer and
/// floating-point work like the engine's event loop.
double reference_sample() {
  static double sink = 0.0;
  std::vector<double> heap;
  heap.reserve(kReferenceKeys);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const double start = thread_cpu_now();
  for (int i = 0; i < kReferenceOps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double key = static_cast<double>(x >> 11) * 0x1p-53;
    if (heap.size() < kReferenceKeys) {
      heap.push_back(key);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    } else {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      sink += heap.back();
      heap.back() = key;
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
  }
  const double seconds = thread_cpu_now() - start;
  if (!(sink > 0.0)) throw std::runtime_error("reference kernel drew nothing");
  return seconds;
}

/// Factor from measured to nominal seconds, given reference samples
/// taken next to the measurement.
double nominal_factor(const std::vector<double>& samples) {
  return samples.empty() ? 1.0 : kReferenceNominalSeconds / median(samples);
}

/// Times a workload's setup.  first() builds the input the run measures;
/// again() repeats the setup and discards the result.  A run calls
/// again() a few times up front and once after every timed pass, so the
/// reported median samples the host across the whole run, as the passes
/// do, rather than only its first moments.  Each repetition is scaled to
/// nominal seconds by reference samples taken on either side of it.
template <typename Setup>
class SetupTimer {
 public:
  explicit SetupTimer(Setup setup) : setup_(std::move(setup)) {}

  auto first() {
    std::vector<double> samples = {reference_sample(), reference_sample()};
    const Stopwatch clock;
    auto input = setup_();
    add(clock.seconds(), samples);
    return input;
  }
  void again(int reps = 1) {
    for (int r = 0; r < reps; ++r) {
      std::vector<double> samples = {reference_sample(), reference_sample()};
      const Stopwatch clock;
      const auto discarded = setup_();
      add(clock.seconds(), samples);
    }
  }
  double median_seconds() const { return median(times_); }

 private:
  void add(double seconds, std::vector<double>& samples) {
    samples.push_back(reference_sample());
    samples.push_back(reference_sample());
    times_.push_back(seconds * nominal_factor(samples));
  }

  Setup setup_;
  std::vector<double> times_;
};

// ---- end-to-end pass accounting -------------------------------------------

/// One request of a pass: its CPU time and the work it did.  Every pass
/// repeats the identical requests, so entry i of two passes is the same
/// work.  On admission-churn a "sim" is one stream replayed by a fresh
/// service (counted on its first request), and every request counts as
/// one event: an FPS event when it changes membership (add or remove),
/// an LPFPS event when it revises a WCET (mutate).  Both are fixed by
/// the stream, so work the service chooses to skip reads as a gain.
struct RequestRecord {
  double us = 0.0;
  std::int64_t sims = 0;
  std::int64_t fps_events = 0;
  std::int64_t lpfps_events = 0;
  /// Which per-policy event rates this request's time counts toward.
  bool fps_time = false;
  bool lpfps_time = false;
};

struct PassTotals {
  double seconds = 0.0;  ///< CPU time of the whole pass.
  std::vector<RequestRecord> requests;
  std::vector<double> reference;  ///< Reference samples taken in the pass.
  std::int64_t admitted = 0;    ///< Admission only: admitted requests...
  double admitted_power = 0.0;  ///< ...and their summed granted-level power.

  std::int64_t request_count() const {
    return static_cast<std::int64_t>(requests.size());
  }
  std::int64_t sims() const {
    std::int64_t n = 0;
    for (const RequestRecord& r : requests) n += r.sims;
    return n;
  }
  std::int64_t events() const {
    std::int64_t n = 0;
    for (const RequestRecord& r : requests) n += r.fps_events + r.lpfps_events;
    return n;
  }
};

/// The end-to-end rates of a timed run.  Every pass repeats the identical
/// requests.  A request's cost in a pass is its CPU time scaled to
/// nominal seconds by the pass's reference samples, and its cost in the
/// run is the median over passes.  Rates divide the work by the summed
/// per-request costs; the latency percentiles are taken over requests.
struct TimedRates {
  std::vector<RequestRecord> work;  ///< Requests of the first pass.
  std::vector<std::vector<double>> us;
  std::size_t passes = 0;
  std::vector<double> reference;  ///< Every pass's reference samples.

  void add(const PassTotals& p) {
    if (work.empty()) work = p.requests;
    const double factor = nominal_factor(p.reference);
    us.resize(std::max(us.size(), p.requests.size()));
    for (std::size_t i = 0; i < p.requests.size(); ++i) {
      us[i].push_back(p.requests[i].us * factor);
    }
    reference.insert(reference.end(), p.reference.begin(), p.reference.end());
    ++passes;
  }
  /// Request i's cost in nominal seconds.
  double seconds(std::size_t i) const { return median(us[i]) * 1e-6; }
};

void report_rates(const TimedRates& rates, double setup_s, double ratio,
                      Report& report) {
  std::vector<double> latency_us;
  double seconds = 0.0, fps_seconds = 0.0, lpfps_seconds = 0.0;
  double sims = 0.0, fps_events = 0.0, lpfps_events = 0.0;
  for (std::size_t i = 0; i < rates.work.size(); ++i) {
    const RequestRecord& r = rates.work[i];
    const double s = rates.seconds(i);
    latency_us.push_back(s * 1e6);
    seconds += s;
    if (r.fps_time) fps_seconds += s;
    if (r.lpfps_time) lpfps_seconds += s;
    sims += static_cast<double>(r.sims);
    fps_events += static_cast<double>(r.fps_events);
    lpfps_events += static_cast<double>(r.lpfps_events);
  }
  report.add("setup_s", setup_s, "s");
  report.add("sims_per_s", per(sims, seconds), "sims/s");
  report.add("events_per_s", per(fps_events + lpfps_events, seconds),
             "events/s");
  report.add("events_per_s.fps", per(fps_events, fps_seconds), "events/s");
  report.add("events_per_s.lpfps", per(lpfps_events, lpfps_seconds),
             "events/s");
  report.add("energy_ratio", ratio, "ratio");
  report.add("requests_per_s",
             per(static_cast<double>(latency_us.size()), seconds),
             "requests/s");
  report.add("latency_p50_us", percentile(latency_us, 0.50), "us");
  report.add("latency_p99_us", percentile(latency_us, 0.99), "us");
  std::printf("latency: %zu requests x %zu passes\n", latency_us.size(),
              rates.passes);
  std::printf("host speed: reference sample %.1f us CPU at the median of "
              "%zu (nominal %.1f us)\n",
              median(rates.reference) * 1e6, rates.reference.size(),
              kReferenceNominalSeconds * 1e6);
}

// ---- per-layer probes: simulation layers ----------------------------------

/// Measures fleet, runner, core, power, sim and audit from outside, on
/// `specs` (FPS/LPFPS pairs).  Every probe's result rows are checked
/// against plain core::simulate.
void probe_sim_layers(const std::vector<fleet::SimSpec>& specs,
                      SpanRecorder& rec, Report& report) {
  const std::size_t n = specs.size();
  const auto count = static_cast<std::int64_t>(n);

  // Plain core::simulate: the reference rows and per-policy cost.
  std::vector<core::SimulationResult> plain(n);
  double fps_s = 0.0, lpfps_s = 0.0;
  {
    ScopedSpan span(&rec, "core.simulate");
    for (std::size_t i = 0; i < n; ++i) {
      const Stopwatch clock;
      plain[i] = simulate(specs[i]);
      (i % 2 == 0 ? fps_s : lpfps_s) += clock.seconds();
    }
  }
  const std::uint64_t reference = report.reference(rows_digest(plain));
  std::int64_t fps_events = 0, lpfps_events = 0;
  for (std::size_t i = 0; i < n; ++i) {
    (i % 2 == 0 ? fps_events : lpfps_events) += plain[i].scheduler_invocations;
  }
  const std::int64_t events = fps_events + lpfps_events;
  rec.count("core.events", static_cast<double>(events));

  // The two halves of LPFPS on the same sets and seeds.
  auto ns_per_event = [&](const core::SchedulerPolicy& policy,
                          const std::string& span_name) {
    ScopedSpan span(&rec, span_name);
    double seconds = 0.0;
    std::int64_t policy_events = 0;
    for (std::size_t i = 0; i < n; i += 2) {
      const Stopwatch clock;
      const core::SimulationResult r =
          core::simulate(specs[i].tasks, specs[i].processor, policy,
                         specs[i].exec_model, specs[i].options);
      seconds += clock.seconds();
      policy_events += r.scheduler_invocations;
    }
    return per(seconds * 1e9, static_cast<double>(policy_events));
  };
  const double pd_ns = ns_per_event(core::SchedulerPolicy::lpfps_powerdown_only(),
                                    "core.simulate.lpfps_pd");
  const double dvs_ns = ns_per_event(core::SchedulerPolicy::lpfps_dvs_only(),
                                     "core.simulate.lpfps_dvs");
  report.add("core.ns_per_event.fps",
             per(fps_s * 1e9, static_cast<double>(fps_events)), "ns");
  report.add("core.ns_per_event.lpfps_pd", pd_ns, "ns");
  report.add("core.ns_per_event.lpfps_dvs", dvs_ns, "ns");
  report.add("core.ns_per_event.lpfps",
             per(lpfps_s * 1e9, static_cast<double>(lpfps_events)), "ns");

  // Trace recording: the same runs with record_trace on.
  std::vector<core::SimulationResult> traced(n);
  double traced_s = 0.0;
  std::int64_t segments = 0;
  {
    ScopedSpan span(&rec, "sim.record_trace");
    for (std::size_t i = 0; i < n; ++i) {
      core::EngineOptions options = specs[i].options;
      options.record_trace = true;
      const Stopwatch clock;
      traced[i] = core::simulate(specs[i].tasks, specs[i].processor,
                                 specs[i].policy, specs[i].exec_model, options);
      traced_s += clock.seconds();
      segments += static_cast<std::int64_t>(traced[i].trace->segments().size());
    }
  }
  report.check(rows_digest(traced) == reference, count);
  rec.count("sim.segments", static_cast<double>(segments));
  report.add("sim.trace_ns_per_event",
             per((traced_s - fps_s - lpfps_s) * 1e9, static_cast<double>(events)),
             "ns");
  report.add("sim.segments_per_event",
             per(static_cast<double>(segments), static_cast<double>(events)),
             "count");

  // Audit re-derivation over those traces.
  double audit_s = 0.0;
  std::int64_t checked = 0;
  std::int64_t violations = 0;
  {
    ScopedSpan span(&rec, "audit.audit_run");
    for (std::size_t i = 0; i < n; ++i) {
      const Stopwatch clock;
      const audit::AuditReport audited = audit::audit_run(
          traced[i], specs[i].tasks, specs[i].processor,
          audit::derive_options(specs[i].policy, specs[i].options));
      audit_s += clock.seconds();
      checked += audited.segments_checked;
      violations += static_cast<std::int64_t>(audited.violations.size());
    }
  }
  report.check(violations == 0, count);
  report.add("audit.audit_run_ns_per_segment",
             per(audit_s * 1e9, static_cast<double>(checked)), "ns");
  report.add("audit.share", per(audit_s, traced_s + audit_s), "ratio");
  report.add("audit.violations", static_cast<double>(violations), "count");

  // Power: replay PowerModel::ramp_energy over the LPFPS ramp segments
  // with the run's own rho and executing flag.
  struct Ramp {
    Ratio from, to;
    bool executing;
  };
  std::vector<Ramp> ramps;
  std::int64_t running_ramps = 0;
  for (std::size_t i = 1; i < n; i += 2) {
    for (const sim::Segment& s : traced[i].trace->segments()) {
      if (s.ratio_begin == s.ratio_end) continue;
      const bool executing = s.mode == sim::ProcessorMode::kRunning;
      if (executing) ++running_ramps;
      ramps.push_back({s.ratio_begin, s.ratio_end, executing});
    }
  }
  double ramp_ns = 0.0;
  if (!ramps.empty()) {
    ScopedSpan span(&rec, "power.ramp_energy");
    const power::PowerModel model = cpu().make_power_model();
    const double rho = cpu().ramp_rate;
    double sink = 0.0;
    std::int64_t calls = 0;
    const Stopwatch clock;
    while (calls == 0 || clock.seconds() < 0.05) {
      for (const Ramp& r : ramps) {
        sink += model.ramp_energy(r.from, r.to, rho, r.executing);
      }
      calls += static_cast<std::int64_t>(ramps.size());
    }
    ramp_ns = per(clock.seconds() * 1e9, static_cast<double>(calls));
    rec.count("power.ramp_energy_calls", static_cast<double>(calls));
    if (!(sink > 0.0)) throw std::runtime_error("ramp replay drew no energy");
  }
  // Each running ramp integrates ramp_energy twice (accumulator and
  // per-task totals), each idle ramp once; coalescing only merges trace
  // segments, so this is a lower bound on power's share.
  const double ramp_calls =
      static_cast<double>(2 * running_ramps) +
      static_cast<double>(static_cast<std::int64_t>(ramps.size()) - running_ramps);
  report.add("power.ramp_energy_ns", ramp_ns, "ns");
  report.add("power.ramp_segments_per_event",
             per(static_cast<double>(ramps.size()),
                 static_cast<double>(lpfps_events)),
             "count");
  report.add("power.ramp_replay_share", per(ramp_calls * ramp_ns * 1e-9, lpfps_s),
             "ratio");

  // Fleet: add, then unaudited run_all.
  {
    std::vector<fleet::SimSpec> copies = specs;
    fleet::FleetEngine engine;
    double add_s = 0.0, run_s = 0.0;
    std::vector<core::SimulationResult> results;
    {
      ScopedSpan span(&rec, "fleet.add");
      const Stopwatch clock;
      for (fleet::SimSpec& spec : copies) engine.add(std::move(spec));
      add_s = clock.seconds();
    }
    {
      ScopedSpan span(&rec, "fleet.run_all");
      const Stopwatch clock;
      results = engine.run_all();
      run_s = clock.seconds();
    }
    report.check(rows_digest(results) == reference, count);
    const fleet::FleetStats& stats = engine.stats();
    rec.count("fleet.rounds", static_cast<double>(stats.rounds));
    rec.count("fleet.steps", static_cast<double>(stats.steps));
    report.add("fleet.add_us_per_sim", per(add_s * 1e6, static_cast<double>(n)),
               "us");
    report.add("fleet.run_ns_per_event",
               per(run_s * 1e9, static_cast<double>(stats.events)), "ns");
    report.add("fleet.rounds", static_cast<double>(stats.rounds), "count");
    report.add("fleet.steps_per_round",
               per(static_cast<double>(stats.steps),
                   static_cast<double>(stats.rounds)),
               "count");
    report.add("fleet.lane_rebinds_per_sim",
               per(static_cast<double>(stats.lane_rebinds), static_cast<double>(n)),
               "count");
  }

  // Runner: the sharded fleet at one worker and at the fixed count.
  {
    const std::size_t workers = worker_count();
    auto sharded = [&](std::size_t threads) {
      std::vector<fleet::SimSpec> copies = specs;
      ScopedSpan span(&rec, "fleet.run_fleet_sharded." + std::to_string(threads));
      const WallClock clock;
      const std::vector<core::SimulationResult> results =
          fleet::run_fleet_sharded(std::move(copies), {}, threads);
      const double seconds = clock.seconds();
      report.check(rows_digest(results) == reference, count);
      return seconds;
    };
    const double one = sharded(1);
    const double many = sharded(workers);
    report.add("runner.parallel_efficiency",
               per(one, static_cast<double>(workers) * many), "ratio");
  }

  // Core: drive SimState::begin/step/finish directly.
  {
    ScopedSpan span(&rec, "core.sim_state");
    double begin_s = 0.0, step_s = 0.0, finish_s = 0.0;
    std::int64_t steps = 0;
    std::vector<core::SimulationResult> results(n);
    for (std::size_t i = 0; i < n; ++i) {
      const fleet::SimSpec& spec = specs[i];
      core::SimState state(spec.tasks, spec.processor, spec.policy,
                           spec.exec_model, spec.options);
      Stopwatch clock;
      state.begin();
      begin_s += clock.seconds();
      clock = Stopwatch();
      while (!state.finished()) {
        state.step();
        ++steps;
      }
      step_s += clock.seconds();
      clock = Stopwatch();
      results[i] = state.finish();
      finish_s += clock.seconds();
    }
    report.check(rows_digest(results) == reference, count);
    rec.count("core.steps", static_cast<double>(steps));
    report.add("core.begin_us", per(begin_s * 1e6, static_cast<double>(n)), "us");
    report.add("core.step_ns", per(step_s * 1e9, static_cast<double>(steps)),
               "ns");
    report.add("core.steps_per_event",
               per(static_cast<double>(steps), static_cast<double>(events)),
               "count");
    report.add("core.finish_us", per(finish_s * 1e6, static_cast<double>(n)),
               "us");
  }
}

// ---- admission passes and the admission-layer probe -------------------------

admission::ServiceConfig production_config() {
  admission::ServiceConfig config;  // incremental, cache and sensitivity on
  config.scaling = wcet::FrequencyScalingModel{0.3};
  return config;
}

/// A WCET-revision stream over one of the simulation workloads' own
/// sets: relative WCET mutates, re-adds of copies of member tasks, and
/// removals.  The admission probe on those workloads.
admission::ChurnStream revision_stream(const sched::TaskSet& set,
                                       std::uint64_t seed, int requests) {
  admission::ChurnStream stream;
  stream.initial = set;
  Rng rng(seed);
  for (int i = 0; i < requests; ++i) {
    admission::ChurnOp op;
    op.pick = static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000'000));
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.6) {
      op.kind = admission::RequestKind::kMutate;
      op.scale = rng.uniform(0.97, 1.03);
    } else if (roll < 0.8) {
      const sched::Task& model = set[static_cast<TaskIndex>(op.pick % set.size())];
      op.kind = admission::RequestKind::kAdd;
      op.period = model.period;
      op.deadline = model.deadline;
      op.wcet = model.wcet;
      op.bcet_ratio = model.bcet / model.wcet;
      op.priority_hint = static_cast<sched::Priority>(
          rng.uniform_int(0, static_cast<std::int64_t>(2 * set.size())));
    } else {
      op.kind = admission::RequestKind::kRemove;
    }
    stream.ops.push_back(op);
  }
  return stream;
}

/// Decision-class accounting of one admission pass.
struct AdmissionAccounting {
  std::vector<double> hit_us, stationary_us, search_us;
  std::int64_t requests = 0, rejected = 0, cache_hits = 0, stationary = 0;
  std::int64_t levels = 0, headroom = 0, reanalyzed = 0, seeded = 0;
  std::vector<std::vector<admission::Request>> admitted_requests;
  std::vector<std::vector<std::optional<Time>>> final_response_times;
};

/// Replays every stream through a fresh service built with `config`.
/// Per stream: `digests` (when non-null) receives the decision digest,
/// or it is checked against `reference` (when non-null).
PassTotals admission_pass(
    const std::vector<admission::ChurnStream>& streams,
    const admission::ServiceConfig& config,
    std::vector<std::unique_ptr<admission::AdmissionService>>* prebuilt,
    const std::vector<std::uint64_t>* reference,
    std::vector<std::uint64_t>* digests, Report& report,
    AdmissionAccounting* accounting, SpanRecorder* rec) {
  const power::PowerModel model = cpu().make_power_model();
  PassTotals pass;
  const Stopwatch whole;
  for (std::size_t k = 0; k < streams.size(); ++k) {
    pass.reference.push_back(reference_sample());
    std::unique_ptr<admission::AdmissionService> service;
    if (prebuilt != nullptr && k < prebuilt->size() && (*prebuilt)[k]) {
      service = std::move((*prebuilt)[k]);
    } else {
      service = std::make_unique<admission::AdmissionService>(
          streams[k].initial, config);
    }
    ScopedSpan session(rec, "admission.session");
    std::uint64_t hash = core::kFnvOffsetBasis;
    std::int64_t handled = 0;
    bool broken = false;
    std::vector<admission::Request> admitted;
    for (const admission::ChurnOp& op : streams[k].ops) {
      std::optional<admission::Request> request;
      admission::Decision d;
      double seconds = 0.0;
      try {
        {
          ScopedSpan span(rec, "admission.resolve");
          request = admission::resolve(op, service->tasks());
        }
        if (!request.has_value()) continue;
        ScopedSpan span(rec, "admission.handle");
        const Stopwatch clock;
        d = service->handle(*request);
        seconds = clock.seconds();
      } catch (const std::exception& e) {
        // The service's state is now unknown: fail this request and end
        // the stream, whose digest check then fails its handled requests.
        std::fprintf(stderr, "admission stream %zu failed: %s\n", k, e.what());
        report.check(false, 1);
        broken = true;
        break;
      }
      hash = core::fnv1a(io::admission_csv_row(d), hash);
      const bool mutate = request->kind == admission::RequestKind::kMutate;
      pass.requests.push_back({seconds * 1e6, handled == 0 ? 1 : 0,
                               mutate ? 0 : 1, mutate ? 1 : 0, !mutate,
                               mutate});
      ++handled;
      if (accounting != nullptr) {
        AdmissionAccounting& a = *accounting;
        ++a.requests;
        const double us = seconds * 1e6;
        if (d.cache_hit) {
          ++a.cache_hits;
          a.hit_us.push_back(us);
        } else if (d.stationary) {
          ++a.stationary;
          a.stationary_us.push_back(us);
        } else {
          a.search_us.push_back(us);
        }
        if (!d.admitted) ++a.rejected;
        a.levels += d.levels_probed;
        a.headroom += d.headroom_probes;
        a.reanalyzed += d.tasks_reanalyzed;
        a.seeded += d.tasks_seeded;
        if (d.admitted) admitted.push_back(*request);
      }
      if (d.admitted) {
        ++pass.admitted;
        pass.admitted_power += model.run_power(d.min_safe_ratio);
      }
    }
    if (accounting != nullptr) {
      accounting->admitted_requests.push_back(std::move(admitted));
      accounting->final_response_times.push_back(service->response_times());
    }
    if (digests != nullptr) digests->push_back(hash);
    if (reference != nullptr) {
      report.check(!broken && hash == (*reference)[k], handled);
    }
  }
  pass.seconds = whole.seconds();
  return pass;
}

/// Admission-layer metrics from one accounted pass over `streams`, plus
/// the admitted requests replayed on a standalone IncrementalRta.
void probe_admission_layers(const std::vector<admission::ChurnStream>& streams,
                            SpanRecorder& rec, Report& report) {
  AdmissionAccounting a;
  std::vector<std::uint64_t> digests;
  {
    ScopedSpan span(&rec, "admission.probe");
    admission_pass(streams, production_config(), nullptr, nullptr, &digests,
                   report, &a, &rec);
  }
  const auto requests = static_cast<double>(a.requests);
  report.add("admission.handle_us.cache_hit", median(a.hit_us), "us");
  report.add("admission.handle_us.stationary", median(a.stationary_us), "us");
  report.add("admission.handle_us.search", median(a.search_us), "us");
  report.add("admission.cache_hit_rate",
             per(static_cast<double>(a.cache_hits), requests), "ratio");
  report.add("admission.stationary_rate",
             per(static_cast<double>(a.stationary), requests), "ratio");
  report.add("admission.levels_probed_per_request",
             per(static_cast<double>(a.levels), requests), "count");
  report.add("admission.headroom_probes_per_request",
             per(static_cast<double>(a.headroom), requests), "count");
  report.add("admission.reject_rate",
             per(static_cast<double>(a.rejected), requests), "ratio");
  report.add("sched.tasks_reanalyzed_per_request",
             per(static_cast<double>(a.reanalyzed), requests), "count");
  report.add("sched.tasks_seeded_per_request",
             per(static_cast<double>(a.seeded), requests), "count");

  // The admitted stream on a standalone IncrementalRta must land on the
  // service's final response times.
  double rta_s = 0.0;
  std::int64_t replayed = 0;
  for (std::size_t k = 0; k < streams.size(); ++k) {
    sched::IncrementalRta rta(streams[k].initial);
    ScopedSpan span(&rec, "sched.incremental_rta");
    const Stopwatch clock;
    for (const admission::Request& r : a.admitted_requests[k]) {
      switch (r.kind) {
        case admission::RequestKind::kAdd:
          rta.add_task(r.task);
          break;
        case admission::RequestKind::kRemove:
          rta.remove_task(r.index);
          break;
        case admission::RequestKind::kMutate:
          rta.mutate_task(r.index, r.task);
          break;
      }
    }
    rta_s += clock.seconds();
    const auto ops = static_cast<std::int64_t>(a.admitted_requests[k].size());
    replayed += ops;
    report.check(rta.response_times() == a.final_response_times[k], ops);
  }
  report.add("sched.incremental_rta_us_per_request",
             per(rta_s * 1e6, static_cast<double>(replayed)), "us");
}

// ---- the traced run ---------------------------------------------------------

/// --trace 1, first half: alternating untraced and traced passes (each
/// traced one under a `root` span) for a share of --seconds, so drift in
/// the host hits both sides alike.  Reports the workload's throughput
/// both ways (ops per pass second, nominal as in the timed run, `ops`
/// selecting the op count) and their difference as the overhead.
void traced_phases(const Options& opt, SpanRecorder& rec, Report& report,
                   const std::string& root,
                   std::int64_t (PassTotals::*ops)() const,
                   const std::function<PassTotals(SpanRecorder*)>& pass) {
  double untraced_s = 0.0, traced_s = 0.0;
  std::int64_t untraced_ops = 0, traced_ops = 0;
  const int passes = run_for(2.0 * opt.seconds * kTracedPhaseShare, 2, [&] {
    const PassTotals plain = pass(nullptr);
    untraced_s += plain.seconds * nominal_factor(plain.reference);
    untraced_ops += (plain.*ops)();
    ScopedSpan span(&rec, root);
    const PassTotals traced = pass(&rec);
    traced_s += traced.seconds * nominal_factor(traced.reference);
    traced_ops += (traced.*ops)();
  });
  const double untraced = per(static_cast<double>(untraced_ops), untraced_s);
  const double traced = per(static_cast<double>(traced_ops), traced_s);
  report.add("tracing.untraced_ops_per_s", untraced, "ops/s");
  report.add("tracing.traced_ops_per_s", traced, "ops/s");
  report.add("tracing.overhead_pct", per(100.0 * (untraced - traced), untraced),
             "%");
  std::printf("tracing: %d passes each, %.6g ops/s untraced, %.6g traced\n",
              passes, untraced, traced);
}

/// --trace 1, last step: write the spans out and print each layer's
/// self time.
void finish_trace(const Options& opt, const SpanRecorder& rec) {
  if (!opt.trace_out.empty() && !rec.write_json(opt.trace_out)) {
    throw std::runtime_error("cannot write " + opt.trace_out);
  }
  for (const auto& [name, t] : rec.layer_times()) {
    std::printf("self %-34s %8lld spans %12.3f ms self %12.3f ms total\n",
                name.c_str(), static_cast<long long>(t.spans),
                t.self_ns * 1e-6, t.total_ns * 1e-6);
  }
}

// ---- workload: sweep --------------------------------------------------------

struct SweepInput {
  std::vector<sched::TaskSet> sets;
  std::int64_t drawn = 0;
  double generate_seconds = 0.0;
  std::vector<fleet::SimSpec> specs;  ///< policy_pairs(sets)
  /// Single-policy batches: FPS then LPFPS for each group of sets.
  std::vector<std::vector<fleet::SimSpec>> requests;
  std::vector<std::vector<std::size_t>> request_specs;  ///< Indices into specs.
};

SweepInput make_sweep(std::uint64_t seed, bool smoke) {
  const int per_u = smoke ? 2 : kSweepSetsPerUtilization;
  const std::size_t per_request = smoke ? 6 : kSweepSetsPerRequest;
  SweepInput in;
  const Stopwatch generate;
  Rng rng(runner::derive_seed(seed, 0));
  for (int step = 1; step <= 9; ++step) {
    workloads::GeneratorConfig config;
    config.task_count = 5;
    config.total_utilization = step / 10.0;
    config.bcet_ratio = 0.5;
    config.period_min = 10'000;
    config.period_max = 40'000;
    config.period_granularity = 10'000;
    for (int kept = 0; kept < per_u;) {
      ++in.drawn;
      sched::TaskSet tasks = workloads::generate_task_set(config, rng);
      if (!sched::is_schedulable_rta(tasks)) continue;
      in.sets.push_back(std::move(tasks));
      ++kept;
    }
  }
  in.generate_seconds = generate.seconds();

  std::vector<core::EngineOptions> options(in.sets.size());
  for (std::size_t i = 0; i < in.sets.size(); ++i) {
    options[i].horizon =
        kSweepHyperperiods * static_cast<Time>(in.sets[i].hyperperiod());
    options[i].seed = runner::derive_seed(seed, i + 1);
  }
  in.specs = policy_pairs(in.sets, options);
  // Set i joins group i % groups, so every batch mixes utilizations.
  const std::size_t groups =
      std::max<std::size_t>(1, in.sets.size() / per_request);
  for (std::size_t g = 0; g < groups; ++g) {
    for (const std::size_t policy : {std::size_t{0}, std::size_t{1}}) {
      std::vector<fleet::SimSpec> batch;
      std::vector<std::size_t> indices;
      for (std::size_t i = g; i < in.sets.size(); i += groups) {
        batch.push_back(in.specs[2 * i + policy]);
        indices.push_back(2 * i + policy);
      }
      in.requests.push_back(std::move(batch));
      in.request_specs.push_back(std::move(indices));
    }
  }
  return in;
}

/// audit::simulate_fleet_sharded split into the calls it makes, so each
/// layer gets its own span; same work, same results.
std::vector<core::SimulationResult> traced_sweep_request(
    std::vector<fleet::SimSpec> specs, audit::AuditAggregator& aggregator,
    std::size_t workers, SpanRecorder& rec) {
  ScopedSpan request(&rec, "sweep.request");
  std::vector<fleet::SimSpec> to_run;
  {
    ScopedSpan span(&rec, "audit.force_traces");
    to_run.reserve(specs.size());
    for (fleet::SimSpec& spec : specs) {
      spec.options.record_trace = true;
      to_run.push_back(spec);
    }
  }
  std::vector<core::SimulationResult> results;
  {
    ScopedSpan span(&rec, "fleet.run_fleet_sharded");
    results = fleet::run_fleet_sharded(std::move(to_run), {}, workers);
  }
  std::int64_t segments = 0;
  {
    ScopedSpan span(&rec, "audit.audit_run");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      segments += static_cast<std::int64_t>(results[i].trace->segments().size());
      const audit::AuditReport report = audit::audit_run(
          results[i], specs[i].tasks, specs[i].processor,
          audit::derive_options(specs[i].policy, specs[i].options));
      aggregator.add(report, results[i]);
      results[i].trace.reset();
    }
  }
  rec.count("sweep.sims", static_cast<double>(specs.size()));
  rec.count("sweep.events", static_cast<double>(events_of(results)));
  rec.count("sweep.segments", static_cast<double>(segments));
  return results;
}

PassTotals sweep_pass(const SweepInput& in,
                      const std::vector<std::uint64_t>& reference,
                      audit::AuditAggregator& aggregator, std::size_t workers,
                      Report& report, SpanRecorder* rec) {
  PassTotals pass;
  const Stopwatch whole;
  for (std::size_t r = 0; r < in.requests.size(); ++r) {
    pass.reference.push_back(reference_sample());
    std::vector<fleet::SimSpec> specs = in.requests[r];
    const auto sims = static_cast<std::int64_t>(specs.size());
    std::vector<core::SimulationResult> results;
    const Stopwatch clock;
    try {
      results = rec != nullptr
                    ? traced_sweep_request(std::move(specs), aggregator,
                                           workers, *rec)
                    : audit::simulate_fleet_sharded(std::move(specs), {},
                                                    &aggregator, workers);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sweep request %zu failed: %s\n", r, e.what());
    }
    const double seconds = clock.seconds();
    report.check(results.size() == in.requests[r].size() &&
                     rows_digest(results) == reference[r],
                 sims);
    const std::int64_t events = events_of(results);
    const bool lpfps = r % 2 == 1;
    pass.requests.push_back({seconds * 1e6, sims, lpfps ? 0 : events,
                             lpfps ? events : 0, !lpfps, lpfps});
  }
  pass.seconds = whole.seconds();
  return pass;
}

void run_sweep(const Options& opt, Report& report) {
  SetupTimer setup([&] { return make_sweep(opt.seed, opt.smoke); });
  const SweepInput in = setup.first();
  const std::size_t workers = worker_count();
  std::printf("sweep: %zu sets (%lld drawn), %zu sims in %zu requests, "
              "%zu workers\n",
              in.sets.size(), static_cast<long long>(in.drawn),
              in.specs.size(), in.requests.size(), workers);

  // Reference rows from per-spec core::simulate; the audited sharded
  // fleet must reproduce them at every worker count from 1 to 4.
  std::vector<core::SimulationResult> plain;
  plain.reserve(in.specs.size());
  for (const fleet::SimSpec& spec : in.specs) plain.push_back(simulate(spec));
  std::vector<std::uint64_t> reference;
  std::uint64_t all = core::kFnvOffsetBasis;
  for (const std::vector<std::size_t>& indices : in.request_specs) {
    std::vector<core::SimulationResult> rows;
    for (const std::size_t i : indices) rows.push_back(plain[i]);
    const std::uint64_t digest = rows_digest(rows);
    all = core::fnv1a(core::hex64(digest), all);
    reference.push_back(report.reference(digest));
  }
  report.record_digest("sweep.rows", all);
  const double ratio = energy_ratio(plain);
  audit::AuditAggregator aggregator("perfbench_sweep");
  const std::size_t max_threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), workers, 4);
  for (std::size_t threads = 1; threads <= max_threads; ++threads) {
    sweep_pass(in, reference, aggregator, threads, report, nullptr);
  }

  if (!opt.trace) {
    TimedRates rates;
    setup.again(kSetupReps);
    run_for(opt.seconds, 3, [&] {
      rates.add(
          sweep_pass(in, reference, aggregator, workers, report, nullptr));
      setup.again();
    });
    report_rates(rates, setup.median_seconds(), ratio, report);
  } else {
    SpanRecorder rec;
    report.add("workloads.generate_ms", in.generate_seconds * 1e3, "ms");
    report.add("workloads.rta_accept_rate",
               per(static_cast<double>(in.sets.size()),
                   static_cast<double>(in.drawn)),
               "ratio");
    traced_phases(opt, rec, report, "sweep.pass", &PassTotals::sims,
                  [&](SpanRecorder* r) {
                    return sweep_pass(in, reference, aggregator, workers,
                                      report, r);
                  });
    probe_sim_layers(in.specs, rec, report);
    // The admission layers on WCET revisions of a spread of the sets.
    const std::size_t count = std::min<std::size_t>(opt.smoke ? 2 : 12,
                                                    in.sets.size());
    std::vector<admission::ChurnStream> streams;
    for (std::size_t i = 0; i < count; ++i) {
      streams.push_back(revision_stream(
          in.sets[i * (in.sets.size() / count)],
          runner::derive_seed(opt.seed, 5000 + i), opt.smoke ? 32 : 128));
    }
    probe_admission_layers(streams, rec, report);
    finish_trace(opt, rec);
  }
  const std::int64_t violations = aggregator.violation_count();
  report.failed += std::min(violations, report.attempted);
  std::printf("audit: %lld runs, %lld violations\n",
              static_cast<long long>(aggregator.runs()),
              static_cast<long long>(violations));
}

// ---- workload: paper-sims ---------------------------------------------------

struct PaperInput {
  std::vector<std::string> names;
  std::vector<sched::TaskSet> sets;
  std::int64_t schedulable = 0;
  double generate_seconds = 0.0;
  std::vector<fleet::SimSpec> specs;  ///< policy_pairs(sets)
};

PaperInput make_paper(std::uint64_t seed, bool smoke) {
  PaperInput in;
  const Stopwatch generate;
  std::vector<core::EngineOptions> options;
  for (const workloads::Workload& w : workloads::paper_workloads()) {
    in.names.push_back(w.name);
    in.sets.push_back(w.tasks.with_bcet_ratio(0.5));
    if (sched::is_schedulable_rta(in.sets.back())) ++in.schedulable;
    core::EngineOptions o;
    o.horizon = smoke ? std::min(w.horizon, 2e5) : kPaperHorizons * w.horizon;
    o.seed = runner::derive_seed(seed, options.size());
    options.push_back(o);
  }
  in.generate_seconds = generate.seconds();
  in.specs = policy_pairs(in.sets, options);
  return in;
}

/// core::simulate's SimState loop driven from here, so begin, the event
/// steps and finish each get a span; same results.
core::SimulationResult traced_paper_sim(const fleet::SimSpec& spec,
                                        SpanRecorder& rec) {
  ScopedSpan request(&rec, "paper.request");
  core::SimState state(spec.tasks, spec.processor, spec.policy,
                       spec.exec_model, spec.options);
  {
    ScopedSpan span(&rec, "core.begin");
    state.begin();
  }
  std::int64_t steps = 0;
  {
    ScopedSpan span(&rec, "core.step");
    while (!state.finished()) {
      state.step();
      ++steps;
    }
  }
  rec.count("core.steps", static_cast<double>(steps));
  ScopedSpan span(&rec, "core.finish");
  return state.finish();
}

PassTotals paper_pass(const PaperInput& in,
                      const std::vector<std::uint64_t>& reference,
                      Report& report, SpanRecorder* rec) {
  PassTotals pass;
  const Stopwatch whole;
  for (std::size_t i = 0; i < in.specs.size(); ++i) {
    pass.reference.push_back(reference_sample());
    core::SimulationResult result;
    bool ok = true;
    const Stopwatch clock;
    try {
      result = rec != nullptr ? traced_paper_sim(in.specs[i], *rec)
                              : simulate(in.specs[i]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "paper sim %zu failed: %s\n", i, e.what());
      ok = false;
    }
    const double seconds = clock.seconds();
    report.check(
        ok && core::fnv1a(io::result_csv_row(result)) == reference[i], 1);
    const std::int64_t events = result.scheduler_invocations;
    const bool lpfps = i % 2 == 1;
    pass.requests.push_back({seconds * 1e6, 1, lpfps ? 0 : events,
                             lpfps ? events : 0, !lpfps, lpfps});
  }
  pass.seconds = whole.seconds();
  return pass;
}

void run_paper(const Options& opt, Report& report) {
  SetupTimer setup([&] { return make_paper(opt.seed, opt.smoke); });
  const PaperInput in = setup.first();
  std::printf("paper-sims: %zu sims per pass, horizons", in.specs.size());
  for (std::size_t i = 0; i < in.specs.size(); i += 2) {
    std::printf(" %.0f", in.specs[i].options.horizon);
  }
  std::printf(" us\n");

  // The first, untimed pass is the reference every later pass (and the
  // traced run) must reproduce row for row.
  std::vector<core::SimulationResult> first;
  for (const fleet::SimSpec& spec : in.specs) first.push_back(simulate(spec));
  std::vector<std::uint64_t> reference;
  for (const core::SimulationResult& r : first) {
    reference.push_back(report.reference(core::fnv1a(io::result_csv_row(r))));
  }
  report.check(true, static_cast<std::int64_t>(first.size()));
  report.record_digest("paper.rows", rows_digest(first));
  const double ratio = energy_ratio(first);

  if (!opt.trace) {
    TimedRates rates;
    setup.again(kSetupReps);
    run_for(opt.seconds, 3, [&] {
      rates.add(paper_pass(in, reference, report, nullptr));
      setup.again();
    });
    report_rates(rates, setup.median_seconds(), ratio, report);
    // The per-set LPFPS/FPS throughput gap (request 2i is FPS, 2i+1 LPFPS).
    for (std::size_t i = 0; i + 1 < rates.work.size(); i += 2) {
      const double fps = per(static_cast<double>(rates.work[i].fps_events),
                             rates.seconds(i));
      const double lpfps =
          per(static_cast<double>(rates.work[i + 1].lpfps_events),
              rates.seconds(i + 1));
      std::printf("paper %-16s fps %.4g events/s, lpfps %.4g events/s, "
                  "gap x%.2f\n",
                  in.names[i / 2].c_str(), fps, lpfps, per(fps, lpfps));
    }
    return;
  }
  SpanRecorder rec;
  report.add("workloads.generate_ms", in.generate_seconds * 1e3, "ms");
  report.add("workloads.rta_accept_rate",
             per(static_cast<double>(in.schedulable),
                 static_cast<double>(in.sets.size())),
             "ratio");
  traced_phases(opt, rec, report, "paper.pass", &PassTotals::events,
                [&](SpanRecorder* r) {
                  return paper_pass(in, reference, report, r);
                });
  probe_sim_layers(in.specs, rec, report);
  std::vector<admission::ChurnStream> streams;
  for (std::size_t i = 0; i < in.sets.size(); ++i) {
    if (!sched::is_schedulable_rta(in.sets[i])) continue;
    streams.push_back(revision_stream(in.sets[i],
                                      runner::derive_seed(opt.seed, 5000 + i),
                                      opt.smoke ? 32 : 256));
  }
  probe_admission_layers(streams, rec, report);
  finish_trace(opt, rec);
}

// ---- workload: admission-churn ---------------------------------------------

struct AdmissionInput {
  std::vector<admission::ChurnStream> streams;
  double generate_seconds = 0.0;
  /// Services for the first pass, built as part of setup.
  std::vector<std::unique_ptr<admission::AdmissionService>> services;
};

AdmissionInput make_admission(std::uint64_t seed, bool smoke) {
  AdmissionInput in;
  const Stopwatch generate;
  const int streams = smoke ? 2 : kAdmissionStreams;
  for (int k = 0; k < streams; ++k) {
    // Resident sizes spread evenly over 50..100; the seed varies content.
    const int n = 50 + (streams > 1 ? 50 * k / (streams - 1) : 0);
    // The classic churn stream of bench/bench_admission.cc (churn_for):
    // the default 40/30/30 add/remove/mutate mix, arrivals sized like
    // residents, deadline-monotonic hints.  Only relative mutates are
    // added, as the workload asks for both kinds of mutate.
    admission::ChurnConfig churn;
    churn.initial_tasks = n;
    churn.initial_utilization = 0.45;
    churn.requests = smoke ? 64 : kAdmissionRequests;
    churn.task_utilization_min = 0.2 / n;
    churn.task_utilization_max = 1.5 / n;
    churn.deadline_monotonic_hints = true;
    churn.relative_mutates = kAdmissionRelativeMutates;
    in.streams.push_back(admission::make_churn_stream(
        churn, runner::derive_seed(seed, static_cast<std::uint64_t>(k))));
  }
  in.generate_seconds = generate.seconds();
  for (const admission::ChurnStream& stream : in.streams) {
    in.services.push_back(std::make_unique<admission::AdmissionService>(
        stream.initial, production_config()));
  }
  return in;
}

void run_admission(const Options& opt, Report& report) {
  SetupTimer setup([&] { return make_admission(opt.seed, opt.smoke); });
  AdmissionInput in = setup.first();
  std::size_t ops = 0;
  for (const admission::ChurnStream& s : in.streams) ops += s.ops.size();
  std::printf("admission-churn: %zu streams, %zu ops\n", in.streams.size(),
              ops);

  // Reference: one replay through the from-scratch arm, untimed.
  admission::ServiceConfig scratch = production_config();
  scratch.incremental = false;
  scratch.use_cache = false;
  std::vector<std::uint64_t> digests;
  const PassTotals reference_pass = admission_pass(
      in.streams, scratch, nullptr, nullptr, &digests, report, nullptr,
      nullptr);
  report.check(true, reference_pass.request_count());
  std::vector<std::uint64_t> reference;
  std::uint64_t all = core::kFnvOffsetBasis;
  for (const std::uint64_t d : digests) {
    reference.push_back(report.reference(d));
    all = core::fnv1a(core::hex64(d), all);
  }
  report.record_digest("admission.decisions", all);
  const admission::ServiceConfig config = production_config();

  if (!opt.trace) {
    TimedRates rates;
    setup.again(kSetupReps);
    run_for(opt.seconds, 3, [&] {
      // The first pass consumes the services built by setup.first().
      rates.add(admission_pass(in.streams, config, &in.services, &reference,
                               nullptr, report, nullptr, nullptr));
      setup.again();
    });
    report_rates(rates, setup.median_seconds(),
                     per(reference_pass.admitted_power,
                         static_cast<double>(reference_pass.admitted)),
                     report);
    return;
  }
  SpanRecorder rec;
  std::int64_t schedulable = 0;
  for (const admission::ChurnStream& s : in.streams) {
    if (sched::is_schedulable_rta(s.initial)) ++schedulable;
  }
  report.add("workloads.generate_ms", in.generate_seconds * 1e3, "ms");
  report.add("workloads.rta_accept_rate",
             per(static_cast<double>(schedulable),
                 static_cast<double>(in.streams.size())),
             "ratio");
  traced_phases(opt, rec, report, "admission.pass",
                &PassTotals::request_count,
                [&](SpanRecorder* r) {
                  return admission_pass(in.streams, config, nullptr,
                                        &reference, nullptr, report, nullptr,
                                        r);
                });
  probe_admission_layers(in.streams, rec, report);
  // The simulation layers on the resident sets themselves.
  std::vector<sched::TaskSet> sets;
  std::vector<core::EngineOptions> options;
  for (std::size_t k = 0; k < in.streams.size(); ++k) {
    sets.push_back(in.streams[k].initial);
    core::EngineOptions o;
    o.horizon = opt.smoke ? 1e5 : 1e6;
    o.seed = runner::derive_seed(opt.seed, 2000 + k);
    options.push_back(o);
  }
  probe_sim_layers(policy_pairs(sets, options), rec, report);
  finish_trace(opt, rec);
}

// ---- command line -----------------------------------------------------------

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "lpfps_perfbench: %s\nusage: lpfps_perfbench --workload "
               "<sweep|paper-sims|admission-churn> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--corrupt-digest] [--trace-out "
               "<file>]\n",
               problem.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--trace-out") {
        opt.trace_out = value();
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--corrupt-digest") {
        opt.corrupt_digest = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 3600.0)) {
    usage("--seconds must be in (0, 3600]");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // The library's environment knobs would change what is measured.
  for (const char* knob :
       {"LPFPS_AUDIT", "LPFPS_CYCLE", "LPFPS_FLEET", "LPFPS_JOBS",
        "LPFPS_ADMISSION_CACHE", "LPFPS_HORIZON_SCALE"}) {
    unsetenv(knob);
  }
  Report report;
  report.corrupt_digest = opt.corrupt_digest;
  try {
    if (opt.workload == "sweep") {
      run_sweep(opt, report);
    } else if (opt.workload == "paper-sims") {
      run_paper(opt, report);
    } else if (opt.workload == "admission-churn") {
      run_admission(opt, report);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lpfps_perfbench: %s\n", e.what());
    return 1;
  }

  for (const auto& [name, digest] : report.digests) {
    std::printf("digest %s %s\n", name.c_str(), digest.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.failed == 0 ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
