// Default-on audit wiring for benches and sweeps.
//
// audit::simulate_fleet_sharded runs a batch of simulations, records a
// trace of each, runs the full audit_run battery on it, and throws (or
// feeds a shared AuditAggregator) on any violation — so every bench is a
// self-verifying experiment; audit::simulate, a drop-in for
// core::simulate, is its one-spec case.  The auditor is on by default
// and opt-out via the LPFPS_AUDIT environment variable
// ("0"/"off"/"false" disables it); with it off, audit::simulate returns
// exactly what core::simulate does.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "core/engine.h"
#include "fleet/fleet.h"

namespace lpfps::audit {

/// The LPFPS_AUDIT switch, re-read per call so tests can toggle it.
/// Unset, empty, "1", "on" and "true" mean on; "0", "off" and "false"
/// mean off.  Any other value keeps the default (on) and is named in
/// one stderr line, repeated only when the value changes, as
/// runner::default_job_count names a bad LPFPS_JOBS.
bool enabled();

/// Audit options matching how the engine was configured: the policy's
/// static base ratio, the miss contract, and the checks that release
/// jitter or context-switch overhead legitimately invalidate.
AuditOptions derive_options(const core::SchedulerPolicy& policy,
                            const core::EngineOptions& options);

/// Order-independent counter aggregation across a batch of runs (the
/// runtime-counter side of the observability layer).
struct CounterTotals {
  std::int64_t runs = 0;
  std::int64_t jobs_completed = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t context_switches = 0;
  std::int64_t scheduler_invocations = 0;
  std::int64_t speed_changes = 0;
  std::int64_t power_downs = 0;
  std::int64_t dvs_slowdowns = 0;
  std::int64_t run_queue_high_water = 0;    ///< Max across runs.
  std::int64_t delay_queue_high_water = 0;  ///< Max across runs.
  Time simulated_time = 0.0;
  Energy total_energy = 0.0;
  /// Fault detection / containment totals (docs/ROBUSTNESS.md); all
  /// zero unless the batch injected faults or armed containment.
  std::int64_t overruns_detected = 0;
  std::int64_t ramp_faults_detected = 0;
  std::int64_t late_wakeups_detected = 0;
  std::int64_t jobs_killed = 0;
  std::int64_t jobs_throttled = 0;
  std::int64_t jobs_skipped = 0;
  std::int64_t safe_mode_entries = 0;
  /// Weakly-hard governor totals (docs/WEAKLY_HARD.md); zero unless the
  /// batch armed the skip governor.
  std::int64_t jobs_skipped_weakly = 0;
  std::int64_t mk_violations = 0;

  void add(const core::SimulationResult& result);
};

/// CSV row for a CounterTotals (the audit report's CSV form).
std::string counters_csv_header();
std::string counters_csv_row(const CounterTotals& totals);

/// Thread-safe collector for audited batches: accumulates counters and
/// violations across parallel runs, prints one deterministic summary
/// line, and writes an AUDIT_<name>.json report next to the BENCH json.
class AuditAggregator {
 public:
  explicit AuditAggregator(std::string name);

  /// Folds one audited run in.  Safe to call from run_batch workers.
  void add(const AuditReport& report, const core::SimulationResult& result);

  std::int64_t runs() const;
  std::int64_t violation_count() const;
  CounterTotals counters() const;

  /// One line, bit-identical for any LPFPS_JOBS (sums and maxes only),
  /// e.g. "audit[random_tasksets]: 360 runs, ... 0 violations".
  std::string summary_line() const;

  /// Writes AUDIT_<name>.json (schema in docs/OBSERVABILITY.md) into
  /// LPFPS_BENCH_JSON_DIR or the working directory; returns the path.
  std::string write_report() const;

  /// Throws std::runtime_error if any violation was recorded.
  void check() const;

 private:
  mutable std::mutex mutex_;
  std::string name_;
  CounterTotals counters_;
  std::int64_t segments_checked_ = 0;
  std::int64_t jobs_checked_ = 0;
  std::int64_t plans_checked_ = 0;
  std::int64_t violation_count_ = 0;
  std::vector<Violation> samples_;  ///< First few violations, for reports.
};

/// core::simulate + default-on audit: the one-spec case of
/// simulate_fleet_sharded below, run on the calling thread.  Forces a
/// recorded trace while the audit is enabled, audits it, then drops the
/// trace again unless the caller asked for it.  On a violation: throws
/// std::runtime_error, or records into `aggregator` when one is supplied
/// (batch mode — the caller invokes aggregator->check() after the
/// batch).
core::SimulationResult simulate(const sched::TaskSet& tasks,
                                const power::ProcessorConfig& processor,
                                const core::SchedulerPolicy& policy,
                                const exec::ExecModelPtr& exec_model,
                                const core::EngineOptions& options,
                                AuditAggregator* aggregator = nullptr);

/// The audited batch: runs `specs` through fleet::run_fleet_sharded
/// (one FleetEngine per ThreadPool worker, contiguous positional
/// shards) with traces forced on while the audit is enabled.  Each
/// worker audits every simulation against its own spec as soon as it
/// finishes, then drops the trace unless the spec asked for it.
/// Results come back in spec order, bit-identical to per-spec
/// audit::simulate calls.  On a violation: throws (the lowest-index
/// failing spec wins, as for a failing simulation), or, when an
/// `aggregator` is supplied, records the reports into it in spec order
/// after the batch — so its sums, and the AUDIT json, are identical
/// for any worker count.  `threads == 0` means
/// runner::default_job_count() (LPFPS_JOBS).  With the audit disabled
/// this is exactly fleet::run_fleet_sharded.
std::vector<core::SimulationResult> simulate_fleet_sharded(
    std::vector<fleet::SimSpec> specs, const fleet::FleetOptions& fleet_options,
    AuditAggregator* aggregator = nullptr, std::size_t threads = 0);

}  // namespace lpfps::audit
