#include "audit/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/bench_json.h"

namespace lpfps::audit {

namespace {

/// enabled() runs once per audited simulation, so a bad value is named
/// once, not once per run: the line repeats only when the value changes.
void warn_unrecognised(const char* value) {
  static std::mutex mutex;
  static std::string last_warned;
  const std::lock_guard<std::mutex> lock(mutex);
  if (last_warned == value) return;
  last_warned = value;
  std::fprintf(stderr,
               "audit: ignoring LPFPS_AUDIT=%s (not 0/off/false or "
               "1/on/true); the audit stays on\n",
               value);
}

}  // namespace

bool enabled() {
  const char* value = std::getenv("LPFPS_AUDIT");
  if (value == nullptr || *value == '\0') return true;
  for (const char* on : {"1", "on", "true"}) {
    if (std::strcmp(value, on) == 0) return true;
  }
  for (const char* off : {"0", "off", "false"}) {
    if (std::strcmp(value, off) == 0) return false;
  }
  warn_unrecognised(value);
  return true;
}

AuditOptions derive_options(const core::SchedulerPolicy& policy,
                            const core::EngineOptions& options) {
  AuditOptions audit;
  audit.base_ratio = policy.static_ratio;
  audit.expect_no_misses = options.throw_on_miss;
  // Context-switch overhead inflates job demand past the nominal WCET
  // by design, so the J3 bound does not apply.
  audit.check_job_demand = options.context_switch_cost <= 0.0;
  // Under release jitter the scheduler legally idles while an invisible
  // (staged) job is pending, plans abort on staged arrivals, and a late
  // job's nominal release can fall inside a plan.
  const bool jitter_free = options.release_jitter.empty();

  // Fault wiring (docs/ROBUSTNESS.md): arm the F checks and relax the
  // invariants an injected overrun legitimately breaks.
  const bool overruns = options.faults.overruns_enabled();
  const faults::OverrunAction action = options.containment.on_overrun;
  audit.faults_injected = overruns;
  audit.containment = action;
  audit.safe_mode_fallback = options.containment.safe_mode_fallback;

  // J3: a kill caps every surviving job at its budget, so the WCET bound
  // still holds; monitoring lets demand exceed it.
  const bool kills = action == faults::OverrunAction::kKill;
  if (overruns && !kills) audit.check_job_demand = false;
  // S1: a kill may forfeit releases the nominal pending model still
  // counts.
  audit.check_work_conserving = jitter_free && !(overruns && kills);
  audit.check_full_speed_at_releases = jitter_free;
  audit.check_dvs_plans = jitter_free && policy.uses_dvs();
  // Weakly-hard governor (docs/WEAKLY_HARD.md): arm the W checks and
  // the skip-aware S2/D1 relaxations.  With no weakly-hard tasks the
  // run has no skip records and every W check is a no-op, so keying on
  // the configured policy alone — the task set is not in hand here —
  // is safe.
  audit.weakly_hard =
      options.weakly_hard.policy != weakly_hard::SkipPolicy::kNever;
  return audit;
}

void CounterTotals::add(const core::SimulationResult& result) {
  ++runs;
  jobs_completed += result.jobs_completed;
  deadline_misses += result.deadline_misses;
  context_switches += result.context_switches;
  scheduler_invocations += result.scheduler_invocations;
  speed_changes += result.speed_changes;
  power_downs += result.power_downs;
  dvs_slowdowns += result.dvs_slowdowns;
  run_queue_high_water =
      std::max<std::int64_t>(run_queue_high_water, result.run_queue_high_water);
  delay_queue_high_water = std::max<std::int64_t>(
      delay_queue_high_water, result.delay_queue_high_water);
  simulated_time += result.simulated_time;
  total_energy += result.total_energy;
  overruns_detected += result.overruns_detected;
  jobs_killed += result.jobs_killed;
  jobs_skipped += result.jobs_skipped;
  safe_mode_entries += result.safe_mode_entries;
  jobs_skipped_weakly += result.jobs_skipped_weakly;
  mk_violations += result.mk_violations;
}

AuditAggregator::AuditAggregator(std::string name)
    : name_(std::move(name)) {}

void AuditAggregator::add(const AuditReport& report,
                          const core::SimulationResult& result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.add(result);
  segments_checked_ += report.segments_checked;
  jobs_checked_ += report.jobs_checked;
  plans_checked_ += report.plans_checked;
  violation_count_ += static_cast<std::int64_t>(report.violations.size());
  for (const Violation& v : report.violations) {
    if (samples_.size() >= 32) break;
    samples_.push_back(v);
  }
}

std::int64_t AuditAggregator::runs() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_.runs;
}

std::int64_t AuditAggregator::violation_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return violation_count_;
}

CounterTotals AuditAggregator::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::string AuditAggregator::summary_line() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "audit[" << name_ << "]: " << counters_.runs << " runs, "
     << segments_checked_ << " segments, " << jobs_checked_ << " jobs, "
     << plans_checked_ << " plans, " << violation_count_ << " violations";
  return os.str();
}

std::string AuditAggregator::write_report() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  io::BenchJsonWriter json(name_, "AUDIT_");
  json.meta()
      .set("kind", "audit_report")
      .set("runs", counters_.runs)
      .set("segments_checked", segments_checked_)
      .set("jobs_checked", jobs_checked_)
      .set("plans_checked", plans_checked_)
      .set("violations", violation_count_)
      .set("jobs_completed", counters_.jobs_completed)
      .set("deadline_misses", counters_.deadline_misses)
      .set("context_switches", counters_.context_switches)
      .set("scheduler_invocations", counters_.scheduler_invocations)
      .set("speed_changes", counters_.speed_changes)
      .set("power_downs", counters_.power_downs)
      .set("dvs_slowdowns", counters_.dvs_slowdowns)
      .set("run_queue_high_water", counters_.run_queue_high_water)
      .set("delay_queue_high_water", counters_.delay_queue_high_water)
      .set("simulated_time_us", counters_.simulated_time)
      .set("total_energy", counters_.total_energy)
      .set("overruns_detected", counters_.overruns_detected)
      .set("jobs_killed", counters_.jobs_killed)
      .set("jobs_skipped", counters_.jobs_skipped)
      .set("safe_mode_entries", counters_.safe_mode_entries)
      .set("jobs_skipped_weakly", counters_.jobs_skipped_weakly)
      .set("mk_violations", counters_.mk_violations);
  for (const Violation& v : samples_) {
    json.add_point()
        .set("invariant", v.invariant)
        .set("at_us", v.at)
        .set("message", v.message);
  }
  return json.write();
}

void AuditAggregator::check() const {
  std::string detail;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (violation_count_ == 0) return;
    std::ostringstream os;
    os << "audit[" << name_ << "] found " << violation_count_
       << " invariant violation(s) across " << counters_.runs << " runs";
    for (const Violation& v : samples_) {
      os << "\n  [" << v.invariant << "] t=" << v.at << ": " << v.message;
    }
    detail = os.str();
  }
  throw std::runtime_error(detail);
}

core::SimulationResult simulate(const sched::TaskSet& tasks,
                                const power::ProcessorConfig& processor,
                                const core::SchedulerPolicy& policy,
                                const exec::ExecModelPtr& exec_model,
                                const core::EngineOptions& options,
                                AuditAggregator* aggregator) {
  // The one-spec batch, run on the calling thread.
  std::vector<fleet::SimSpec> specs;
  specs.push_back({tasks, processor, policy, exec_model, options});
  return std::move(
      simulate_fleet_sharded(std::move(specs), {}, aggregator, 1).front());
}

std::vector<core::SimulationResult> simulate_fleet_sharded(
    std::vector<fleet::SimSpec> specs,
    const fleet::FleetOptions& fleet_options, AuditAggregator* aggregator,
    std::size_t threads) {
  if (!enabled()) {
    return fleet::run_fleet_sharded(std::move(specs), fleet_options, threads);
  }
  std::vector<bool> wanted_trace(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    wanted_trace[i] = specs[i].options.record_trace;
    specs[i].options.record_trace = true;
  }
  // Filled on the workers, one slot per spec.  derive_options ignores
  // record_trace, so auditing against the forced spec is auditing
  // against the caller's.
  std::vector<AuditReport> reports(specs.size());
  std::vector<core::SimulationResult> results = fleet::run_fleet_sharded(
      std::move(specs), fleet_options, threads,
      [&](std::size_t i, const fleet::SimSpec& spec,
          core::SimulationResult& result) {
        AuditReport report =
            audit_run(result, spec.tasks, spec.processor,
                      derive_options(spec.policy, spec.options));
        if (aggregator == nullptr && !report.ok()) {
          throw std::runtime_error("trace audit failed for policy '" +
                                   spec.policy.name +
                                   "': " + report.to_string());
        }
        reports[i] = std::move(report);
        if (!wanted_trace[i]) result.trace.reset();
      });
  if (aggregator != nullptr) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      aggregator->add(reports[i], results[i]);
    }
  }
  return results;
}

}  // namespace lpfps::audit
