// Method bodies of core::SimState — the engine main loop (see
// sim_state.h for the contract).  core::simulate and the fleet engine
// both drive it, so this file *is* the reference simulation semantics.
#include "core/sim_state.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/float_compare.h"
#include "core/speed_ratio.h"
#include "power/speed_profile.h"
#include "sched/analysis.h"

namespace lpfps::core {

using namespace detail;

namespace {

/// Hard RTA verdict for the structural overload latch: a set that cannot
/// meet every deadline even at full speed is in permanent overload, so
/// the governor degrades from t = 0.  Sets outside the RTA's D <= T
/// domain fall back to the utilization test alone (the dynamic latch
/// still covers them at run time).
bool hard_rta_schedulable(const sched::TaskSet& tasks) {
  if (tasks.utilization() > 1.0) return false;
  for (const sched::Task& t : tasks.tasks()) {
    if (t.deadline > t.period) return true;
  }
  return sched::is_schedulable_rta(tasks);
}

/// The checks the constructor runs before binding a spec: a non-empty,
/// valid task set, a valid processor and policy, and options that fit
/// them.  Throws std::logic_error on the first violation.  Returns
/// `tasks`, so it can run as the constructor's first member initializer.
const sched::TaskSet& validate_spec(const sched::TaskSet& tasks,
                                    const power::ProcessorConfig& processor,
                                    const SchedulerPolicy& policy,
                                    const EngineOptions& options) {
  LPFPS_CHECK_MSG(!tasks.empty(), "engine needs at least one task");
  LPFPS_CHECK(options.horizon > 0.0);
  LPFPS_CHECK(options.context_switch_cost >= 0.0);
  LPFPS_CHECK_MSG(options.release_jitter.empty() ||
                      options.release_jitter.size() == tasks.size(),
                  "release_jitter must have one entry per task");
  for (const Time j : options.release_jitter) LPFPS_CHECK(j >= 0.0);
  LPFPS_CHECK(options.timer_granularity >= 0.0);
  options.faults.validate(tasks.size());
  options.containment.validate();
  tasks.validate();
  processor.validate();
  policy.validate();
  if (tasks.has_weakly_hard() &&
      options.weakly_hard.policy != weakly_hard::SkipPolicy::kNever) {
    // Throttling resumes a job across enforcement windows, settling its
    // forfeited windows out of instance order — the governor's history
    // masks (and the auditor's replay) require in-order settlement.
    // Throttling *is* already a weakly-hard degradation mechanism; use
    // kill containment alongside the governor instead.
    LPFPS_CHECK_MSG(
        options.containment.on_overrun != faults::OverrunAction::kThrottle,
        "throttle containment cannot combine with the weakly-hard governor");
  }
  return tasks;
}

}  // namespace

void SimState::end_plan() {
  plan_active_ = false;
  plan_up_started_ = false;
  plan_rampup_start_ = kNeverPoint;
  plan_end_ = kNeverPoint;
}

SimState::SimState(const sched::TaskSet& tasks,
                   const power::ProcessorConfig& processor,
                   const SchedulerPolicy& policy,
                   const exec::ExecModelPtr& exec_model,
                   const EngineOptions& options)
    // Validation comes first, so a bad spec throws before anything is
    // built — in particular before the FaultyExecModel below, whose own
    // overrun checks would otherwise report a bad fault plan differently.
    : tasks_(&validate_spec(tasks, processor, policy, options)),
      processor_(&processor),
      policy_(&policy),
      exec_model_(exec_model),
      options_(&options),
      rng_(options.seed),
      power_model_(processor.make_power_model()),
      accumulator_(&power_model_),
      jobs_(tasks.size()),
      next_instance_(tasks.size(), 0),
      per_task_(tasks.size()),
      detection_enabled_(options.faults.any() || options.containment.enabled()),
      faults_injected_(options.faults.any()),
      overruns_possible_(options.faults.overruns_enabled()),
      ramp_fault_armed_(options.faults.ramp.enabled()),
      // The physical ramp slope.  With no ramp fault this is the exact
      // same double as the spec value, keeping fault-free runs
      // bit-identical; under a fault the scheduler keeps planning with
      // the spec rho while the hardware moves at this one.
      effective_ramp_rate_(
          ramp_fault_armed_
              ? processor.ramp_rate * options.faults.ramp.rho_factor
              : processor.ramp_rate),
      // Weakly-hard governor wiring, resolved once: disarmed runs (no
      // weakly-hard tasks, or policy kNever) never touch any of it,
      // keeping them bit-identical to the hard engine.  begin() computes
      // the structural overload latch.
      weakly_hard_enabled_(tasks.has_weakly_hard() &&
                           options.weakly_hard.policy !=
                               weakly_hard::SkipPolicy::kNever),
      skip_dvs_(weakly_hard_enabled_ && options.weakly_hard.skip_dvs),
      skip_policy_(weakly_hard_enabled_ ? options.weakly_hard.policy
                                        : weakly_hard::SkipPolicy::kNever) {
  // Each queue holds at most one entry per task, so with every per-task
  // buffer sized here nothing in the scheduling hot path allocates.
  run_queue_.reserve(tasks.size());
  delay_queue_.reserve(tasks.size());
  staged_.reserve(tasks.size());
  if (overruns_possible_) {
    std::vector<std::string> names;
    names.reserve(tasks.size());
    for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks.size()); ++i) {
      names.push_back(tasks[i].name);
    }
    faulty_model_ = std::make_shared<exec::FaultyExecModel>(
        exec_model, options.faults.overruns, std::move(names));
  }
  if (weakly_hard_enabled_) governor_.reset(tasks);
}

void SimState::start_job(TaskIndex index) {
  JobState& state = job(index);
  auto& instance = next_instance_[static_cast<std::size_t>(index)];
  const sched::Task& t = task(index);
  if (state.throttled) {
    // Resuming a throttled job: it keeps its identity (instance,
    // release, deadline) and residual demand; only the enforcement
    // window is new, with a freshly replenished budget.
    state.throttled = false;
    state.window_release = static_cast<Time>(t.phase) +
                           static_cast<Time>(instance * t.period);
    ++instance;
    state.budget_used = 0.0;
    state.overhead = 0.0;
    state.over_budget = false;
    return;
  }
  state.instance = instance++;
  state.release = static_cast<Time>(t.phase) +
                  static_cast<Time>(state.instance * t.period);
  state.window_release = state.release;
  state.executed = 0.0;
  state.budget_used = 0.0;
  state.overhead = 0.0;
  state.over_budget = false;
  state.throttled = false;
  const exec::ExecutionTimeModel* model =
      faulty_model_ != nullptr ? faulty_model_.get() : exec_model_.get();
  if (model != nullptr) {
    state.total_work = model->sample(t, rng_);
    // Running longer than the WCET would void every guarantee; running
    // shorter than the nominal BCET is harmless (BCET only parameterizes
    // execution-time models) and scenario models exploit it.  Injected
    // overruns violate the upper bound by design — that is the lie the
    // containment machinery exists to absorb.
    LPFPS_CHECK_MSG(state.total_work > 0.0 &&
                        (overruns_possible_ ||
                         state.total_work <= t.wcet + kTimeEpsilon),
                    t.name);
  } else {
    state.total_work = t.wcet;
  }
}

// inline: both L5-L7 loops call it on every release.  Left out of line
// (GCC 12, -O3) it cost FPS runs about 4% of their events/sec on a
// 4-vCPU x86-64 host.
inline bool SimState::release_job(TaskIndex index) {
  start_job(index);
  // Throttle containment is banned while the governor is armed
  // (validate_spec), so every entry reaching the governor is a fresh
  // release.
  if (weakly_hard_enabled_) {
    note_release_pressure(index);
    if (weakly_hard_should_skip(index)) {
      skip_released_job(index);
      return false;
    }
  }
  TimePoint ready = at(job(index).release);
  if (!options_->release_jitter.empty()) {
    ready.offset += rng_.uniform(
        0.0, options_->release_jitter[static_cast<std::size_t>(index)]);
  }
  if (tp_approx_le(ready, now_)) {
    run_queue_.insert({index, task(index).priority});
  } else {
    staged_.push_back({index, ready});
  }
  return true;
}

Time SimState::next_arrival_for_active() const {
  if (!skip_dvs_) {
    if (const auto release = delay_queue_.next_release();
        release.has_value()) {
      return *release;
    }
  } else if (!delay_queue_.empty()) {
    // Earliest pending release whose job will actually demand the CPU:
    // a release the governor certainly skips — permission already
    // earned (the task's window history is frozen while it waits in the
    // delay queue) and the overload latch unable to clear before the
    // CPU next idles — defers that task's demand by one period.
    // Lookahead is a single skip: the skip itself changes the task's
    // window, so nothing further is certain.
    Time best = kNever;
    for (const sched::DelayEntry& entry : delay_queue_.entries()) {
      Time candidate = entry.release_time;
      if (weakly_hard_should_skip(entry.task)) {
        candidate += static_cast<Time>(task(entry.task).period);
      }
      best = std::min(best, candidate);
    }
    return best;
  }
  // Single-task system: the processor is free until the task's own next
  // period begins (the enforcement window's end, which coincides with
  // the release for uncontained jobs).
  const JobState& state = jobs_[static_cast<std::size_t>(active_)];
  return state.window_release + static_cast<Time>(task(active_).period);
}

bool SimState::weakly_hard_should_skip(TaskIndex index) const {
  return governor_.should_skip(index, skip_policy_,
                               overload_structural_ || overload_dynamic_);
}

void SimState::note_release_pressure(TaskIndex index) {
  if (overload_structural_ || overload_dynamic_) return;
  if (skip_policy_ != weakly_hard::SkipPolicy::kOverload) return;
  const sched::Task& t = task(index);
  const JobState& released = job(index);
  // Release-time overload probe: the declared demand that must clear
  // before this job's deadline at base speed — its own WCET plus the
  // remaining declared budgets of every strictly-higher-priority job in
  // flight.  Conservative and cheap; the structural latch covers
  // admission-time infeasibility, this catches runtime pile-ups
  // (overrun and containment backlogs) before they turn into misses.
  Work demand = t.wcet;
  const auto add_if_higher = [&](TaskIndex other) {
    const sched::Task& o = task(other);
    if (o.priority >= t.priority) return;
    const JobState& s = jobs_[static_cast<std::size_t>(other)];
    demand += snap_nonnegative(o.wcet + s.overhead - s.executed);
  };
  if (active_ != kNoTask) add_if_higher(active_);
  for (const sched::RunEntry& entry : run_queue_.entries()) {
    add_if_higher(entry.task);
  }
  const Time deadline = released.release + static_cast<Time>(t.deadline);
  if (tp_definitely_greater(after(now_, demand / base_ratio_),
                            at(deadline))) {
    overload_dynamic_ = true;
  }
}

void SimState::skip_released_job(TaskIndex index) {
  const sched::Task& t = task(index);
  JobState& state = job(index);
  if (options_->record_trace) {
    sim::JobRecord record;
    record.task = index;
    record.instance = state.instance;
    record.release = state.release;
    record.absolute_deadline =
        state.release + static_cast<Time>(t.deadline);
    record.completion = now_.absolute();
    record.executed = 0.0;
    record.finished = false;
    record.skipped = true;
    // A skip is a scheduling decision, not a late completion: the miss
    // flag (and counter) stay untouched; the governor's (m,k) ledger
    // carries the QoS accounting instead.
    trace_.add_job(record);
  }
  settle_weakly_hard(index, /*met=*/false, /*skipped=*/true);
  delay_queue_.insert(
      {index, state.window_release + static_cast<Time>(t.period)});
}

void SimState::settle_weakly_hard(TaskIndex index, bool met, bool skipped) {
  if (!weakly_hard_enabled_) return;
  governor_.settle(index, met, skipped);
}

void SimState::try_slowdown() {
  LPFPS_CHECK(active_ != kNoTask);
  LPFPS_CHECK(approx_equal(ratio_, base_ratio_, 1e-12));
  // A released-but-jitter-delayed job can become visible at any moment;
  // the exact-knowledge premise of the slowdown does not hold.
  if (!staged_.empty()) return;
  const sched::Task& t = task(active_);
  const JobState& state = job(active_);

  // Context-switch overhead can push a job's demand past its nominal
  // WCET; the WCET-based slack computation below would then lie, so
  // leave such jobs at base speed.  Under injected overruns the
  // scheduler is no longer omniscient — it knows only E_i against the
  // declared budget C_i (plus tracked kernel overhead), so the test
  // becomes: a job at or past its budget signals an overrun in
  // progress, not slack.
  if (overruns_possible_) {
    if (state.executed >= t.wcet + state.overhead - kTimeEpsilon) return;
  } else if (state.total_work > t.wcet + kTimeEpsilon) {
    return;
  }

  const Time arrival = next_arrival_for_active();
  // Safety cap (see engine.h): never stretch past the active task's own
  // absolute deadline.
  const Time window_end =
      std::min(arrival, state.release + static_cast<Time>(t.deadline));
  const Time window = span(now_, at(window_end));
  const Work remaining = snap_nonnegative(t.wcet - state.executed);
  // Slack exists only if the remaining worst-case work fits below the
  // base clock inside the window (base_ratio_ == 1 gives the paper's
  // Theorem 1 hypotheses; the hybrid policy measures slack against its
  // static base speed instead).
  if (!(window > 0.0 && remaining < base_ratio_ * window)) return;

  const Ratio desired =
      policy_->dvs == RatioMethod::kOptimal
          ? optimal_ratio_to_target(remaining, window,
                                    processor_->ramp_rate, base_ratio_)
          : heuristic_ratio(remaining, window);
  const Ratio quantized = processor_->frequencies.quantize_up(desired);
  if (quantized >= base_ratio_ - 1e-12) return;

  // Both the down-ramp (now) and the just-in-time up-ramp (before
  // window_end) must fit into the window without overlapping; otherwise
  // the slack is too short to exploit and we stay at base speed.  The
  // paper's Figure 7 discussion covers exactly this short-window regime.
  const Time ramp = (base_ratio_ - quantized) / processor_->ramp_rate;
  const TimePoint up_start{window_end, -ramp};
  if (tp_definitely_greater(after(now_, ramp), up_start)) return;

  ramp_target_ = quantized;
  reinvoke_after_ramp_ = false;
  ++speed_changes_;
  ++dvs_slowdowns_;
  plan_active_ = true;
  plan_up_started_ = false;
  plan_rampup_start_ = up_start;
  plan_end_ = at(window_end);
}

void SimState::enter_power_down() {
  LPFPS_CHECK(state_ == CpuState::kIdle && active_ == kNoTask);
  LPFPS_CHECK(approx_equal(ratio_, base_ratio_, 1e-12));
  // Safe mode runs plain FPS: no power-down until the episode ends at
  // the next idle instant.  The idle branch clears the flag before the
  // idle-policy switch, so this guard is belt-and-braces for the
  // timeout-shutdown path.
  if (safe_mode_) return;
  // An imminent jitter-delayed arrival forbids sleeping: the timer's
  // "exact knowledge" premise does not hold.
  if (!staged_.empty()) return;
  const auto release = delay_queue_.next_release();
  if (!release.has_value()) return;  // Everything in flight is staged.
  // Pick the deepest sleep state whose wake-up fits the known gap
  // (the classic single 5%/10-cycle state unless a hierarchy is
  // configured), then set the timer early by its latency (L14).
  const auto state =
      processor_->deepest_state_for_gap(span(now_, at(*release)));
  if (!state.has_value()) return;  // Gap too short for any state.
  const Time latency =
      state->wakeup_cycles / processor_->frequencies.f_max();
  TimePoint timer{*release, -latency};  // L14.
  if (options_->timer_granularity > 0.0) {
    // Tick-based kernels wake on the grid: round down (early is safe).
    timer = at(std::floor(timer.absolute() / options_->timer_granularity) *
               options_->timer_granularity);
  }
  if (!tp_definitely_greater(timer, now_)) return;  // Too close to sleep.
  state_ = CpuState::kPowerDown;
  wake_at_ = timer;
  wake_programmed_ = timer;
  if (options_->faults.wakeup.enabled() &&
      rng_.uniform(0.0, 1.0) < options_->faults.wakeup.probability) {
    // The timer hardware fires late; wake_programmed_ keeps the spec
    // instant detection compares against when the wake finally lands.
    wake_at_ =
        after(timer, rng_.uniform(0.0, options_->faults.wakeup.max_delay));
  }
  wake_end_ = kNeverPoint;
  sleep_power_fraction_ = state->power_fraction;
  sleep_wake_latency_ = latency;
  shutdown_at_ = kNeverPoint;
  ++power_downs_;
}

void SimState::invoke_scheduler() {
  invoke_scheduler_impl();
  if (options_->invocation_hook) {
    sched::QueueSnapshot snapshot;
    snapshot.time = now_.absolute();
    snapshot.run_queue = run_queue_.entries();
    snapshot.delay_queue = delay_queue_.entries();
    snapshot.active_task = active_;
    snapshot.active_executed =
        active_ == kNoTask ? 0.0 : job(active_).executed;
    options_->invocation_hook(snapshot);
  }
}

bool SimState::consume_releases_under_plan() {
  // Skip-to-slack conversion (docs/WEAKLY_HARD.md): consume due releases
  // the governor skips so they do not tear down the slowdown plan that
  // was sized against the skip-aware arrival.  The first non-skipped due
  // release is handed over exactly as L5-L7 would and ends the plan via
  // the ordinary L1-L4 ramp-up.  skip_dvs_ implies an armed governor.
  while (!delay_queue_.empty() &&
         tp_approx_le(at(delay_queue_.head().release_time), now_)) {
    if (release_job(delay_queue_.pop_head().task)) break;
  }
  bool staged_due = false;
  for (const auto& entry : staged_) {
    if (tp_approx_le(entry.ready, now_)) staged_due = true;
  }
  // Fully handled only if nothing else demands the scheduler right now:
  // the plan continues uninterrupted through the skipped arrivals.
  return run_queue_.empty() && !staged_due && active_ != kNoTask &&
         (delay_queue_.empty() ||
          !tp_approx_le(at(delay_queue_.head().release_time), now_));
}

void SimState::invoke_scheduler_impl() {
  ++scheduler_invocations_;

  // Skip-aware DVS: under an active slowdown plan, arrivals the governor
  // skips are consumed without ramping back to base — the plan keeps
  // running through them.
  if (skip_dvs_ && plan_active_ && active_ != kNoTask &&
      consume_releases_under_plan()) {
    sample_queue_depths();
    return;
  }

  // L1-L4: restore full (base) speed before any decision.
  if (ratio_ < base_ratio_ - 1e-12 || ramp_target_ < base_ratio_ - 1e-12) {
    if (!(ramp_target_ == base_ratio_ && ratio_ < ramp_target_)) {
      // Not already ramping up: redirect toward full speed.
      ramp_target_ = base_ratio_;
      ++speed_changes_;
    }
    reinvoke_after_ramp_ = true;
    return;
  }

  // L5-L7: release due tasks (via the jitter stage when configured).
  while (!delay_queue_.empty() &&
         tp_approx_le(at(delay_queue_.head().release_time), now_)) {
    release_job(delay_queue_.pop_head().task);
  }
  for (auto it = staged_.begin(); it != staged_.end();) {
    if (tp_approx_le(it->ready, now_)) {
      run_queue_.insert({it->task, task(it->task).priority});
      it = staged_.erase(it);
    } else {
      ++it;
    }
  }

  // L8-L11: dispatch / preempt.
  if (active_ == kNoTask) {
    if (!run_queue_.empty()) active_ = run_queue_.pop_head().task;
  } else if (!run_queue_.empty() &&
             run_queue_.head().priority < task(active_).priority) {
    run_queue_.insert({active_, task(active_).priority});
    active_ = run_queue_.pop_head().task;
    ++context_switches_;
    // Kernel save/restore overhead executes ahead of the incoming job's
    // own work, at the prevailing clock.  The budget tracks it too: the
    // overhead is the kernel's own doing, not the job lying.
    job(active_).total_work += options_->context_switch_cost;
    job(active_).overhead += options_->context_switch_cost;
  }

  // L12-L21: power management when the run queue is empty.
  if (active_ != kNoTask) {
    state_ = CpuState::kRunning;
    shutdown_at_ = kNeverPoint;
    if (run_queue_.empty() && policy_->uses_dvs() && !safe_mode_) {
      try_slowdown();
    }
    sample_queue_depths();
    return;
  }

  state_ = CpuState::kIdle;
  sample_queue_depths();
  // An idle instant ends any safe-mode episode: the anomaly's backlog
  // has drained, so DVS and power-down become trustworthy again —
  // including at this very instant (the switch below may sleep).
  safe_mode_ = false;
  // It likewise ends a dynamic overload episode — the backlog that
  // predicted or produced misses is gone.  (The structural latch, a
  // property of the task set, never clears.)
  overload_dynamic_ = false;
  if (delay_queue_.empty()) return;  // No future work at all.
  switch (policy_->idle) {
    case IdleMethod::kBusyWait:
      break;
    case IdleMethod::kExactPowerDown:
      enter_power_down();
      break;
    case IdleMethod::kTimeoutShutdown:
      shutdown_at_ = after(now_, policy_->shutdown_timeout);
      break;
  }
}

void SimState::finish_active_job() {
  LPFPS_CHECK(active_ != kNoTask);
  const sched::Task& t = task(active_);
  JobState& state = job(active_);
  LPFPS_CHECK(approx_ge(state.executed, state.total_work));

  sim::JobRecord record;
  record.task = active_;
  record.instance = state.instance;
  record.release = state.release;
  record.absolute_deadline = state.release + static_cast<Time>(t.deadline);
  record.completion = now_.absolute();
  record.executed = state.total_work;
  record.finished = true;
  record.missed_deadline =
      tp_definitely_greater(now_, at(record.absolute_deadline));
  if (record.missed_deadline) {
    ++deadline_misses_;
    if (options_->throw_on_miss) {
      throw std::runtime_error(
          "deadline miss: task " + t.name + " instance " +
          std::to_string(state.instance) + " finished at " +
          std::to_string(record.completion) + " > deadline " +
          std::to_string(record.absolute_deadline) + " under policy " +
          policy_->name);
    }
  }
  if (options_->record_trace) trace_.add_job(record);
  ++jobs_completed_;

  if (weakly_hard_enabled_) {
    // An actual miss is the strongest overload evidence there is.
    if (record.missed_deadline) overload_dynamic_ = true;
    settle_weakly_hard(active_, /*met=*/!record.missed_deadline,
                       /*skipped=*/false);
  }

  delay_queue_.insert(
      {active_, state.window_release + static_cast<Time>(t.period)});
  active_ = kNoTask;
  state_ = CpuState::kIdle;
  maybe_detect_ramp_fault();
  end_plan();
}

void SimState::on_budget_exhausted() {
  LPFPS_CHECK(state_ == CpuState::kRunning && active_ != kNoTask);
  JobState& state = job(active_);
  state.over_budget = true;
  ++overruns_detected_;
  // A detected overrun raises the dynamic overload latch: undeclared
  // demand is in the system, so permitted skips may now be spent.
  if (weakly_hard_enabled_) overload_dynamic_ = true;
  enter_safe_mode();
  switch (options_->containment.on_overrun) {
    case faults::OverrunAction::kNone:
      // Monitor only: the overrunning job keeps the CPU (at base speed
      // once the safe-mode ramp lands) until its true demand drains.
      break;
    case faults::OverrunAction::kThrottle:
      throttle_active_job();
      break;
    case faults::OverrunAction::kKill:
      kill_active_job();
      break;
  }
}

void SimState::kill_active_job() {
  const sched::Task& t = task(active_);
  JobState& state = job(active_);
  ++jobs_killed_;
  if (options_->record_trace) {
    sim::JobRecord record;
    record.task = active_;
    record.instance = state.instance;
    record.release = state.release;
    record.absolute_deadline =
        state.release + static_cast<Time>(t.deadline);
    record.completion = now_.absolute();
    record.executed = state.executed;
    record.finished = false;
    record.killed = true;
    // An abort is not a late completion; the instance is shed, so the
    // miss flag (and counter) stay untouched.
    trace_.add_job(record);
  }
  // The killed instance settles as a failure in its task's (m,k) window
  // — the work was discarded, not delivered.
  settle_weakly_hard(active_, /*met=*/false, /*skipped=*/false);
  requeue_contained_task(active_);
  active_ = kNoTask;
  state_ = CpuState::kIdle;
  end_plan();
}

void SimState::throttle_active_job() {
  JobState& state = job(active_);
  ++jobs_throttled_;
  state.throttled = true;
  requeue_contained_task(active_);
  active_ = kNoTask;
  state_ = CpuState::kIdle;
  end_plan();
}

void SimState::requeue_contained_task(TaskIndex index) {
  const sched::Task& t = task(index);
  auto& instance = next_instance_[static_cast<std::size_t>(index)];
  Time next_release = static_cast<Time>(t.phase) +
                      static_cast<Time>(instance * t.period);
  // Enforcement windows the overrun already consumed are forfeited
  // (skippable-instance semantics): releasing them retroactively could
  // only cascade lateness.  With a schedulable declared demand the
  // budget exhausts before the window ends, so nothing is skipped.
  while (tp_definitely_greater(now_, at(next_release))) {
    ++instance;
    ++jobs_skipped_;
    // Each forfeited window is a failed delivery in the task's (m,k)
    // ledger, settled here in instance order (kill settles the aborted
    // instance first; throttle never combines with the governor).
    settle_weakly_hard(index, /*met=*/false, /*skipped=*/false);
    next_release = static_cast<Time>(t.phase) +
                   static_cast<Time>(instance * t.period);
  }
  delay_queue_.insert({index, next_release});
}

void SimState::enter_safe_mode() {
  if (!options_->containment.safe_mode_fallback || safe_mode_) return;
  safe_mode_ = true;
  ++safe_mode_entries_;
  // Fail toward plain FPS: abandon any slowdown plan, head straight
  // back to base speed, and (via the safe_mode_ gates) decline new
  // slowdowns, power-downs and shutdown timers until the next idle
  // instant.
  end_plan();
  shutdown_at_ = kNeverPoint;
  if (ramp_target_ != base_ratio_) {
    ramp_target_ = base_ratio_;
    ++speed_changes_;
  }
}

void SimState::maybe_detect_ramp_fault() {
  if (!ramp_fault_armed_ || !plan_active_ || !plan_up_started_) return;
  if (ratio_ >= base_ratio_ - 1e-12) return;  // The ramp landed on time.
  // The just-in-time plan commands ratio(t) = base - rho_spec *
  // (plan_end - t) during its up-ramp (and base thereafter); a clock
  // measurably below that trajectory means the physical regulator is
  // slower than its spec.
  const Ratio expected =
      base_ratio_ -
      processor_->ramp_rate * std::max(0.0, span(now_, plan_end_));
  if (ratio_ < expected - 1e-9) {
    ++ramp_faults_detected_;
    enter_safe_mode();
  }
}

double SimState::slope() const {
  if (ratio_ < ramp_target_) return effective_ramp_rate_;
  if (ratio_ > ramp_target_) return -effective_ramp_rate_;
  return 0.0;
}

void SimState::advance_to(const TimePoint& next) {
  const Time dt = span(now_, next);
  LPFPS_CHECK(dt >= -kTimeEpsilon);
  if (dt <= 0.0) {
    now_ = next;
    return;
  }

  const double s = slope();
  Ratio end_ratio = ratio_ + s * dt;
  // Clamp onto the target to kill rounding drift at ramp boundaries.
  if ((s > 0.0 && end_ratio > ramp_target_) ||
      (s < 0.0 && end_ratio < ramp_target_) ||
      approx_equal(end_ratio, ramp_target_, 1e-9)) {
    end_ratio = ramp_target_;
  }

  sim::Segment segment;
  segment.begin = now_.absolute();
  segment.end = next.absolute();
  segment.ratio_begin = ratio_;
  segment.ratio_end = end_ratio;

  // The energy the accumulator charged for this interval, attributed to
  // the running task.
  Energy charged = 0.0;
  switch (state_) {
    case CpuState::kRunning: {
      LPFPS_CHECK(active_ != kNoTask);
      const Work done = power::work_done(ratio_, s, dt);
      job(active_).executed += done;
      if (detection_enabled_) job(active_).budget_used += done;
      charged = s == 0.0 ? accumulator_.add_run(dt, ratio_)
                         : accumulator_.add_run_ramp(dt, ratio_, end_ratio,
                                                     effective_ramp_rate_);
      auto& slot = per_task_[static_cast<std::size_t>(active_)];
      slot.time += dt;
      slot.energy += charged;
      running_ratio_integral_ += (ratio_ + end_ratio) / 2.0 * dt;
      running_time_ += dt;
      segment.mode = sim::ProcessorMode::kRunning;
      segment.task = active_;
      break;
    }
    case CpuState::kIdle: {
      if (s == 0.0) {
        charged = accumulator_.add_idle_nop(dt, ratio_);
        segment.mode = sim::ProcessorMode::kIdleBusyWait;
      } else {
        charged = accumulator_.add_idle_ramp(dt, ratio_, end_ratio,
                                             effective_ramp_rate_);
        segment.mode = sim::ProcessorMode::kRamping;
      }
      break;
    }
    case CpuState::kPowerDown: {
      LPFPS_CHECK(s == 0.0);
      charged = accumulator_.add_power_down(dt, sleep_power_fraction_);
      segment.mode = sim::ProcessorMode::kPowerDown;
      break;
    }
    case CpuState::kWakeUp: {
      LPFPS_CHECK(s == 0.0);
      charged = accumulator_.add_wakeup(dt);
      segment.mode = sim::ProcessorMode::kWakeUp;
      break;
    }
  }

  if (options_->record_trace) trace_.add_segment(segment);
  ratio_ = end_ratio;
  now_ = next;
}

void SimState::begin() {
  // kOverload's structural trigger: hard-infeasible sets are in
  // overload from the first release, before any miss can be observed.
  if (weakly_hard_enabled_ &&
      skip_policy_ == weakly_hard::SkipPolicy::kOverload) {
    overload_structural_ = !hard_rta_schedulable(*tasks_);
  }

  base_ratio_ = policy_->static_ratio;
  ratio_ = base_ratio_;
  ramp_target_ = base_ratio_;

  if (options_->record_trace) {
    // Reserve from the release pattern over the horizon (the horizon is
    // normally a whole number of hyperperiods): one job record per
    // released instance, and a few segments per job (run pieces split by
    // preemptions plus idle/ramp/power-down gaps between them).
    std::size_t job_hint = 0;
    for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks_->size()); ++i) {
      job_hint +=
          static_cast<std::size_t>(options_->horizon /
                                   static_cast<Time>(task(i).period)) +
          1;
    }
    trace_.reserve(4 * job_hint + 16, job_hint);
  }

  for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks_->size()); ++i) {
    delay_queue_.insert({i, static_cast<Time>(task(i).phase)});
  }
  invoke_scheduler();

  // Loop bookkeeping.  horizon_ flips finished() live: before begin() it is kNeverPoint, so finished() is
  // false and callers cannot skip the prologue.
  horizon_ = at(options_->horizon);
  last_now_ = TimePoint{-1.0, 0.0};
  stalled_iterations_ = 0;
}

void SimState::step() {
  // Livelock detector: every step must advance time (or change state so
  // a handler clears its condition); a stuck boundary would otherwise
  // spin forever.  The threshold is far above any legitimate
  // same-instant handler cascade.
  if (now_.base == last_now_.base && now_.offset == last_now_.offset) {
    if (++stalled_iterations_ > 1000) {
      throw std::logic_error(
          "engine livelock at t=" + std::to_string(now_.absolute()) +
          " state=" + std::to_string(static_cast<int>(state_)) +
          " ratio=" + std::to_string(ratio_) + " target=" +
          std::to_string(ramp_target_) + " active=" +
          std::to_string(active_) + " plan=" +
          std::to_string(plan_active_) + " policy=" + policy_->name);
    }
  } else {
    stalled_iterations_ = 0;
    last_now_ = now_;
  }
  // ---- settle sub-resolution transitions before anything else.
  if (ratio_ != ramp_target_ &&
      power::ramp_duration(ratio_, ramp_target_, effective_ramp_rate_) <
          kTimeEpsilon) {
    // The residual transition is below the time resolution (either
    // float debris from a split ramp, or a near-instant ramp rate):
    // completing it now costs nothing measurable and prevents a
    // sub-ulp boundary that time arithmetic could never reach.
    ratio_ = ramp_target_;
  }
  if (ratio_ == ramp_target_ && reinvoke_after_ramp_) {
    // L1-L4's deferred re-entry must run *before* time advances past
    // this instant, or the power-management decision it defers (e.g.
    // entering power-down) would be skipped for the whole idle gap.
    reinvoke_after_ramp_ = false;
    invoke_scheduler();
  }

  // ---- gather candidate boundaries (all strictly in the future or
  // due exactly now; handlers below clear every condition they fire
  // on, so the loop always progresses).
  TimePoint next_other = horizon_;
  // Injected faults can break the fault-free invariant that the clock
  // is back at base speed (and the CPU awake) before any release is
  // due: a slow ramp regulator or a safe-mode redirect leaves the
  // L1-L4 ramp-up in flight across a release, and a late wake timer
  // leaves the CPU asleep through one.  The scheduler defers those
  // releases (reinvoke_after_ramp_ / the wake handler serves them),
  // so they must not pin the loop at the current instant — nor may an
  // already-overslept release become a candidate in the past.
  const bool ramp_locked = reinvoke_after_ramp_ && ratio_ != ramp_target_;
  const bool releases_blocked =
      faults_injected_ &&
      (ramp_locked || state_ == CpuState::kPowerDown ||
       state_ == CpuState::kWakeUp);
  if (const auto release = delay_queue_.next_release();
      release.has_value() && !releases_blocked) {
    const TimePoint candidate = at(*release);
    if (tp_less(candidate, next_other)) next_other = candidate;
  }
  if (ratio_ != ramp_target_) {
    const TimePoint candidate =
        after(now_, power::ramp_duration(ratio_, ramp_target_,
                                         effective_ramp_rate_));
    if (tp_less(candidate, next_other)) next_other = candidate;
  }
  if (plan_active_ && !plan_up_started_ &&
      tp_less(plan_rampup_start_, next_other)) {
    next_other = plan_rampup_start_;
  }
  if (state_ == CpuState::kPowerDown && tp_less(wake_at_, next_other)) {
    next_other = wake_at_;
  }
  if (state_ == CpuState::kWakeUp && tp_less(wake_end_, next_other)) {
    next_other = wake_end_;
  }
  if (state_ == CpuState::kIdle && shutdown_at_.base != kNever &&
      tp_less(shutdown_at_, next_other)) {
    next_other = shutdown_at_;
  }
  if (!(faults_injected_ && ramp_locked)) {
    for (const StagedJob& staged : staged_) {
      if (tp_less(staged.ready, next_other)) next_other = staged.ready;
    }
  }
  LPFPS_CHECK(tp_approx_ge(next_other, now_));
  if (tp_less(next_other, now_)) next_other = now_;

  // ---- completion of the active task, if it lands first; under
  // detection, budget exhaustion competes on the same work clock.
  bool completes = false;
  bool budget_exhausts = false;
  TimePoint next = next_other;
  if (state_ == CpuState::kRunning) {
    const JobState& state = job(active_);
    const Work remaining =
        snap_nonnegative(state.total_work - state.executed);
    const auto tau = power::time_to_complete(
        ratio_, slope(), span(now_, next_other), remaining);
    if (tau.has_value()) {
      next = after(now_, *tau);
      completes = true;
    }
    if (detection_enabled_ && !state.over_budget) {
      const Work budget_left = snap_nonnegative(
          (task(active_).wcet + state.overhead) - state.budget_used);
      const Time budget_window = span(now_, next);
      const auto tau_budget = power::time_to_complete(
          ratio_, slope(), budget_window, budget_left);
      // The completion wins ties and sub-epsilon photo finishes: a
      // job finishing at its exact budget is in contract, and
      // time_to_complete clips near-boundary crossings onto the
      // window end (so an in-contract job's budget crossing can land
      // one ulp *before* its own completion).  Without a completion
      // in sight any in-window crossing is an overrun, including one
      // tying the window end exactly (a kill coinciding with a
      // release must fire before the released job runs); that is
      // safe for containment-without-faults bit-identity because an
      // in-contract job's crossing never precedes its completion, so
      // completes=false implies the true crossing also lies beyond
      // the window.
      const bool exhausts_first =
          tau_budget.has_value() &&
          (completes ? definitely_less(*tau_budget, *tau) : true);
      if (exhausts_first) {
        next = after(now_, *tau_budget);
        completes = false;
        budget_exhausts = true;
      }
    }
  }

  advance_to(next);

  // ---- fire handlers for every condition now due.
  bool need_scheduler = false;

  if (ratio_ == ramp_target_ && reinvoke_after_ramp_) {
    reinvoke_after_ramp_ = false;
    need_scheduler = true;  // L1-L4's deferred re-entry.
  }
  if (budget_exhausts) {
    on_budget_exhausted();
    need_scheduler = true;
  }
  if (completes) {
    finish_active_job();
    need_scheduler = true;
  }
  if (plan_active_ && !plan_up_started_ &&
      tp_approx_le(plan_rampup_start_, now_)) {
    plan_up_started_ = true;
    if (ramp_target_ != base_ratio_) {
      ramp_target_ = base_ratio_;
      ++speed_changes_;
    }
  }
  if (ramp_fault_armed_ && plan_active_ && plan_up_started_ &&
      ratio_ == base_ratio_ && ratio_ == ramp_target_) {
    // The plan's return ramp has (finally) reached base speed.  Under
    // a DVS ramp fault the physical slope is shallower than the spec
    // rho the just-in-time plan was computed with, so the clock can
    // still be below base at plan_end_ — the observable anomaly.
    if (tp_definitely_greater(now_, plan_end_)) {
      ++ramp_faults_detected_;
      enter_safe_mode();
    }
    end_plan();
  }
  if (state_ == CpuState::kPowerDown && tp_approx_le(wake_at_, now_)) {
    if (detection_enabled_ &&
        span(wake_programmed_, now_) > kTimeEpsilon) {
      // The timer fired measurably after its programmed instant; the
      // gap the power-down was sized for is already compromised.
      ++late_wakeups_detected_;
      enter_safe_mode();
    }
    wake_programmed_ = kNeverPoint;
    wake_at_ = kNeverPoint;
    const Time delay = sleep_wake_latency_;
    if (delay > 0.0) {
      state_ = CpuState::kWakeUp;
      wake_end_ = after(now_, delay);
    } else {
      state_ = CpuState::kIdle;
      need_scheduler = true;
    }
  } else if (state_ == CpuState::kWakeUp &&
             tp_approx_le(wake_end_, now_)) {
    wake_end_ = kNeverPoint;
    state_ = CpuState::kIdle;
    need_scheduler = true;
  }
  if (state_ == CpuState::kIdle && shutdown_at_.base != kNever &&
      tp_approx_le(shutdown_at_, now_)) {
    shutdown_at_ = kNeverPoint;
    enter_power_down();
  }
  if ((state_ == CpuState::kIdle || state_ == CpuState::kRunning) &&
      !delay_queue_.empty() &&
      tp_approx_le(at(delay_queue_.head().release_time), now_)) {
    need_scheduler = true;
  }
  for (const StagedJob& staged : staged_) {
    if ((state_ == CpuState::kIdle || state_ == CpuState::kRunning) &&
        tp_approx_le(staged.ready, now_)) {
      need_scheduler = true;
      break;
    }
  }

  if (need_scheduler) invoke_scheduler();
}

SimulationResult SimState::finish() {
  // The tolerance scales with the horizon: long runs accumulate
  // ulp-level dt rounding across millions of segment additions.
  LPFPS_CHECK_MSG(
      approx_equal(accumulator_.total_time(), options_->horizon,
                   std::max(1e-3, 1e-9 * options_->horizon)),
      "unaccounted simulation time");

  SimulationResult result;
  result.policy_name = policy_->name;
  result.simulated_time = options_->horizon;
  result.total_energy = accumulator_.total_energy();
  result.average_power = result.total_energy / options_->horizon;
  for (std::size_t i = 0; i < result.by_mode.size(); ++i) {
    result.by_mode[i] =
        accumulator_.totals(static_cast<sim::ProcessorMode>(i));
  }
  result.jobs_completed = jobs_completed_;
  result.deadline_misses = deadline_misses_;
  result.context_switches = context_switches_;
  result.scheduler_invocations = scheduler_invocations_;
  result.speed_changes = speed_changes_;
  result.power_downs = power_downs_;
  result.dvs_slowdowns = dvs_slowdowns_;
  result.run_queue_high_water = run_queue_high_water_;
  result.delay_queue_high_water = delay_queue_high_water_;
  result.mean_running_ratio =
      running_time_ > 0.0 ? running_ratio_integral_ / running_time_ : 1.0;
  result.overruns_detected = overruns_detected_;
  result.ramp_faults_detected = ramp_faults_detected_;
  result.late_wakeups_detected = late_wakeups_detected_;
  result.jobs_killed = jobs_killed_;
  result.jobs_throttled = jobs_throttled_;
  result.jobs_skipped = jobs_skipped_;
  result.safe_mode_entries = safe_mode_entries_;
  if (weakly_hard_enabled_) {
    result.jobs_skipped_weakly = governor_.jobs_skipped_weakly();
    result.mk_violations = governor_.mk_violations();
    result.weakly_hard_worst_slack = governor_.worst_window_slack();
  }
  result.per_task = std::move(per_task_);
  if (options_->record_trace) {
    trace_.check_invariants();
    result.trace = std::move(trace_);
  }
  return result;
}

}  // namespace lpfps::core
