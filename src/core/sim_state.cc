// Method bodies of core::SimState — the engine main loop (see
// sim_state.h for the contract).  core::simulate and the fleet engine
// both drive it, so this file *is* the reference simulation semantics.
#include "core/sim_state.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/float_compare.h"
#include "common/math_utils.h"
#include "core/speed_ratio.h"
#include "faults/faults.h"
#include "power/speed_profile.h"
#include "sched/analysis.h"

namespace lpfps::core {

using namespace detail;

namespace {

/// The longest horizon validate_spec accepts, in microseconds.
constexpr Time kMaxHorizon = 0x1p53;

/// A trace reserves for at most this many job records up front; a
/// longer traced run grows its trace as it goes.
constexpr std::size_t kMaxReservedJobs = std::size_t{1} << 16;

/// Throws std::logic_error naming `field` and `value` unless `value` is
/// finite and at least (or, when `positive`, above) zero.
void require_finite(const std::string& field, double value, bool positive) {
  if (std::isfinite(value) && (positive ? value > 0.0 : value >= 0.0)) {
    return;
  }
  throw std::logic_error("EngineOptions::" + field + " must be finite and " +
                         (positive ? "positive" : "non-negative") + ", got " +
                         round_trip_string(value));
}

/// The checks the constructor runs before binding a spec: a non-empty,
/// valid task set with D <= T (a job's next release is queued at its
/// completion, so a deadline past the period would queue a release in
/// the past), a valid processor and policy, and options that fit them.
/// Throws std::logic_error on the first violation.  Returns `tasks`, so
/// it can run as the constructor's first member initializer.
const sched::TaskSet& validate_spec(const sched::TaskSet& tasks,
                                    const power::ProcessorConfig& processor,
                                    const SchedulerPolicy& policy,
                                    const EngineOptions& options) {
  LPFPS_CHECK_MSG(!tasks.empty(), "engine needs at least one task");
  require_finite("horizon", options.horizon, true);
  // Past 2^53 us integer release instants stop being exact doubles, and
  // the TimePoint anchors need them exact.
  if (options.horizon > kMaxHorizon) {
    throw std::logic_error(
        "EngineOptions::horizon must be at most 2^53 us, got " +
        round_trip_string(options.horizon));
  }
  require_finite("context_switch_cost", options.context_switch_cost, false);
  if (!options.release_jitter.empty() &&
      options.release_jitter.size() != tasks.size()) {
    throw std::logic_error(
        "EngineOptions::release_jitter must be empty or have one entry "
        "per task (" +
        std::to_string(tasks.size()) + "), got " +
        std::to_string(options.release_jitter.size()) + " entries");
  }
  for (std::size_t i = 0; i < options.release_jitter.size(); ++i) {
    require_finite("release_jitter[" + std::to_string(i) + "]",
                   options.release_jitter[i], false);
  }
  options.faults.validate(tasks.size());
  tasks.validate();
  sched::check_constrained_deadlines(tasks);
  processor.validate();
  policy.validate();
  return tasks;
}

}  // namespace

void SimState::end_plan() {
  plan_rampup_start_ = kNeverPoint;
  plan_end_ = kNeverPoint;
}

sim::JobRecord SimState::job_record(TaskIndex index, const sched::Task& t,
                                    Work executed) const {
  const JobState& state = jobs_[static_cast<std::size_t>(index)];
  sim::JobRecord record;
  record.task = index;
  record.instance = state.instance;
  record.release = state.release;
  record.absolute_deadline =
      state.release + static_cast<Time>(t.deadline);
  record.completion = now_.absolute();
  record.executed = executed;
  return record;
}

SimState::SimState(const sched::TaskSet& tasks,
                   const power::ProcessorConfig& processor,
                   const SchedulerPolicy& policy,
                   const exec::ExecModelPtr& exec_model,
                   const EngineOptions& options)
    // Validation comes first, so a bad spec throws before anything is
    // built.
    : tasks_(&validate_spec(tasks, processor, policy, options)),
      processor_(&processor),
      policy_(&policy),
      exec_model_(exec_model),
      options_(&options),
      rng_(options.seed),
      accumulator_(processor.make_power_model(), processor.ramp_rate),
      jobs_(tasks.size()),
      next_instance_(tasks.size(), 0),
      detection_enabled_(options.faults.overruns_enabled() ||
                         options.containment.enabled()),
      overruns_armed_(options.faults.overruns_enabled()) {
  // Each queue holds at most one entry per task, so with every per-task
  // buffer sized here nothing in the scheduling hot path allocates.
  run_queue_.reserve(tasks.size());
  delay_queue_.reserve(tasks.size());
  staged_.reserve(tasks.size());
  result_.per_task.resize(tasks.size());
  governor_.bind(tasks, options.weakly_hard.policy,
                 options.weakly_hard.skip_dvs);
}

void SimState::start_job(TaskIndex index) {
  JobState& state = job(index);
  auto& instance = next_instance_[static_cast<std::size_t>(index)];
  const sched::Task& t = task(index);
  state.instance = instance++;
  state.release = static_cast<Time>(t.phase) +
                  static_cast<Time>(state.instance * t.period);
  state.executed = 0.0;
  state.overhead = 0.0;
  state.over_budget = false;
  if (exec_model_ != nullptr) {
    state.total_work = exec_model_->sample(t, rng_);
    // Running longer than the WCET would void every guarantee; running
    // shorter than the nominal BCET is harmless (BCET only parameterizes
    // execution-time models) and scenario models exploit it.
    LPFPS_CHECK_MSG(state.total_work > 0.0 &&
                        state.total_work <= t.wcet + kTimeEpsilon,
                    t.name);
  } else {
    state.total_work = t.wcet;
  }
  if (overruns_armed_) {
    // Injected overruns violate the WCET by design — that is the lie the
    // containment machinery exists to absorb.  One uniform draw decides
    // whether this job overruns (none for a task whose spec is
    // disabled); the size is fixed, so tests and the faulted-demand RTA
    // in bench_fault_sweep know the inflated demand exactly.
    const faults::OverrunFault& fault =
        options_->faults.overrun_for(static_cast<std::size_t>(index));
    if (fault.enabled() && rng_.uniform(0.0, 1.0) < fault.probability) {
      state.total_work = t.wcet * (1.0 + fault.magnitude);
    }
  }
}

// inline: L5-L7 calls it on every release.  Left out of line
// (GCC 12, -O3) it cost FPS runs about 4% of their events/sec on a
// 4-vCPU x86-64 host.
inline void SimState::release_job(TaskIndex index) {
  start_job(index);
  if (governor_.armed()) {
    note_release_pressure(index);
    if (governor_.should_skip(index)) {
      skip_released_job(index);
      return;
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
}

Time SimState::next_arrival_for_active() const {
  if (!governor_.skip_dvs()) {
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
      if (governor_.should_skip(entry.task)) {
        candidate += static_cast<Time>(task(entry.task).period);
      }
      best = std::min(best, candidate);
    }
    return best;
  }
  // Single-task system: the processor is free until the task's own next
  // period begins.
  const JobState& state = jobs_[static_cast<std::size_t>(active_)];
  return state.release + static_cast<Time>(task(active_).period);
}

void SimState::note_release_pressure(TaskIndex index) {
  if (!governor_.probing()) return;
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
    governor_.raise_overload();
  }
}

void SimState::skip_released_job(TaskIndex index) {
  const sched::Task& t = task(index);
  if (options_->record_trace) {
    sim::JobRecord record = job_record(index, t, 0.0);
    record.skipped = true;
    // A skip is a scheduling decision, not a late completion: the miss
    // flag (and counter) stay untouched; the governor's (m,k) ledger
    // carries the QoS accounting instead.
    result_.trace->add_job(record);
  }
  governor_.settle(index, /*met=*/false, /*skipped=*/true);
  delay_queue_.insert(
      {index, job(index).release + static_cast<Time>(t.period)});
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
  if (overruns_armed_) {
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
  ++result_.speed_changes;
  ++result_.dvs_slowdowns;
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
  const TimePoint timer{*release, -latency};  // L14.
  if (!tp_definitely_greater(timer, now_)) return;  // Too close to sleep.
  state_ = CpuState::kPowerDown;
  wake_at_ = timer;
  wake_end_ = kNeverPoint;
  sleep_power_fraction_ = state->power_fraction;
  sleep_wake_latency_ = latency;
  shutdown_at_ = kNeverPoint;
  ++result_.power_downs;
}

void SimState::invoke_scheduler() {
  ++result_.scheduler_invocations;

  // L5-L7: release due tasks (via the jitter stage when configured).
  // The paper runs L1-L4 first, but with exact knowledge no release
  // falls inside an L1-L4 ramp, so the order shows only when a kill, a
  // safe-mode entry or a skip-aware plan lets one: releasing first
  // decides every skip at its release instant (docs/ARCHITECTURE.md).
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

  // Skip-aware DVS (docs/WEAKLY_HARD.md): a running slowdown plan keeps
  // running while nothing became ready — every release due now was
  // skipped, and the plan was sized past those arrivals.
  if (governor_.skip_dvs() && plan_end_.base != kNever &&
      active_ != kNoTask && run_queue_.empty()) {
    sample_queue_depths();
    return;
  }

  // L1-L4: restore full (base) speed before any decision; dispatch
  // waits for the ramp.
  if (ratio_ < base_ratio_ - 1e-12 || ramp_target_ < base_ratio_ - 1e-12) {
    if (!(ramp_target_ == base_ratio_ && ratio_ < ramp_target_)) {
      // Not already ramping up: redirect toward full speed.
      ramp_target_ = base_ratio_;
      ++result_.speed_changes;
    }
    reinvoke_after_ramp_ = true;
    return;
  }

  // L8-L11: dispatch / preempt.
  if (active_ == kNoTask) {
    if (!run_queue_.empty()) active_ = run_queue_.pop_head().task;
  } else if (!run_queue_.empty() &&
             run_queue_.head().priority < task(active_).priority) {
    run_queue_.insert({active_, task(active_).priority});
    active_ = run_queue_.pop_head().task;
    ++result_.context_switches;
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
  // An idle instant ends any safe-mode episode: the overrun's backlog
  // has drained, so DVS and power-down become trustworthy again —
  // including at this very instant (the switch below may sleep).
  safe_mode_ = false;
  // It likewise ends a dynamic overload episode — the backlog that
  // predicted or produced misses is gone.  (The structural latch, a
  // property of the task set, never clears.)
  governor_.clear_overload();
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

  sim::JobRecord record = job_record(active_, t, state.total_work);
  record.finished = true;
  record.missed_deadline =
      tp_definitely_greater(now_, at(record.absolute_deadline));
  if (record.missed_deadline) {
    ++result_.deadline_misses;
    if (options_->throw_on_miss) {
      throw std::runtime_error(
          "deadline miss: task " + t.name + " instance " +
          std::to_string(state.instance) + " finished at " +
          std::to_string(record.completion) + " > deadline " +
          std::to_string(record.absolute_deadline) + " under policy " +
          policy_->name);
    }
  }
  if (options_->record_trace) result_.trace->add_job(record);
  ++result_.jobs_completed;

  // An actual miss is the strongest overload evidence there is.
  if (record.missed_deadline) governor_.raise_overload();
  governor_.settle(active_, /*met=*/!record.missed_deadline,
                   /*skipped=*/false);

  delay_queue_.insert(
      {active_, state.release + static_cast<Time>(t.period)});
  active_ = kNoTask;
  state_ = CpuState::kIdle;
  end_plan();
}

void SimState::on_budget_exhausted() {
  LPFPS_CHECK(state_ == CpuState::kRunning && active_ != kNoTask);
  JobState& state = job(active_);
  state.over_budget = true;
  ++result_.overruns_detected;
  // A detected overrun raises the dynamic overload latch: undeclared
  // demand is in the system, so permitted skips may now be spent.
  governor_.raise_overload();
  enter_safe_mode();
  // Monitor only (kNone): the overrunning job keeps the CPU (at base
  // speed once the safe-mode ramp lands) until its true demand drains.
  if (options_->containment.on_overrun == faults::OverrunAction::kKill) {
    kill_active_job();
  }
}

void SimState::kill_active_job() {
  ++result_.jobs_killed;
  if (options_->record_trace) {
    sim::JobRecord record =
        job_record(active_, task(active_), job(active_).executed);
    record.killed = true;
    // An abort is not a late completion; the instance is shed, so the
    // miss flag (and counter) stay untouched.
    result_.trace->add_job(record);
  }
  // The killed instance settles as a failure in its task's (m,k) window
  // — the work was discarded, not delivered.
  governor_.settle(active_, /*met=*/false, /*skipped=*/false);
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
  // Periods the overrun already consumed are forfeited (skippable-
  // instance semantics): releasing them retroactively could only
  // cascade lateness.  With a schedulable declared demand the budget
  // exhausts before the next release, so nothing is skipped.
  while (tp_definitely_greater(now_, at(next_release))) {
    ++instance;
    ++result_.jobs_skipped;
    // Each forfeited release is a failed delivery in the task's (m,k)
    // ledger, settled here in instance order, after the killed one.
    governor_.settle(index, /*met=*/false, /*skipped=*/false);
    next_release = static_cast<Time>(t.phase) +
                   static_cast<Time>(instance * t.period);
  }
  delay_queue_.insert({index, next_release});
}

void SimState::enter_safe_mode() {
  if (!options_->containment.safe_mode_fallback || safe_mode_) return;
  safe_mode_ = true;
  ++result_.safe_mode_entries;
  // Fail toward plain FPS: abandon any slowdown plan, head straight
  // back to base speed, and (via the safe_mode_ gates) decline new
  // slowdowns, power-downs and shutdown timers until the next idle
  // instant.
  end_plan();
  shutdown_at_ = kNeverPoint;
  if (ramp_target_ != base_ratio_) {
    ramp_target_ = base_ratio_;
    ++result_.speed_changes;
  }
}

double SimState::slope() const {
  if (ratio_ < ramp_target_) return processor_->ramp_rate;
  if (ratio_ > ramp_target_) return -processor_->ramp_rate;
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
      charged = s == 0.0 ? accumulator_.add_run(dt, ratio_)
                         : accumulator_.add_run_ramp(dt, ratio_, end_ratio);
      auto& slot = result_.per_task[static_cast<std::size_t>(active_)];
      slot.time += dt;
      slot.energy += charged;
      running_ratio_integral_ += (ratio_ + end_ratio) / 2.0 * dt;
      segment.mode = sim::ProcessorMode::kRunning;
      segment.task = active_;
      break;
    }
    case CpuState::kIdle: {
      if (s == 0.0) {
        charged = accumulator_.add_idle_nop(dt, ratio_);
        segment.mode = sim::ProcessorMode::kIdleBusyWait;
      } else {
        charged = accumulator_.add_idle_ramp(dt, ratio_, end_ratio);
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

  if (options_->record_trace) result_.trace->add_segment(segment);
  ratio_ = end_ratio;
  now_ = next;
}

void SimState::begin() {
  base_ratio_ = policy_->static_ratio;
  ratio_ = base_ratio_;
  ramp_target_ = base_ratio_;

  if (options_->record_trace) {
    // Reserve from the release pattern over the horizon (the horizon is
    // normally a whole number of hyperperiods): one job record per
    // released instance, and a few segments per job (run pieces split by
    // preemptions plus idle/ramp/power-down gaps between them).  Each
    // count is capped before its conversion, and so is the sum.
    std::size_t job_hint = 0;
    for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks_->size()); ++i) {
      job_hint += static_cast<std::size_t>(std::min(
                      options_->horizon / static_cast<Time>(task(i).period),
                      static_cast<double>(kMaxReservedJobs))) +
                  1;
    }
    job_hint = std::min(job_hint, kMaxReservedJobs);
    result_.trace.emplace().reserve(4 * job_hint + 16, job_hint);
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
          std::to_string(plan_end_.base != kNever) + " policy=" +
          policy_->name);
    }
  } else {
    stalled_iterations_ = 0;
    last_now_ = now_;
  }
  // ---- settle sub-resolution transitions before anything else.
  if (ratio_ != ramp_target_ &&
      power::ramp_duration(ratio_, ramp_target_, processor_->ramp_rate) <
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
  if (const auto release = delay_queue_.next_release();
      release.has_value()) {
    const TimePoint candidate = at(*release);
    if (tp_less(candidate, next_other)) next_other = candidate;
  }
  if (ratio_ != ramp_target_) {
    const TimePoint candidate =
        after(now_, power::ramp_duration(ratio_, ramp_target_,
                                         processor_->ramp_rate));
    if (tp_less(candidate, next_other)) next_other = candidate;
  }
  if (plan_rampup_start_.base != kNever &&
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
  for (const StagedJob& staged : staged_) {
    if (tp_less(staged.ready, next_other)) next_other = staged.ready;
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
          (task(active_).wcet + state.overhead) - state.executed);
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
  if (plan_rampup_start_.base != kNever &&
      tp_approx_le(plan_rampup_start_, now_)) {
    plan_rampup_start_ = kNeverPoint;  // The up-ramp has begun.
    if (ramp_target_ != base_ratio_) {
      ramp_target_ = base_ratio_;
      ++result_.speed_changes;
    }
  }
  if (state_ == CpuState::kPowerDown && tp_approx_le(wake_at_, now_)) {
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

  result_.policy_name = policy_->name;
  result_.simulated_time = options_->horizon;
  result_.total_energy = accumulator_.total_energy();
  result_.average_power = result_.total_energy / options_->horizon;
  for (std::size_t i = 0; i < result_.by_mode.size(); ++i) {
    result_.by_mode[i] =
        accumulator_.totals(static_cast<sim::ProcessorMode>(i));
  }
  // The accumulator sums the same running dt sequence advance_to folds
  // into running_ratio_integral_.
  const Time running_time = result_.mode(sim::ProcessorMode::kRunning).time;
  result_.mean_running_ratio =
      running_time > 0.0 ? running_ratio_integral_ / running_time : 1.0;
  if (governor_.armed()) {
    result_.jobs_skipped_weakly = governor_.jobs_skipped_weakly();
    result_.mk_violations = governor_.mk_violations();
    result_.weakly_hard_worst_slack = governor_.worst_window_slack();
  }
  return std::move(result_);
}

}  // namespace lpfps::core
