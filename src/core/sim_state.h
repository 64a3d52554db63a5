// Stepwise simulation state — the engine's main loop, opened up.
//
// SimState is the whole simulation engine exposed as an incremental
// state machine, so a caller that runs many independent simulations —
// the fleet engine in src/fleet/ — can drive each one event by event:
//
//   SimState sim(tasks, cpu, policy, exec, options);  // validate, bind
//   sim.begin();                       // seed queues, L1 entry
//   while (!sim.finished()) sim.step() // one event-loop iteration
//   SimulationResult r = sim.finish(); // energy totals, result moved out
//
// core::simulate performs exactly that sequence, so the one-call path
// and any caller that steps a SimState itself execute the *identical*
// arithmetic in the identical order: a stepwise run is bit-identical to
// core::simulate by construction, not by testing alone (the
// differential suite in tests/fleet/ pins it anyway).
//
// The constructor is the one place a simulation is bound: it validates
// the spec before it builds anything, then binds it and seeds the
// generator once from options.seed.  A SimState runs one simulation;
// the next one gets a new SimState (docs/FLEET.md says why no state is
// reused).
//
// Each fact has one member.  The counters, the per-task totals and the
// trace are written straight into the SimulationResult that finish()
// returns, and the running time is the energy accumulator's; a DVS
// plan is its end and up-ramp instants, with kNever for "none".
//
// Lifetime: SimState borrows `tasks`, `processor`, `policy` and
// `options` (it stores pointers); they must outlive the run.  The
// execution model is shared by shared_ptr.  core::simulate and
// fleet::FleetEngine both satisfy this by keeping the spec alive for
// the duration.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/float_compare.h"
#include "common/random.h"
#include "core/engine.h"
#include "core/policy.h"
#include "core/result.h"
#include "exec/exec_model.h"
#include "power/energy.h"
#include "power/power_model.h"
#include "power/processor.h"
#include "sched/queues.h"
#include "sched/task_set.h"
#include "sim/trace.h"

namespace lpfps::core {

/// Internal time/state machinery of the engine loop.  Exposed in a
/// header only so SimState's members can be declared here; not a public
/// API surface — everything here may change with the engine.
namespace detail {

inline constexpr Time kNever = std::numeric_limits<Time>::infinity();

/// An instant in simulated time, kept as an exact anchor plus a small
/// offset instead of one accumulated double.
///
/// The anchor is always an exactly-representable value (a release time,
/// the horizon — integers in this codebase) and the offset is the
/// fractional distance the clock has moved since, a value bounded by
/// one task period.  Durations are computed as (base difference) +
/// (offset difference), and absolute times (trace segments, job
/// completions) materialize with a single rounding via absolute().
///
/// The split is kept for its rounding, not for speed: every golden
/// (data/golden/engine_equivalence.csv) and every %a energy pin
/// (data/golden/engine_energy.csv) was recorded from this arithmetic.
/// One plain absolute double rounds differently — crossing a power of
/// two changes the rounding grid, so an `end - begin` subtraction picks
/// up a different ulp — and would move output bits.
struct TimePoint {
  Time base = 0.0;    ///< Exact anchor (or +inf for "never").
  Time offset = 0.0;  ///< Time since the anchor; may be slightly negative
                      ///< (wake timers fire `latency` before a release).

  Time absolute() const { return base + offset; }
};

inline constexpr TimePoint kNeverPoint{kNever, 0.0};

inline TimePoint at(Time t) { return {t, 0.0}; }

inline TimePoint after(const TimePoint& p, Time delta) {
  return {p.base, p.offset + delta};
}

/// b - a: the anchors subtract first, then the offsets.
inline Time span(const TimePoint& a, const TimePoint& b) {
  return (b.base - a.base) + (b.offset - a.offset);
}

inline bool tp_less(const TimePoint& a, const TimePoint& b) {
  return span(a, b) > 0.0;
}
inline bool tp_approx_le(const TimePoint& a, const TimePoint& b) {
  return span(b, a) <= kTimeEpsilon;
}
inline bool tp_approx_ge(const TimePoint& a, const TimePoint& b) {
  return span(a, b) <= kTimeEpsilon;
}
inline bool tp_definitely_less(const TimePoint& a, const TimePoint& b) {
  return span(a, b) > kTimeEpsilon;
}
inline bool tp_definitely_greater(const TimePoint& a, const TimePoint& b) {
  return span(b, a) > kTimeEpsilon;
}

/// Processor macro-state.  The speed ratio / ramping sub-state is
/// orthogonal and tracked separately.
enum class CpuState : std::uint8_t {
  kIdle,       ///< No active task; busy-waiting NOPs.
  kRunning,    ///< Executing the active task.
  kPowerDown,  ///< Power-down mode, timer armed.
  kWakeUp,     ///< Returning from power-down (full power, no work).
};

/// Per-task in-flight job bookkeeping (E_i of the paper).  A job's
/// budget-enforcement window is the job itself: its budget C_i plus
/// `overhead` is spent by `executed` and ends with the job.
struct JobState {
  std::int64_t instance = 0;
  Time release = 0.0;
  Work total_work = 0.0;  ///< This instance's actual execution time.
  Work executed = 0.0;    ///< E_i: work consumed so far.
  Work overhead = 0.0;    ///< Context-switch work past the nominal WCET.
  bool over_budget = false;  ///< Exhaustion latch: one firing per job.
};

}  // namespace detail

/// The full mutable state of one simulation plus the engine main loop,
/// decomposed into begin / step / finish (see the file comment for the
/// contract).  core::simulate and the fleet engine build one of these
/// per simulation.
class SimState {
 public:
  /// Binds a new simulation.  Checks the spec first — a non-empty,
  /// valid task set (unique priorities assigned), a valid processor and
  /// policy, and options that fit them — and throws std::logic_error on
  /// the first violation before building anything.  Then binds the spec
  /// and seeds the generator from options.seed.  `exec_model` may be
  /// null, in which case every job takes its WCET.  Borrows every
  /// reference argument for the lifetime of the run (see file comment).
  SimState(const sched::TaskSet& tasks,
           const power::ProcessorConfig& processor,
           const SchedulerPolicy& policy, const exec::ExecModelPtr& exec_model,
           const EngineOptions& options);

  SimState(const SimState&) = delete;
  SimState& operator=(const SimState&) = delete;

  /// Seeds the delay queue and performs the initial scheduler
  /// invocation.  Must be called exactly once, before step().
  void begin();

  /// True once the clock has reached the horizon; finish() may be called.
  bool finished() const {
    return !detail::tp_definitely_less(now_, horizon_);
  }

  /// One iteration of the engine event loop: settle sub-resolution
  /// transitions, gather candidate boundaries, advance time, fire every
  /// handler now due.  Precondition: begin() was called, !finished().
  void step();

  /// Checks the accounted-time invariant, adds the energy totals to
  /// the result the run has been counting into, and moves it out.  Call
  /// exactly once, after finished() turns true.
  SimulationResult finish();

 private:
  // --- scheduling machinery -------------------------------------------
  void start_job(TaskIndex task);
  /// L5-L7 for one due delay-queue entry: starts the job, lets an armed
  /// governor skip it, draws its release jitter, and inserts it into the
  /// run queue or stages it.  Returns false when the governor skipped it.
  bool release_job(TaskIndex task);
  /// Drops the DVS slowdown plan (no plan is active afterwards).
  void end_plan();
  bool governor_armed() const {
    return skip_policy_ != weakly_hard::SkipPolicy::kNever;
  }
  /// The trace record of `index`'s current job, closed now with
  /// `executed` work done; the caller marks how the job ended.  `t` is
  /// task(index), passed in so the completion path looks it up once.
  sim::JobRecord job_record(TaskIndex index, const sched::Task& t,
                            Work executed) const;
  void invoke_scheduler();
  void try_slowdown();
  void enter_power_down();
  void finish_active_job();

  // --- weakly-hard skip governor (docs/WEAKLY_HARD.md) ------------------
  /// Release-time decision for the just-started job of `index`: governor
  /// armed, constraint window permits, and the policy/overload state
  /// calls for spending the skip.
  bool weakly_hard_should_skip(TaskIndex index) const;
  /// Raises the dynamic overload latch when the just-released job of
  /// `index` cannot complete by its deadline at base speed given the
  /// declared remaining demand of higher-priority ready jobs.
  void note_release_pressure(TaskIndex index);
  /// Books a governor-granted skip of the just-started job: skip record,
  /// settle, re-queue at the next period.  The job never becomes ready.
  void skip_released_job(TaskIndex index);
  /// Feeds a settled job outcome to the governor (no-op when disarmed).
  void settle_weakly_hard(TaskIndex index, bool met, bool skipped);
  /// Skip-aware DVS fast path: while a slowdown plan is active, consume
  /// due releases before the L1-L4 ramp-up check; skipped ones never
  /// wake the plan.  Returns true when the invocation is fully handled
  /// (only skipped releases were due) and the plan should keep running.
  bool consume_releases_under_plan();

  // --- fault detection and containment ---------------------------------
  /// The active job just exhausted its WCET budget: count the overrun,
  /// enter safe mode, apply the configured containment action.
  void on_budget_exhausted();
  /// Aborts the active job at its budget (OverrunAction::kKill).
  void kill_active_job();
  /// Re-inserts a killed task into the delay queue at its next release,
  /// forfeiting the periods its overrun already consumed.
  void requeue_contained_task(TaskIndex index);
  /// Latches safe mode: cancel the DVS plan, ramp to base, and decline
  /// slowdowns/power-downs until the next idle instant.
  void enter_safe_mode();

  // --- time advancement ------------------------------------------------
  /// Current ramp slope in ratio-units per microsecond (0 when steady).
  double slope() const;
  /// Advances the clock to `next`, integrating energy, work and trace.
  void advance_to(const detail::TimePoint& next);

  const sched::Task& task(TaskIndex index) const {
    return (*tasks_)[index];
  }
  detail::JobState& job(TaskIndex index) {
    return jobs_[static_cast<std::size_t>(index)];
  }

  /// Next release the active task must be ready for: head of the delay
  /// queue, or (single-task systems) its own next period.  Under
  /// skip-aware DVS it is the next release whose job the governor will
  /// *not* certainly skip (each certainly-skipped head defers its task
  /// by one period).
  Time next_arrival_for_active() const;

  // --- borrowed inputs -------------------------------------------------
  // tasks_ is the first member: the constructor validates the spec in
  // its initializer, so nothing below is built for a spec that throws.
  const sched::TaskSet* tasks_ = nullptr;
  const power::ProcessorConfig* processor_ = nullptr;
  const SchedulerPolicy* policy_ = nullptr;
  exec::ExecModelPtr exec_model_;
  const EngineOptions* options_ = nullptr;

  // --- mutable state ----------------------------------------------------
  // The order is measured, not arbitrary: grouping the per-event members
  // at the front read slower on paper-sims (docs/PERFORMANCE.md,
  // "SimState member order").
  Rng rng_;
  power::PowerModel power_model_;
  /// Points at power_model_; SimState is neither copied nor moved, so
  /// the address stays valid.
  power::EnergyAccumulator accumulator_;
  /// What finish() returns.  Every counter, the per-task totals and the
  /// trace (engaged by begin() when options->record_trace) are written
  /// here as the run goes; finish() adds what only the end of the run
  /// knows: the energy totals, the mean running ratio and the governor
  /// totals.
  SimulationResult result_;

  detail::TimePoint now_;
  detail::CpuState state_ = detail::CpuState::kIdle;

  sched::RunQueue run_queue_;
  sched::DelayQueue delay_queue_;
  std::vector<detail::JobState> jobs_;
  std::vector<std::int64_t> next_instance_;
  TaskIndex active_ = kNoTask;

  /// Jobs released (instance started, execution time drawn) but not yet
  /// visible to the scheduler because of release jitter.
  struct StagedJob {
    TaskIndex task = kNoTask;
    detail::TimePoint ready;
  };
  std::vector<StagedJob> staged_;

  // Speed sub-state: ratio_ moves toward ramp_target_ at ramp_rate.
  // "Full speed" for the scheduler is base_ratio_: 1.0 normally, or the
  // policy's constant clock under static slowdown.
  Ratio base_ratio_ = 1.0;
  Ratio ratio_ = 1.0;
  Ratio ramp_target_ = 1.0;
  /// L1-L4 semantics: re-enter the scheduler when the ramp completes.
  bool reinvoke_after_ramp_ = false;

  // The DVS slowdown plan is its two instants.  plan_end_ is kNever
  // while no plan runs; plan_rampup_start_ is kNever while no plan runs
  // and again once the plan's up-ramp has begun.
  detail::TimePoint plan_rampup_start_ = detail::kNeverPoint;
  detail::TimePoint plan_end_ = detail::kNeverPoint;

  // Power-down timers and the sleep state currently occupied.
  detail::TimePoint wake_at_ = detail::kNeverPoint;   ///< Timer expiry.
  detail::TimePoint wake_end_ = detail::kNeverPoint;  ///< End of wake-up.
  double sleep_power_fraction_ = 0.0;
  Time sleep_wake_latency_ = 0.0;

  // Timeout-shutdown policy state.
  detail::TimePoint shutdown_at_ = detail::kNeverPoint;

  // Overrun injection / containment (resolved once at bind; all of it
  // inert — and bit-identity preserving — when neither options->faults
  // nor options->containment is configured).
  bool detection_enabled_ = false;  ///< Overruns armed or containment on.
  /// The fault plan arms an overrun: start_job may give a job more
  /// than its WCET.
  bool overruns_armed_ = false;
  bool safe_mode_ = false;

  // Weakly-hard skip governor (resolved once at bind; everything
  // below is inert — and bit-identity preserving — while skip_policy_
  // is kNever, which it is unless the task set declares weakly-hard
  // constraints and the configured policy is not kNever).
  bool skip_dvs_ = false;  ///< Skip-aware DVS; implies an armed governor.
  weakly_hard::SkipPolicy skip_policy_ = weakly_hard::SkipPolicy::kNever;
  weakly_hard::SkipGovernor governor_;
  /// Hard RTA failed at begin(): the set cannot meet every deadline even
  /// at base speed, so degradation is on from t = 0 and never clears.
  bool overload_structural_ = false;
  /// Runtime trigger — predicted miss at a release, detected overrun,
  /// or an actual miss; cleared at the next idle instant (the backlog
  /// has drained).
  bool overload_dynamic_ = false;

  /// Integral of the speed ratio over running time; finish() divides it
  /// by the running time the accumulator kept.
  double running_ratio_integral_ = 0.0;

  // Loop bookkeeping: the livelock detector and the horizon the loop
  // tests against.
  detail::TimePoint horizon_ = detail::kNeverPoint;
  detail::TimePoint last_now_{-1.0, 0.0};
  int stalled_iterations_ = 0;

  /// Samples the queue depths for the high-water counters; called at
  /// every scheduler-invocation exit (the only points where the queues
  /// change).  The ready depth counts the dispatched task too.
  void sample_queue_depths() {
    const int ready = static_cast<int>(run_queue_.size()) +
                      (active_ != kNoTask ? 1 : 0);
    result_.run_queue_high_water =
        std::max(result_.run_queue_high_water, ready);
    result_.delay_queue_high_water =
        std::max(result_.delay_queue_high_water,
                 static_cast<int>(delay_queue_.size()));
  }
};

}  // namespace lpfps::core
