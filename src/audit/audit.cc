#include "audit/audit.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/float_compare.h"
#include "power/speed_profile.h"

namespace lpfps::audit {

namespace {

using sim::ProcessorMode;
using sim::Segment;

constexpr Time kInf = std::numeric_limits<Time>::infinity();
constexpr std::int64_t kMaxCount = std::numeric_limits<std::int64_t>::max();

std::string fmt(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

/// Work executed over [x, y] inside a segment whose ratio moves linearly
/// from ratio_begin to ratio_end: the trapezoid under the clipped chord.
Work clipped_work(const Segment& s, Time x, Time y) {
  x = std::max(x, s.begin);
  y = std::min(y, s.end);
  if (y <= x) return 0.0;
  if (s.ratio_begin == s.ratio_end) return s.ratio_begin * (y - x);
  const double slope =
      s.duration() > 0.0 ? (s.ratio_end - s.ratio_begin) / s.duration() : 0.0;
  const Ratio rx = s.ratio_begin + slope * (x - s.begin);
  const Ratio ry = s.ratio_begin + slope * (y - s.begin);
  return (rx + ry) / 2.0 * (y - x);
}

/// Idle, powered down or waking: no job may be pending (S1, T5).
bool idles(const Segment& s) {
  using enum ProcessorMode;
  return s.mode == kIdleBusyWait || s.mode == kPowerDown || s.mode == kWakeUp;
}

/// `instance + 1`, saturating: a hostile record may claim the largest.
std::int64_t successor(std::int64_t instance) {
  return instance < kMaxCount ? instance + 1 : instance;
}

/// Settled outcome of one instance, reconstructed from the records.
enum class Outcome : std::uint8_t { kMet, kFailed, kSkipped };

/// One job's window: the interval it may legitimately occupy the processor.
struct Window {
  std::int64_t instance = 0;
  Time release = 0.0;
  Time end = 0.0;       ///< Completion, or the trace end while in flight.
  Time deadline = 0.0;  ///< Absolute deadline.
  Time clip = 0.0;  ///< J2 integrates [clip, end] iff finished and clip < end.
  Work work = 0.0;      ///< J2's integral, summed by the segment walk.
  std::int64_t record = -1;  ///< Its job record; -1 while in flight.
  Outcome outcome = Outcome::kFailed;
  bool finished = false;
};

struct Interval { Time begin = 0.0, end = 0.0; };

bool begins_before(const Interval& a, const Interval& b) {
  return a.begin < b.begin;
}

/// Merges sorted [first, last) in place, dropping empty ones; new end.
Interval* coalesce(Interval* first, Interval* last) {
  Interval* out = first;
  for (Interval* in = first; in != last; ++in) {
    if (in->end <= in->begin) continue;
    if (out != first && in->begin <= out[-1].end) {
      out[-1].end = std::max(out[-1].end, in->end);
    } else {
      *out++ = *in;
    }
  }
  return out;
}

/// One task's slice of the flat arrays, and the walk's forward cursors.
struct TaskSlice {
  std::size_t windows = 0;  ///< First window: records, then in flight.
  std::size_t windows_end = 0;
  std::size_t covers_end = 0;   ///< Merged windows start at `windows`.
  std::size_t pending = 0;      ///< First cover ending after the walk.
  std::size_t integrating = 0;  ///< First window J2 may still add to.
  std::size_t judged = 0;       ///< First window S2 has not reached.
  std::int64_t next_instance = 0;  ///< One past the largest instance seen.
  Time prior_done = -kInf;  ///< Latest finished or killed completion.
  sched::Priority priority = 0;
  bool release_sorted = true;  ///< Windows in release order.
};

/// One distinct ramp, keyed by its endpoints' bits, and its energy.
struct Ramp {
  std::uint64_t from = 0, to = 0;
  bool executing = false, used = false;
  Energy energy = 0.0;
};

class Auditor {
 public:
  Auditor(const sim::Trace& trace, const sched::TaskSet& tasks, Time horizon,
          const AuditOptions& options, const power::ProcessorConfig* cpu,
          const core::SimulationResult* result)
      : trace_(trace),
        tasks_(tasks),
        horizon_(horizon),
        options_(options),
        cpu_(cpu),
        result_(result),
        cap_(static_cast<std::size_t>(std::max(options.max_violations, 0))),
        floor_ratio_(cpu != nullptr ? cpu->frequencies.f_min() /
                                          cpu->frequencies.f_max()
                                    : 0.0) {}

  /// One walk over the job records, one over the segments in time
  /// order, then the checks that read what the walks summed.
  AuditReport run() {
    walk_records();
    walk_segments();
    for (const Window& w : windows_) {
      if (!w.finished) continue;
      const sim::JobRecord& job = trace_.jobs()[w.record];
      key_ = {w.record, 0};
      if (std::abs(w.work - job.executed) >
          options_.work_epsilon + 1e-9 * job.executed) {
        add("J2.work", job.completion,
            job_of(job) + ": trace work integral " + fmt(w.work) +
                " != recorded demand " + fmt(job.executed));
      }
    }
    if (options_.weakly_hard) check_weakly_hard();
    if (cpu_ != nullptr && result_ != nullptr) {
      check_energy();
      check_counters();
    }
    for (auto& found : found_) {
      std::stable_sort(found.begin(), found.end(), by_key);
      for (Found& f : found) {
        if (report_.violations.size() >= cap_) break;
        report_.violations.push_back(std::move(f.second));
      }
    }
    return std::move(report_);
  }

 private:
  /// Catalog sections in report order: kJ interleaves J1-J4 with J2 by
  /// record, and kPlacement holds J5 with S3, task by priority.
  enum Section { kT, kJ, kPlacement, kS1, kS2, kD, kF, kW, kE, kC };
  using Key = std::pair<std::int64_t, std::int64_t>;
  using Found = std::pair<Key, Violation>;

  static bool by_key(const Found& a, const Found& b) {
    return a.first < b.first;
  }
  static Section section_of(const std::string& code) {
    if (code[0] == 'J') return code[1] == '5' ? kPlacement : kJ;
    if (code[0] == 'S') {
      return code[1] == '1' ? kS1 : code[1] == '2' ? kS2 : kPlacement;
    }
    // T, D, F, W, E and C are one section each, in this order.
    return static_cast<Section>(std::string_view("T????DFWEC").find(code[0]));
  }

  /// Files a violation under its code's section, by `key_` where the walks
  /// visit it out of report order; a section keeps max_violations.
  void add(const std::string& code, Time at, std::string message) {
    const Section section = section_of(code);
    auto& found = found_[section];
    if (found.size() >= 4 * cap_) {
      std::stable_sort(found.begin(), found.end(), by_key);
      found.resize(cap_);
    }
    const bool keyed = section == kJ || section == kPlacement || section == kS2;
    if (cap_ == 0) return;
    found.emplace_back(keyed ? key_ : Key{},
                       Violation{code, at, std::move(message)});
  }

  const std::vector<Segment>& segments() const { return trace_.segments(); }
  std::size_t task_count() const { return tasks_.size(); }
  Time trace_end() const {
    return segments().empty() ? 0.0 : segments().back().end;
  }
  const sched::Task& task_at(std::size_t t) const {
    return tasks_[static_cast<TaskIndex>(t)];
  }
  bool valid_task(TaskIndex task) const {
    return task >= 0 && static_cast<std::size_t>(task) < task_count();
  }
  /// "<task> instance <n>", the subject of a record's messages.
  std::string job_of(const sim::JobRecord& job) const {
    return tasks_[job.task].name + " instance " + std::to_string(job.instance);
  }

  // ---- The record walk: windows, J1/J3/J4, F, W3, C1 -------------------

  void walk_records() {
    const auto& jobs = trace_.jobs();
    slices_.assign(task_count(), {});
    // Count per task, take offsets, then fill: one window per record and
    // the in-flight one, task-major, and each interval alike, to merge.
    for (const sim::JobRecord& job : jobs) {
      if (valid_task(job.task)) ++slices_[job.task].windows_end;
    }
    std::size_t windows = 0;
    for (std::size_t t = 0; t < task_count(); ++t) {
      TaskSlice& ts = slices_[t];
      ts.priority = task_at(t).priority;
      const std::size_t records = std::exchange(ts.windows_end, windows);
      ts.windows = ts.pending = ts.integrating = ts.judged = windows;
      windows += records + 1;
    }
    windows_.resize(windows);
    covers_.resize(windows);
    const bool faults = options_.containment != faults::OverrunAction::kNone ||
                        options_.safe_mode_fallback;
    for (std::size_t r = 0; r < jobs.size(); ++r) {
      const sim::JobRecord& job = jobs[r];
      key_ = {static_cast<std::int64_t>(r), 0};
      ++report_.jobs_checked;
      if (job.finished) ++finished_records_;
      if (job.missed_deadline) ++missed_records_;
      if (job.skipped) ++skip_records_;
      if (!valid_task(job.task)) {
        add("J1.task", job.release,
            "job record names invalid task index " + std::to_string(job.task));
        continue;
      }
      TaskSlice& ts = slices_[job.task];
      // A killed job frees the processor at the kill instant, a skipped
      // one never holds it (its window is the decision instant); only a
      // job in flight may occupy the trace tail.
      Window& w = append_window(
          ts, job.release,
          job.finished || job.killed || job.skipped ? job.completion
                                                    : trace_end());
      w.instance = job.instance;
      w.deadline = job.absolute_deadline;
      w.record = static_cast<std::int64_t>(r);
      w.finished = job.finished;
      w.outcome = job.skipped ? Outcome::kSkipped
                  : job.finished && !job.missed_deadline ? Outcome::kMet
                                                         : Outcome::kFailed;
      // A backlogged predecessor (misses, monitored overruns) runs in its
      // successor's window; its work is not the successor's.
      if (job.finished) w.clip = std::max(job.release, ts.prior_done);
      if (job.finished || job.killed) {
        ts.prior_done = std::max(ts.prior_done, job.completion);
      }
      check_job(job, ts);
      if (faults) check_fault(job);
      if (options_.weakly_hard && job.skipped) check_skip(job);
    }
    if (faults) check_fault_totals();
    for (std::size_t t = 0; t < task_count(); ++t) {
      TaskSlice& ts = slices_[t];
      const sched::Task& task = task_at(t);
      // One in-flight window per task whose next release precedes the
      // trace end: one past the largest instance seen (containment
      // forfeits windows), in double so no hostile instance overflows.
      const Time release =
          static_cast<Time>(task.phase) + static_cast<Time>(ts.next_instance) *
                                              static_cast<Time>(task.period);
      if (definitely_less(release, trace_end(), options_.epsilon)) {
        Window& w = append_window(ts, release, trace_end());
        w.instance = ts.next_instance;
        w.deadline = release + static_cast<Time>(task.deadline);
      }
      // Merge the windows (J5, S1, S3); sorted only if out of order.
      Interval* first = covers_.data() + ts.windows;
      Interval* last = covers_.data() + ts.windows_end;
      if (!ts.release_sorted) std::sort(first, last, begins_before);
      ts.covers_end =
          static_cast<std::size_t>(coalesce(first, last) - covers_.data());
    }
  }

  /// Appends a window of `ts` and its interval.
  Window& append_window(TaskSlice& ts, Time release, Time end) {
    if (ts.windows_end > ts.windows &&
        release < windows_[ts.windows_end - 1].release) {
      ts.release_sorted = false;
    }
    covers_[ts.windows_end] = {release, end};
    Window& w = windows_[ts.windows_end++];
    w.release = release;
    w.end = w.clip = end;
    return w;
  }

  /// Trace work of `task` over [a, segment j's begin], walking back.
  Work executed_before(TaskIndex task, Time a, std::size_t j) const {
    const auto& segs = segments();
    std::size_t k = j;
    while (k > 0 && segs[k - 1].end > a) --k;
    Work total = 0.0;
    for (; k < j; ++k) {
      if (segs[k].mode == ProcessorMode::kRunning && segs[k].task == task) {
        total += clipped_work(segs[k], a, segs[j].begin);
      }
    }
    return total;
  }

  /// The windows of `task` possibly released by `t` (all if unsorted).
  std::pair<const Window*, const Window*> released_by(std::size_t task,
                                                      Time t) const {
    const TaskSlice& ts = slices_[task];
    const Window* first = windows_.data() + ts.windows;
    const Window* last = windows_.data() + ts.windows_end;
    if (!ts.release_sorted) return {first, last};
    return {first, std::partition_point(first, last, [t](const Window& w) {
              return w.release <= t;
            })};
  }

  /// True when `task` has a governor-skip record at release instant `r`.
  bool is_skipped_release(std::size_t task, Time r) const {
    if (skip_records_ == 0) return false;
    auto [first, last] = released_by(task, r + options_.epsilon);
    for (; last != first; --last) {
      if (std::abs(last[-1].release - r) <= options_.epsilon &&
          last[-1].outcome == Outcome::kSkipped) {
        return true;
      }
      if (slices_[task].release_sorted &&
          last[-1].release < r - options_.epsilon) {
        break;
      }
    }
    return false;
  }

  /// Next nominal release strictly after `t` across all tasks but
  /// `exclude` (alone, its own next period, as in the engine); skipped
  /// releases demand no CPU, so plans may span them (permissively).
  Time next_release_after(Time t, std::size_t exclude) const {
    Time next = kInf;
    for (std::size_t u = 0; u < task_count(); ++u) {
      if (u == exclude && task_count() > 1) continue;
      const sched::Task& task = task_at(u);
      const auto period = static_cast<Time>(task.period);
      const auto phase = static_cast<Time>(task.phase);
      Time release = phase;
      if (t >= phase) {
        release =
            phase + period * (std::floor((t - phase) / period) + 1.0);
      }
      while (release <= t + options_.epsilon) release += period;
      if (options_.weakly_hard) {
        while (is_skipped_release(u, release)) release += period;
      }
      next = std::min(next, release);
    }
    return next;
  }

  // ---- J: job accounting ------------------------------------------------

  void check_job(const sim::JobRecord& job, TaskSlice& ts) {
    const sched::Task& task = tasks_[job.task];

    // Containment forfeits windows: instances may skip, but increase.
    const std::int64_t expected_instance = ts.next_instance;
    const bool ordered = options_.faults_injected
                             ? job.instance >= expected_instance
                             : job.instance == expected_instance;
    if (!ordered) {
      add("J1.instance", job.release,
          task.name + " records instance " + std::to_string(job.instance) +
              " out of order (expected " +
              (options_.faults_injected ? ">= " : "") +
              std::to_string(expected_instance) + ")");
    }
    ts.next_instance = std::max(ts.next_instance, successor(job.instance));
    const Time expected_release =
        static_cast<Time>(task.phase) +
        static_cast<Time>(job.instance) * static_cast<Time>(task.period);
    if (std::abs(job.release - expected_release) > options_.epsilon) {
      add("J1.release", job.release,
          job_of(job) + " released at " + fmt(job.release) +
              ", periodic model says " + fmt(expected_release));
    }
    if (std::abs(job.absolute_deadline -
                 (job.release + static_cast<Time>(task.deadline))) >
        options_.epsilon) {
      add("J1.deadline", job.release,
          job_of(job) + " deadline " + fmt(job.absolute_deadline) +
              " != release + D = " +
              fmt(job.release + static_cast<Time>(task.deadline)));
    }
    if (!job.finished) return;  // Unfinished records carry no demand.
    if (definitely_less(job.completion, job.release, options_.epsilon)) {
      add("J1.completion", job.completion,
          job_of(job) + " completes at " + fmt(job.completion) +
              " before its release " + fmt(job.release));
    }
    const bool late = definitely_greater(job.completion,
                                         job.absolute_deadline,
                                         options_.epsilon);
    if (late != job.missed_deadline &&
        std::abs(job.completion - job.absolute_deadline) >
            options_.epsilon) {
      add("J4.flag", job.completion,
          job_of(job) + " completion " + fmt(job.completion) + " vs deadline " +
              fmt(job.absolute_deadline) +
              " disagrees with missed_deadline=" +
              (job.missed_deadline ? "true" : "false"));
    }
    // A weakly-hard task's QoS contract is its (m,k) window (W1), not
    // the blanket zero-miss promise — only hard tasks keep J4.miss.
    if (options_.expect_no_misses && job.missed_deadline &&
        !(options_.weakly_hard && task.weakly_hard())) {
      add("J4.miss", job.completion,
          job_of(job) + " missed its deadline: completed " +
              fmt(job.completion) + " > " + fmt(job.absolute_deadline) +
              " under a policy that promised none");
    }
    if (!(job.executed > 0.0)) {
      add("J3.empty", job.release,
          job_of(job) + " records non-positive demand " + fmt(job.executed));
    } else if (options_.check_job_demand &&
               job.executed > task.wcet + options_.work_epsilon) {
      add("J3.overrun", job.completion,
          job_of(job) + " overran its WCET: executed " + fmt(job.executed) +
              " > C=" + fmt(task.wcet));
    }
  }

  // ---- The segment walk: T, E, C2, J2, J5, S1, S3, S2, D -----------------

  void walk_segments() {
    const auto& segs = segments();
    if (segs.empty() && horizon_ > options_.epsilon) {
      add("T1.empty", 0.0,
          "trace has no segments but the horizon is " + fmt(horizon_) +
              " us");
    }
    if (segs.empty()) return;
    if (std::abs(segs.front().begin) > options_.epsilon) {
      add("T1.start", segs.front().begin,
          "first segment begins at t=" + fmt(segs.front().begin) +
              ", expected t=0");
    }
    if (!approx_equal(segs.back().end, horizon_, 1e-3)) {
      add("T1.horizon", segs.back().end,
          "trace ends at t=" + fmt(segs.back().end) +
              " but the simulated horizon is " + fmt(horizon_));
    }

    // S1 and S3 read the job windows as the scheduler's pending set; tied
    // priorities (which TaskSet::validate rejects) leave S3 no order.
    const bool pending_model = options_.check_work_conserving;
    bool check_priority = pending_model;
    for (std::size_t t = 0; check_priority && t < task_count(); ++t) {
      for (std::size_t u = t + 1; u < task_count(); ++u) {
        if (slices_[u].priority == slices_[t].priority) check_priority = false;
      }
    }
    const bool energy = cpu_ != nullptr && result_ != nullptr;
    std::optional<power::PowerModel> model;
    if (energy) model = cpu_->make_power_model();
    sorted_ = std::ranges::is_sorted(segs, {}, &Segment::begin);
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const Segment& s = segs[i];
      // A segment beginning before the previous one rewinds the cursors.
      if (i > 0 && s.begin < segs[i - 1].begin) {
        for (TaskSlice& ts : slices_) ts.pending = ts.integrating = ts.windows;
      }
      check_segment(i);
      if (energy) integrate_energy(s, *model);
      if (s.mode == ProcessorMode::kPowerDown) ++sleeps_;
      if (s.mode == ProcessorMode::kRunning && valid_task(s.task)) {
        const auto t = static_cast<std::size_t>(s.task);
        integrate_work(slices_[t], s);
        check_placement(t, s, i, check_priority);
      } else if (pending_model && idles(s)) {
        check_pending(s, nullptr);
      }
      const Time bound = i + 1 < segs.size() ? segs[i + 1].begin : kInf;
      if (options_.check_full_speed_at_releases && !(next_release_ >= bound)) {
        check_releases(i, bound);
      }
      if (cpu_ != nullptr && options_.check_dvs_plans) check_plan(i);
    }
  }

  // ---- T: timeline and ratio structure ---------------------------------

  void check_segment(std::size_t i) {
    const auto& segs = segments();
    const double reps = options_.ratio_epsilon;
    const double rho = cpu_ != nullptr ? cpu_->ramp_rate : 0.0;
    const Ratio ceil_ratio = std::max(options_.base_ratio, 0.0);
    const Segment& s = segs[i];
    ++report_.segments_checked;
    if (s.end <= s.begin) {
      add("T1.order", s.begin,
          "segment " + std::to_string(i) + " runs backwards or is empty: [" +
              fmt(s.begin) + ", " + fmt(s.end) + ")");
      return;
    }
    if (i > 0) {
      const Time prev_end = segs[i - 1].end;
      if (std::abs(s.begin - prev_end) > options_.epsilon) {
        const bool overlap = s.begin < prev_end;
        add(overlap ? "T1.overlap" : "T1.gap", s.begin,
            std::string("segment ") + std::to_string(i) +
                (overlap ? " overlaps the previous one: "
                         : " leaves a gap after the previous one: ") +
                "previous ends at " + fmt(prev_end) + ", this begins at " +
                fmt(s.begin));
      }
      const double jump = std::abs(s.ratio_begin - segs[i - 1].ratio_end);
      if (jump > reps + rho * kTimeEpsilon) {
        add("T2.discontinuity", s.begin,
            "speed ratio jumps from " + fmt(segs[i - 1].ratio_end) + " to " +
                fmt(s.ratio_begin) + " across the boundary at t=" +
                fmt(s.begin));
      }
    }
    for (const Ratio r : {s.ratio_begin, s.ratio_end}) {
      if (r < floor_ratio_ - reps || r > ceil_ratio + reps || r <= 0.0) {
        add("T2.range", s.begin,
            "segment " + std::to_string(i) + " ratio " + fmt(r) +
                " outside [" + fmt(std::max(floor_ratio_, 1e-12)) + ", " +
                fmt(ceil_ratio) + "]");
        break;
      }
    }
    if (s.mode == ProcessorMode::kRunning && !valid_task(s.task)) {
      add("T4.task", s.begin,
          "running segment " + std::to_string(i) +
              " names invalid task index " + std::to_string(s.task));
    } else if (idles(s) &&
               (std::abs(s.ratio_begin - s.ratio_end) > reps ||
                std::abs(s.ratio_begin - options_.base_ratio) > reps)) {
      add("T5.mode-ratio", s.begin,
          std::string(sim::to_string(s.mode)) + " segment " +
              std::to_string(i) + " not at the constant base ratio " +
              fmt(options_.base_ratio) + ": " + fmt(s.ratio_begin) + " -> " +
              fmt(s.ratio_end));
    }
    if (cpu_ != nullptr && s.ratio_begin != s.ratio_end) {
      const Time expected = std::abs(s.ratio_end - s.ratio_begin) / rho;
      if (!approx_equal(s.duration(), expected,
                        1e-6 + s.duration() * 1e-9)) {
        add("T6.slope", s.begin,
            "ramp segment " + std::to_string(i) + " moves " +
                fmt(s.ratio_begin) + " -> " + fmt(s.ratio_end) + " in " +
                fmt(s.duration()) + " us; rho=" + fmt(rho) + " needs " +
                fmt(expected) + " us");
      }
    }

    // T3: a steady slowed running ratio must be an exact frequency
    // level (the engine quantizes up onto the ascending table).
    if (cpu_ != nullptr && s.mode == ProcessorMode::kRunning &&
        !cpu_->frequencies.is_continuous() &&
        s.ratio_begin == s.ratio_end &&
        s.ratio_begin < options_.base_ratio - reps) {
      const auto& table = cpu_->frequencies;
      const auto level = std::partition_point(
          table.levels().begin(), table.levels().end(), [&](MegaHertz f) {
            return !(table.ratio_of(f) - s.ratio_begin > -1e-12);
          });
      if (level == table.levels().end() ||
          !(std::abs(table.ratio_of(*level) - s.ratio_begin) < 1e-12)) {
        add("T3.level", s.begin,
            "steady slowed ratio " + fmt(s.ratio_begin) +
                " is not an available frequency level");
      }
    }
  }

  // ---- J2, J5 and S3 over one running segment ---------------------------

  /// J2: adds `s` to the record windows of its task it overlaps, which
  /// are disjoint and in record order, so a forward cursor finds them.
  void integrate_work(TaskSlice& ts, const Segment& s) {
    while (ts.integrating < ts.windows_end &&
           !(windows_[ts.integrating].clip < windows_[ts.integrating].end &&
             windows_[ts.integrating].end > s.begin)) {
      ++ts.integrating;
    }
    for (std::size_t w = ts.integrating; w < ts.windows_end; ++w) {
      Window& window = windows_[w];
      if (!(window.clip < window.end)) continue;
      if (window.clip >= s.end) break;
      window.work += clipped_work(s, window.clip, window.end);
    }
  }

  /// First merged window of `ts` ending after `t` (asked in time order).
  std::size_t pending_from(TaskSlice& ts, Time t) {
    while (ts.pending < ts.covers_end && covers_[ts.pending].end <= t) {
      ++ts.pending;
    }
    return ts.pending;
  }

  /// J5: a running segment sits inside one of its task's merged windows.
  /// S3: it overlaps no higher-priority task's window by more than
  /// epsilon.  Both report task by task in priority order.
  void check_placement(std::size_t t, const Segment& s, std::size_t i,
                       bool check_priority) {
    TaskSlice& ts = slices_[t];
    key_ = {ts.priority,
            static_cast<std::int64_t>(t * segments().size() + i)};
    std::size_t c = pending_from(ts, s.begin);
    while (c < ts.covers_end && covers_[c].end < s.begin + options_.epsilon) {
      ++c;
    }
    if (c >= ts.covers_end ||
        s.begin < covers_[c].begin - options_.epsilon ||
        s.end > covers_[c].end + options_.epsilon) {
      add("J5.placement", s.begin,
          task_at(t).name + " runs in [" + fmt(s.begin) + ", " + fmt(s.end) +
              ") outside any of its job windows");
    }
    if (check_priority) check_pending(s, &ts);
  }

  /// S3 for a segment of `below`'s task, or S1 for an idle one (`below`
  /// null): `s` overlaps no merged window of the tasks above it, or of
  /// any task, by more than epsilon.  The cursors rule out the usual
  /// case, no such window touching `s`; else those windows merge, once.
  void check_pending(const Segment& s, const TaskSlice* below) {
    const auto above = [below](const TaskSlice& ts) {
      return below == nullptr || ts.priority < below->priority;
    };
    bool near = false;
    for (std::size_t t = 0; t < slices_.size() && !near; ++t) {
      if (!above(slices_[t])) continue;
      const std::size_t c = pending_from(slices_[t], s.begin);
      near = c < slices_[t].covers_end && covers_[c].begin < s.end;
    }
    if (!near) return;
    busy_.resize(task_count() + 1);
    auto& busy = busy_[below == nullptr ? task_count() : below - &slices_[0]];
    if (busy.empty()) {
      for (const TaskSlice& ts : slices_) {
        if (!above(ts)) continue;
        busy.insert(busy.end(), covers_.begin() + ts.windows,
                    covers_.begin() + ts.covers_end);
      }
      std::sort(busy.begin(), busy.end(), begins_before);
      busy.resize(static_cast<std::size_t>(
          coalesce(busy.data(), busy.data() + busy.size()) - busy.data()));
    }
    auto it = std::partition_point(
        busy.begin(), busy.end(),
        [&](const Interval& i) { return i.end <= s.begin + options_.epsilon; });
    for (; it != busy.end() && it->begin < s.end - options_.epsilon; ++it) {
      const Time lo = std::max(s.begin, it->begin);
      const Time hi = std::min(s.end, it->end);
      if (!(hi - lo > options_.epsilon)) continue;
      const std::string span = " [" + fmt(lo) + ", " + fmt(hi) + ") while a ";
      const std::string pending = " is pending (pending window [" +
                                  fmt(it->begin) + ", " + fmt(it->end) + "))";
      if (below == nullptr) {
        add("S1.idle-while-pending", lo,
            sim::to_string(s.mode) + (" during" + span) + "released job" +
                pending);
      } else {
        add("S3.priority", lo,
            task_at(static_cast<std::size_t>(below - &slices_[0])).name +
                " runs in" + span + "higher-priority job" + pending);
      }
      return;
    }
  }

  // ---- S2: full speed at every release ----------------------------------

  /// S2 at every release before `bound`, the begin of segment i + 1:
  /// each task's forward cursor reaches its releases in segment i (and
  /// any that its out-of-order records held back).
  void check_releases(std::size_t i, Time bound) {
    const auto& segs = segments();
    next_release_ = kInf;
    for (std::size_t t = 0; t < slices_.size(); ++t) {
      for (std::size_t& w = slices_[t].judged;
           w < slices_[t].windows_end && !(windows_[w].release >= bound); ++w) {
        const Time r = windows_[w].release;
        // Exempt: releases at the trace's ends, and governor-skipped ones
        // (no job, so skips legally sit mid-plan or end a power-down).
        if (!(r > options_.epsilon && r < trace_end() - options_.epsilon) ||
            (options_.weakly_hard && is_skipped_release(t, r))) {
          continue;
        }
        key_ = {static_cast<std::int64_t>(w), 0};
        std::size_t after = i + 1;  // First segment beginning after r.
        if (!sorted_ || !(segs[i].begin <= r)) {
          const auto by_r = [r](const Segment& x) { return x.begin <= r; };
          after = static_cast<std::size_t>(
              std::partition_point(segs.begin(), segs.end(), by_r) -
              segs.begin());
        }
        // Never asleep across a release: the exact power-down timer must
        // have fired (wake-up *ends* at or before the release).
        const std::size_t k = after == 0 ? 0 : after - 1;
        const Segment& s = segs[k];
        if (after > 0 && r > s.begin + options_.epsilon &&
            r < s.end - options_.epsilon &&
            (s.mode == ProcessorMode::kPowerDown ||
             s.mode == ProcessorMode::kWakeUp)) {
          add("S2.asleep", r,
              task_at(t).name + " released at " + fmt(r) +
                  " while the processor is in " + sim::to_string(s.mode) +
                  " until " + fmt(s.end));
          continue;
        }
        // The interpolated ratio, maximized with an adjacent boundary
        // ratio within epsilon of one (either side is fine there).
        const double slope = s.duration() > 0.0
                                 ? (s.ratio_end - s.ratio_begin) / s.duration()
                                 : 0.0;
        Ratio ratio = s.ratio_begin +
                      slope * (std::clamp(r, s.begin, s.end) - s.begin);
        if (k > 0 && r <= s.begin + options_.epsilon) {
          ratio = std::max(ratio, segs[k - 1].ratio_end);
        }
        if (k + 1 < segs.size() && r >= s.end - options_.epsilon) {
          ratio = std::max(ratio, segs[k + 1].ratio_begin);
        }
        if (ratio < options_.base_ratio - options_.ratio_epsilon) {
          add("S2.slow-at-release", r,
              task_at(t).name + " released at " + fmt(r) +
                  " with the clock at ratio " + fmt(ratio) + " < base " +
                  fmt(options_.base_ratio) +
                  " (a slowdown plan overran an arrival)");
        }
      }
      const TaskSlice& ts = slices_[t];
      if (ts.judged < ts.windows_end) {
        next_release_ = std::min(next_release_, windows_[ts.judged].release);
      }
    }
  }

  // ---- D: DVS slowdown plans --------------------------------------------

  /// The window of `task` covering instant `t`, or nullptr; later
  /// windows win (they overlap only under misses).
  const Window* window_at(std::size_t task, Time t) const {
    const Time eps = options_.epsilon;
    auto [first, last] = released_by(task, t + eps);
    while (last != first) {
      --last;
      if (last->release <= t + eps && t <= last->end + eps) return last;
    }
    return nullptr;
  }

  void check_plan(std::size_t i) {
    const auto& segs = segments();
    const double reps = options_.ratio_epsilon;
    const double rho = cpu_->ramp_rate;
    const Ratio base = options_.base_ratio;
    const Segment& s = segs[i];
    // A plan's steady portion: constant slowed ratio under a task.
    if (s.mode != ProcessorMode::kRunning || s.ratio_begin != s.ratio_end ||
        s.ratio_begin >= base - reps || !valid_task(s.task)) {
      return;
    }
    ++report_.plans_checked;
    const auto task = static_cast<std::size_t>(s.task);
    const Ratio r = s.ratio_begin;
    // A near-instant rho settles sub-resolution ramps in place.
    const bool instant = (base - r) / rho < kTimeEpsilon;

    // Back through the down-ramp to the plan start t_c, at base speed.
    std::size_t j = i;
    while (j > 0) {
      const Segment& prev = segs[j - 1];
      const bool down_ramp =
          prev.mode == ProcessorMode::kRunning && prev.task == s.task &&
          prev.ratio_begin > prev.ratio_end + reps &&
          std::abs(prev.ratio_end - segs[j].ratio_begin) <= reps;
      if (!down_ramp) break;
      --j;
    }
    const Time t_c = segs[j].begin;
    if (std::abs(segs[j].ratio_begin - base) > reps && !(instant && j == i)) {
      add("D1.start", t_c,
          "slowdown to ratio " + fmt(r) + " at t=" + fmt(s.begin) +
              " does not start from the base ratio (plan head at " +
              fmt(segs[j].ratio_begin) + ")");
      return;
    }
    const Window* w = window_at(task, t_c);
    if (w == nullptr) return;  // J5 already reports stray execution.
    const Time arrival = next_release_after(t_c, task);
    const Time window_end = std::min(arrival, w->deadline);

    // D1: the plan (steady + up-ramp chain) returns to base speed no
    // later than the window end.
    std::size_t k = i;
    bool reaches_base = segs[k].ratio_end >= base - reps;
    while (!reaches_base && k + 1 < segs.size()) {
      const Segment& next = segs[k + 1];
      if (instant && next.ratio_begin >= base - reps) {
        reaches_base = true;  // Sub-resolution snap back to base.
        break;
      }
      const bool continues =
          (next.mode == ProcessorMode::kRamping ||
           (next.mode == ProcessorMode::kRunning && next.task == s.task)) &&
          std::abs(next.ratio_begin - segs[k].ratio_end) <= reps &&
          next.ratio_end >= next.ratio_begin - reps;
      if (!continues) break;
      ++k;
      reaches_base = segs[k].ratio_end >= base - reps;
    }
    if (reaches_base) {
      if (definitely_greater(segs[k].end, window_end, options_.epsilon)) {
        add("D1.overrun", segs[k].end,
            "slowdown plan starting at t=" + fmt(t_c) +
                " returns to base at " + fmt(segs[k].end) +
                " > min(next arrival " + fmt(arrival) + ", deadline " +
                fmt(w->deadline) + ")");
      }
    } else if (k + 1 < segs.size()) {
      add("D1.no-rampup", segs[k].end,
          "slowdown plan starting at t=" + fmt(t_c) +
              " never ramps back to the base ratio " + fmt(base));
    }  // else: the horizon cut the plan; D2 below still applies.

    // D2: plan capacity (paper eq. 1, measured against the base
    // clock) must cover the job's remaining worst-case work at t_c.
    const Work done_before = executed_before(s.task, w->release, j);
    const Work remaining = tasks_[s.task].wcet - done_before;
    if (remaining <= 0.0) return;
    const Time window = window_end - t_c;
    const Work capacity =
        r * window + (base - r) * (base - r) / (2.0 * rho);
    if (capacity + options_.work_epsilon + 1e-6 * remaining < remaining) {
      add("D2.capacity", t_c,
          "slowdown to ratio " + fmt(r) + " at t=" + fmt(t_c) +
              " cannot cover the remaining WCET: capacity " +
              fmt(capacity) + " over window " + fmt(window) +
              " us < remaining " + fmt(remaining));
    }
  }

  // ---- F: fault detection and containment -------------------------------

  /// Instant at which the record's cumulative trace work crosses
  /// `target`, or nullopt when the trace never accumulates that much.
  std::optional<Time> work_crossing(const sim::JobRecord& job,
                                    Work target) const {
    const auto& segs = segments();
    Work acc = 0.0;
    auto it = std::partition_point(
        segs.begin(), segs.end(),
        [&](const Segment& s) { return s.end <= job.release; });
    for (; it != segs.end() && it->begin < job.completion; ++it) {
      const Segment& s = *it;
      if (s.mode != ProcessorMode::kRunning || s.task != job.task) continue;
      const Time x = std::max(job.release, s.begin);
      const Time y = std::min(job.completion, s.end);
      if (y <= x) continue;
      const Work w = clipped_work(s, x, y);
      if (acc + w >= target) {
        const double slope = s.duration() > 0.0
                                 ? (s.ratio_end - s.ratio_begin) / s.duration()
                                 : 0.0;
        const Ratio rx = s.ratio_begin + slope * (x - s.begin);
        const auto dt =
            power::time_to_complete(rx, slope, y - x, target - acc);
        return dt.has_value() ? x + *dt : y;
      }
      acc += w;
    }
    return std::nullopt;
  }

  /// F1/F3 for one record, collecting F2's overrun-detection instants
  /// (assuming no context-switch cost, which the budget would include).
  void check_fault(const sim::JobRecord& job) {
    const Work wtol = options_.work_epsilon;
    const auto wcet = static_cast<Work>(tasks_[job.task].wcet);
    if (job.killed) {
      ++killed_records_;
      if (job.finished) {
        add("F3.finished", job.completion,
            job_of(job) + " is marked both killed and finished");
      }
      // A kill fires exactly at budget exhaustion: executed == C.
      if (std::abs(job.executed - wcet) > wtol + 1e-9 * wcet) {
        add("F3.budget", job.completion,
            job_of(job) + " killed with executed " + fmt(job.executed) +
                " != its budget C=" + fmt(wcet));
      }
      detections_.push_back(job.completion);
      return;
    }
    if (options_.containment == faults::OverrunAction::kKill) {
      // Surviving (non-killed) jobs stayed within one budget.
      if (job.executed > wcet + wtol) {
        add("F1.budget", job.completion,
            job_of(job) + " executed " + fmt(job.executed) + " > budget C=" +
                fmt(wcet) + " without being killed");
      }
    } else if (job.finished && job.executed > wcet + wtol) {
      // Monitor-only: the overrun instant is still a detection.
      if (const auto at = work_crossing(job, wcet)) detections_.push_back(*at);
    }
  }

  /// F2: from each detection instant the clock must never decrease and
  /// any steady running stretch must sit at base, until the processor
  /// next goes non-running (safe mode legally ends at the idle instant).
  void check_fault_totals() {
    if (options_.safe_mode_fallback) {
      const double reps = options_.ratio_epsilon;
      const auto& segs = segments();
      for (const Time at : detections_) {
        auto it = std::partition_point(
            segs.begin(), segs.end(),
            [&](const Segment& s) { return s.begin < at - options_.epsilon; });
        for (; it != segs.end(); ++it) {
          const Segment& s = *it;
          if (s.mode != ProcessorMode::kRunning &&
              s.mode != ProcessorMode::kRamping) {
            break;
          }
          if (s.ratio_end < s.ratio_begin - reps) {
            add("F2.decrease", s.begin,
                "clock slows from " + fmt(s.ratio_begin) + " to " +
                    fmt(s.ratio_end) + " after the overrun detected at t=" +
                    fmt(at) + " (safe mode must hold full speed)");
            break;
          }
          if (s.mode == ProcessorMode::kRunning &&
              s.ratio_begin == s.ratio_end &&
              s.ratio_begin < options_.base_ratio - reps) {
            add("F2.slow", s.begin,
                "steady ratio " + fmt(s.ratio_begin) + " < base " +
                    fmt(options_.base_ratio) +
                    " after the overrun detected at t=" + fmt(at) +
                    " (safe mode must hold full speed)");
            break;
          }
        }
      }
    }
    if (result_ != nullptr) {
      if (options_.containment == faults::OverrunAction::kKill &&
          result_->jobs_killed != killed_records_) {
        add("F3.count", 0.0,
            "jobs_killed=" + std::to_string(result_->jobs_killed) +
                " but the trace records " + std::to_string(killed_records_) +
                " killed jobs");
      }
      if (options_.safe_mode_fallback && result_->overruns_detected > 0 &&
          result_->safe_mode_entries == 0) {
        add("F2.entry", 0.0,
            std::to_string(result_->overruns_detected) +
                " overruns detected but safe_mode_entries=0 (fallback " +
                "armed yet never engaged)");
      }
    }
  }

  // ---- W: weakly-hard (m,k) invariants -----------------------------------

  /// W3: skip-record shape.
  void check_skip(const sim::JobRecord& job) {
    if (!tasks_[job.task].weakly_hard()) {
      add("W3.hard-skip", job.completion,
          job_of(job) + " was skipped but the task declares no weakly-hard " +
              "constraint");
    }
    if (job.finished || job.killed) {
      add("W3.flags", job.completion,
          job_of(job) + " is marked skipped together with finished/killed");
    }
    if (std::abs(job.executed) > options_.work_epsilon) {
      add("W3.demand", job.completion,
          job_of(job) + " was skipped yet records demand " + fmt(job.executed));
    }
    if (std::abs(job.completion - job.release) > options_.epsilon) {
      add("W3.instant", job.completion,
          job_of(job) + " skip decided at " + fmt(job.completion) +
              " != its release " + fmt(job.release));
    }
  }

  /// W1, W2 and W4 (docs/WEAKLY_HARD.md), replayed from the records alone
  /// — finished in time = met; miss / kill / instance gap = failed; skip
  /// record = skipped — against what the governor claims it maintained.
  void check_weakly_hard() {
    // A governor armed over a set that declares none (a sweep's default
    // overload policy) leaves nothing to replay.
    std::int64_t recomputed_violations = 0;
    for (std::size_t t = 0; t < task_count(); ++t) {
      if (task_at(t).weakly_hard()) replay_mk_windows(t, recomputed_violations);
    }

    // W4: skip records are exact; recomputed violations a lower bound
    // (kills near the horizon forfeit windows that leave no record).
    if (result_ != nullptr) {
      if (result_->jobs_skipped_weakly != skip_records_) {
        add("W4.skips", 0.0,
            "jobs_skipped_weakly=" +
                std::to_string(result_->jobs_skipped_weakly) +
                " but the trace records " + std::to_string(skip_records_) +
                " skipped jobs");
      }
      if (recomputed_violations > result_->mk_violations) {
        add("W4.violations", 0.0,
            "trace replay finds " + std::to_string(recomputed_violations) +
                " (m,k)-window violations but the engine reported only " +
                std::to_string(result_->mk_violations));
      }
    }
  }

  /// W1/W2 for task `t`: records settle in instance order (the last of an
  /// instance wins) into k-outcome bit masks; a gap settles in <= 65 steps.
  void replay_mk_windows(std::size_t t, std::int64_t& violations) {
    const sched::Task& task = task_at(t);
    const int m = task.effective_m();
    const int k = task.effective_k();
    const Time period = static_cast<Time>(task.period);
    const Time phase = static_cast<Time>(task.phase);
    const auto low = [](int bits) {
      return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    };
    std::uint64_t met = ~std::uint64_t{0};  // Bit j: instance i - j met;
    std::uint64_t skipped = 0;              // prehistory counts as met.
    const auto w1 = [&](std::int64_t i, int window_met) {
      add("W1.window", phase + static_cast<Time>(i) * period,
          task.name + " (m,k)=(" + std::to_string(m) + "," +
              std::to_string(k) + "): window ending at instance " +
              std::to_string(i) + " has only " + std::to_string(window_met) +
              " met job(s)");
    };
    const auto settle = [&](std::int64_t i, Outcome outcome) {
      met = met << 1 | (outcome == Outcome::kMet);
      skipped = skipped << 1 | (outcome == Outcome::kSkipped);
      // W1: the k-window ending at each settled instance keeps >= m
      // met jobs (identical to the governor's per-settle check).
      const int window_met = std::popcount(met & low(k));
      if (window_met < m) {
        if (violations < kMaxCount) ++violations;
        w1(i, window_met);
      }
      // W2: replay the skip permission from the preceding history.
      if (outcome == Outcome::kSkipped &&
          !(task.skip_s > 0 ? (skipped >> 1 & low(task.skip_s - 1)) == 0
                            : std::popcount(met >> 1 & low(k - 1)) >= m)) {
        add("W2.impermissible", phase + static_cast<Time>(i) * period,
            task.name + " instance " + std::to_string(i) +
                " was skipped without window permission " +
                (task.skip_s > 0
                     ? "(a prior skip sits inside the last s-1 jobs)"
                     : "(fewer than m met jobs in the last k-1)"));
      }
    };
    order_.clear();
    for (std::size_t w = slices_[t].windows; w < slices_[t].windows_end; ++w) {
      if (windows_[w].record >= 0 && windows_[w].instance >= 0) {
        order_.push_back(w);
      }
    }
    std::stable_sort(order_.begin(), order_.end(),
                     [this](std::size_t a, std::size_t b) {
                       return windows_[a].instance < windows_[b].instance;
                     });
    std::int64_t next = 0;  // First unsettled instance.
    for (std::size_t n = 0; n < order_.size(); ++n) {
      const Window& w = windows_[order_[n]];
      const bool overwritten = n + 1 < order_.size() &&
                               windows_[order_[n + 1]].instance == w.instance;
      if (overwritten) continue;
      // Forfeited instances fail; after 65 the masks are empty, so each
      // later one has 0 met jobs (only max_violations are worth filing).
      const std::int64_t gap = w.instance - next;
      for (std::int64_t g = 0; g < std::min<std::int64_t>(gap, 65); ++g) {
        settle(next + g, Outcome::kFailed);
      }
      if (gap > 65 && m > 0) {
        violations += std::min(gap - 65, kMaxCount - violations);
        const auto filed = 65 + static_cast<std::int64_t>(cap_);
        for (std::int64_t g = 65; g < gap && g < filed; ++g) w1(next + g, 0);
      }
      settle(w.instance, w.outcome);
      next = successor(w.instance);
    }
  }

  // ---- E: energy and time re-integration --------------------------------

  /// ramp_energy of one distinct ramp, integrated once per run in an
  /// open-addressed table; a pure function, so every sum keeps its bits.
  Energy ramp_energy(const power::PowerModel& model, Ratio from, Ratio to,
                     bool executing) {
    if (2 * distinct_ramps_ >= ramps_.size()) {  // Grow, at most half full.
      std::vector<Ramp> old(std::max<std::size_t>(32, 2 * ramps_.size()));
      old.swap(ramps_);
      for (const Ramp& kept : old) {
        if (kept.used) ramp_slot(kept.from, kept.to, kept.executing) = kept;
      }
    }
    Ramp& ramp = ramp_slot(std::bit_cast<std::uint64_t>(from),
                           std::bit_cast<std::uint64_t>(to), executing);
    if (!ramp.used) {
      ramp.used = true;
      ramp.energy = model.ramp_energy(from, to, cpu_->ramp_rate, executing);
      ++distinct_ramps_;
    }
    return ramp.energy;
  }

  /// The table slot keyed by a ramp's bits, claimed if it was empty.
  Ramp& ramp_slot(std::uint64_t from, std::uint64_t to, bool executing) {
    for (std::size_t h = (from * 0x9E3779B97F4A7C15ull ^
                          to * 0xC2B2AE3D27D4EB4Full ^ executing) >> 32;
         ; ++h) {
      Ramp& at = ramps_[h & (ramps_.size() - 1)];
      if (!at.used) at = {from, to, executing};
      if (at.from == from && at.to == to && at.executing == executing) {
        return at;
      }
    }
  }

  void integrate_energy(const Segment& s, const power::PowerModel& model) {
    const auto m = static_cast<std::size_t>(s.mode);
    const Time dt = s.duration();
    if (dt <= 0.0) return;
    time_[m] += dt;
    ++count_[m];
    if (s.mode == ProcessorMode::kRunning) {
      ratio_integral_ += (s.ratio_begin + s.ratio_end) / 2.0 * dt;
    }
    // The power model takes 0 < ratio <= 1 only (NaN fails): a segment
    // outside it adds no energy, and T2 or E1 reports it.
    const auto takes = [](Ratio r) { return r > 0.0 && r <= 1.0 + 1e-9; };
    if (!takes(s.ratio_begin) || !takes(s.ratio_end)) return;
    switch (s.mode) {
      case ProcessorMode::kRunning:
        energy_[m] += s.ratio_begin == s.ratio_end
                          ? dt * model.run_power(s.ratio_begin)
                          : ramp_energy(model, s.ratio_begin, s.ratio_end,
                                        /*executing=*/true);
        break;
      case ProcessorMode::kIdleBusyWait:
        energy_[m] += dt * model.idle_nop_power(s.ratio_begin);
        break;
      case ProcessorMode::kRamping:
        energy_[m] += ramp_energy(model, s.ratio_begin, s.ratio_end,
                                  /*executing=*/false);
        break;
      case ProcessorMode::kWakeUp:
        energy_[m] += dt * 1.0;
        break;
      case ProcessorMode::kPowerDown:
        break;  // Bounded below via the sleep ladder.
    }
  }

  void check_energy() {
    static constexpr const char* kModeNames[5] = {
        "run", "idle-nop", "power-down", "wake-up", "ramping"};
    // The trace stores rounded absolute endpoints, so each re-derived
    // duration can be off by an ulp of the horizon: the tolerance grows
    // with the segment count, or week-long runs flag phantom E2 drift.
    const Time endpoint_ulp = std::numeric_limits<double>::epsilon() *
                              std::max(1.0, result_->simulated_time);
    for (std::size_t m = 0; m < 5; ++m) {
      const auto& reported = result_->by_mode[m];
      if (std::abs(reported.time - time_[m]) >
          1e-6 + 1e-9 * time_[m] +
              static_cast<double>(count_[m]) * endpoint_ulp) {
        add("E2.time", 0.0,
            std::string(kModeNames[m]) + " time: reported " +
                fmt(reported.time) + " us != trace total " + fmt(time_[m]));
      }
      if (m == static_cast<std::size_t>(ProcessorMode::kPowerDown)) {
        double lo_frac = 1.0, hi_frac = 0.0;
        for (const power::SleepState& state : cpu_->sleep_ladder()) {
          lo_frac = std::min(lo_frac, state.power_fraction);
          hi_frac = std::max(hi_frac, state.power_fraction);
        }
        const Energy lo = lo_frac * time_[m];
        const Energy hi = hi_frac * time_[m];
        const double tol =
            options_.energy_rel_tolerance * (1.0 + std::abs(hi));
        if (reported.energy < lo - tol || reported.energy > hi + tol) {
          add("E1.energy", 0.0,
              "power-down energy " + fmt(reported.energy) +
                  " outside the sleep-ladder bounds [" + fmt(lo) + ", " +
                  fmt(hi) + "] for " + fmt(time_[m]) + " us asleep");
        }
        continue;
      }
      const double tol =
          options_.energy_rel_tolerance * (1.0 + std::abs(energy_[m]));
      if (std::abs(reported.energy - energy_[m]) > tol) {
        add("E1.energy", 0.0,
            std::string(kModeNames[m]) + " energy: reported " +
                fmt(reported.energy) + " != re-integrated " +
                fmt(energy_[m]) + " (speed-profile re-integration under " +
                "the power model)");
      }
    }
    Energy mode_sum = 0.0;
    for (const auto& slot : result_->by_mode) mode_sum += slot.energy;
    if (std::abs(result_->total_energy - mode_sum) >
        options_.energy_rel_tolerance * (1.0 + std::abs(mode_sum))) {
      add("E3.total", 0.0,
          "total_energy " + fmt(result_->total_energy) +
              " != sum of per-mode energies " + fmt(mode_sum));
    }
    if (result_->simulated_time > 0.0 &&
        std::abs(result_->average_power * result_->simulated_time -
                 result_->total_energy) >
            options_.energy_rel_tolerance *
                (1.0 + std::abs(result_->total_energy))) {
      add("E3.average", 0.0,
          "average_power " + fmt(result_->average_power) +
              " inconsistent with total_energy / simulated_time");
    }
    const Time t_run = time_[static_cast<std::size_t>(ProcessorMode::kRunning)];
    if (t_run > 0.0) {
      const double mean = ratio_integral_ / t_run;
      if (std::abs(mean - result_->mean_running_ratio) > 1e-6) {
        add("E4.mean-ratio", 0.0,
            "mean_running_ratio " + fmt(result_->mean_running_ratio) +
                " != trace ratio integral / running time = " + fmt(mean));
      }
    }
  }

  // ---- C: counter cross-checks ------------------------------------------

  void check_counters() {
    if (result_->jobs_completed != finished_records_) {
      add("C1.jobs", 0.0,
          "jobs_completed=" + std::to_string(result_->jobs_completed) +
              " but the trace records " + std::to_string(finished_records_) +
              " finished jobs");
    }
    if (result_->deadline_misses != missed_records_) {
      add("C1.misses", 0.0,
          "deadline_misses=" + std::to_string(result_->deadline_misses) +
              " but the trace records " + std::to_string(missed_records_));
    }
    if (result_->power_downs != sleeps_) {
      add("C2.power-downs", 0.0,
          "power_downs=" + std::to_string(result_->power_downs) +
              " but the trace holds " + std::to_string(sleeps_) +
              " power-down segments");
    }
    if (options_.check_dvs_plans &&
        report_.plans_checked > result_->dvs_slowdowns) {
      add("C3.plans", 0.0,
          "trace shows " + std::to_string(report_.plans_checked) +
              " slowdown plans but the engine reported only " +
              std::to_string(result_->dvs_slowdowns));
    }
  }

  const sim::Trace& trace_;
  const sched::TaskSet& tasks_;
  const Time horizon_;
  const AuditOptions& options_;
  const power::ProcessorConfig* cpu_;
  const core::SimulationResult* result_;
  const std::size_t cap_;     ///< max_violations, at least 0.
  const Ratio floor_ratio_;  ///< f_min / f_max.
  AuditReport report_;
  std::array<std::vector<Found>, 10> found_;  ///< Per section.
  Key key_;  ///< Order within a keyed section.
  std::vector<TaskSlice> slices_;
  std::vector<Window> windows_;     ///< Task-major.
  std::vector<Interval> covers_;    ///< Merged windows, task-major.
  /// Merged windows of the tasks above each rank (S3), and of all (S1).
  std::vector<std::vector<Interval>> busy_;
  std::vector<std::size_t> order_;  ///< One task's records by instance.
  std::vector<Time> detections_;    ///< Derived overrun-detection instants.
  std::vector<Ramp> ramps_;
  std::size_t distinct_ramps_ = 0;
  Time next_release_ = -kInf;  ///< S2's earliest release not yet judged.
  bool sorted_ = true;  ///< Begins never decrease, else S2 searches.
  int finished_records_ = 0, missed_records_ = 0, sleeps_ = 0;  // C1, C2.
  std::int64_t killed_records_ = 0, skip_records_ = 0;          // F3, W4.
  std::array<Energy, 5> energy_{};
  std::array<Time, 5> time_{};
  std::array<std::int64_t, 5> count_{};
  double ratio_integral_ = 0.0;
};

}  // namespace

std::string AuditReport::to_string() const {
  std::string out = "audit: " + std::to_string(violations.size()) +
                    " violation(s) across " +
                    std::to_string(segments_checked) + " segments, " +
                    std::to_string(jobs_checked) + " jobs, " +
                    std::to_string(plans_checked) + " plans";
  for (const Violation& v : violations) {
    out += "\n  [" + v.invariant + "] t=" + fmt(v.at) + ": " + v.message;
  }
  return out;
}

AuditReport audit_run(const core::SimulationResult& result,
                      const sched::TaskSet& tasks,
                      const power::ProcessorConfig& cpu,
                      const AuditOptions& options) {
  if (!result.trace.has_value()) {
    throw std::logic_error(
        "audit_run needs a recorded trace; set EngineOptions::record_trace");
  }
  Auditor auditor(*result.trace, tasks, result.simulated_time, options, &cpu,
                  &result);
  return auditor.run();
}

AuditReport audit_trace(const sim::Trace& trace, const sched::TaskSet& tasks,
                        Time horizon, const AuditOptions& options) {
  Auditor auditor(trace, tasks, horizon, options, nullptr, nullptr);
  return auditor.run();
}

}  // namespace lpfps::audit
