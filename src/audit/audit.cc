#include "audit/audit.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/float_compare.h"
#include "power/speed_profile.h"

namespace lpfps::audit {

namespace {

using sim::ProcessorMode;
using sim::Segment;

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
  const double slope =
      s.duration() > 0.0 ? (s.ratio_end - s.ratio_begin) / s.duration() : 0.0;
  const Ratio rx = s.ratio_begin + slope * (x - s.begin);
  const Ratio ry = s.ratio_begin + slope * (y - s.begin);
  return (rx + ry) / 2.0 * (y - x);
}

/// One reconstructed job window of one task: the interval during which
/// the job may legitimately occupy the processor.
struct Window {
  std::int64_t instance = 0;
  Time release = 0.0;
  Time end = 0.0;       ///< Completion, or the trace end while in flight.
  Time deadline = 0.0;  ///< Absolute deadline.
  bool finished = false;
};

struct Interval {
  Time begin = 0.0;
  Time end = 0.0;
};

bool begins_before(const Interval& a, const Interval& b) {
  return a.begin < b.begin;
}

/// Drops empty intervals from `intervals` (sorted by begin) and merges
/// overlapping/adjacent ones, in place.
void coalesce(std::vector<Interval>& intervals) {
  std::size_t merged = 0;
  for (std::size_t k = 0; k < intervals.size(); ++k) {
    const Interval i = intervals[k];
    if (i.end <= i.begin) continue;
    if (merged > 0 && i.begin <= intervals[merged - 1].end) {
      intervals[merged - 1].end = std::max(intervals[merged - 1].end, i.end);
    } else {
      intervals[merged++] = i;
    }
  }
  intervals.resize(merged);
}

/// Sorts `intervals` and coalesces them.
void merge_intervals(std::vector<Interval>& intervals) {
  std::sort(intervals.begin(), intervals.end(), begins_before);
  coalesce(intervals);
}

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
        result_(result) {}

  AuditReport run() {
    build_index();
    check_timeline();
    check_jobs();
    if (options_.check_work_conserving) check_work_conservation();
    if (options_.check_full_speed_at_releases) check_releases();
    if (cpu_ != nullptr && options_.check_dvs_plans) check_dvs_plans();
    if (options_.containment != faults::OverrunAction::kNone ||
        options_.safe_mode_fallback) {
      check_faults();
    }
    if (options_.weakly_hard) check_weakly_hard();
    if (cpu_ != nullptr && result_ != nullptr) {
      check_energy();
      check_counters();
    }
    return std::move(report_);
  }

 private:
  void add(const std::string& code, Time at, std::string message) {
    if (static_cast<int>(report_.violations.size()) >=
        options_.max_violations) {
      return;
    }
    report_.violations.push_back({code, at, std::move(message)});
  }

  const std::vector<Segment>& segments() const { return trace_.segments(); }
  std::size_t task_count() const { return tasks_.size(); }
  Time trace_end() const {
    return segments().empty() ? 0.0 : segments().back().end;
  }

  // ---- index construction ----------------------------------------------

  void build_index() {
    windows_.assign(task_count(), {});
    task_segments_.assign(task_count(), {});
    skipped_releases_.assign(task_count(), {});

    // One counting pass sizes every per-task list, so none regrows.
    struct Counts {
      std::size_t runs = 0;
      std::size_t records = 0;
      std::size_t skips = 0;
    };
    std::vector<Counts> counts(task_count());
    for (const Segment& s : segments()) {
      if (s.mode == ProcessorMode::kRunning && s.task >= 0 &&
          static_cast<std::size_t>(s.task) < task_count()) {
        ++counts[static_cast<std::size_t>(s.task)].runs;
      }
    }
    for (const sim::JobRecord& job : trace_.jobs()) {
      if (job.task < 0 || static_cast<std::size_t>(job.task) >= task_count()) {
        continue;
      }
      Counts& c = counts[static_cast<std::size_t>(job.task)];
      ++c.records;
      if (job.skipped) ++c.skips;
    }
    std::size_t window_capacity = 0;
    for (std::size_t t = 0; t < task_count(); ++t) {
      task_segments_[t].reserve(counts[t].runs);
      // One window per record plus the in-flight one.
      windows_[t].reserve(counts[t].records + 1);
      skipped_releases_[t].reserve(counts[t].skips);
      window_capacity += counts[t].records + 1;
    }
    // J5 merges one task's windows at a time in `cover_`; S3 folds each
    // task's cover into `busy_` through `merged_`, and S1 reads `busy_`.
    cover_.reserve(window_capacity);
    if (options_.check_work_conserving) {
      busy_.reserve(window_capacity);
      merged_.reserve(window_capacity);
    }

    for (std::size_t i = 0; i < segments().size(); ++i) {
      const Segment& s = segments()[i];
      if (s.mode == ProcessorMode::kRunning && s.task >= 0 &&
          static_cast<std::size_t>(s.task) < task_count()) {
        task_segments_[static_cast<std::size_t>(s.task)].push_back(i);
      }
    }

    // Windows from finished job records; in-flight windows appended in
    // check_jobs once the per-task record counts are validated.
    for (const sim::JobRecord& job : trace_.jobs()) {
      if (job.task < 0 || static_cast<std::size_t>(job.task) >= task_count()) {
        continue;  // check_jobs reports the bad index.
      }
      Window w;
      w.instance = job.instance;
      w.release = job.release;
      // A killed job frees the processor at the kill instant, and a
      // governor-skipped job never occupies it at all (its window is
      // the zero-length decision instant); only a genuinely in-flight
      // job may occupy the trace tail.
      w.end = job.finished || job.killed || job.skipped ? job.completion
                                                        : trace_end();
      w.deadline = job.absolute_deadline;
      w.finished = job.finished;
      windows_[static_cast<std::size_t>(job.task)].push_back(w);
      if (job.skipped) {
        skipped_releases_[static_cast<std::size_t>(job.task)].push_back(
            job.release);
      }
    }
    for (auto& releases : skipped_releases_) {
      std::sort(releases.begin(), releases.end());
    }
    // One in-flight window per task whose next release precedes the
    // trace end: the engine starts that job but records it only at
    // completion.  Under containment the recorded instances may have
    // gaps (forfeited windows), so the next instance is one past the
    // largest seen, not the record count.
    for (std::size_t t = 0; t < task_count(); ++t) {
      const sched::Task& task = tasks_[static_cast<TaskIndex>(t)];
      std::int64_t count = 0;
      for (const Window& w : windows_[t]) {
        count = std::max(count, w.instance + 1);
      }
      const Time release = static_cast<Time>(task.phase) +
                           static_cast<Time>(count * task.period);
      if (definitely_less(release, trace_end(), options_.epsilon)) {
        Window w;
        w.instance = count;
        w.release = release;
        w.end = trace_end();
        w.deadline = release + static_cast<Time>(task.deadline);
        w.finished = false;
        windows_[t].push_back(w);
      }
    }
  }

  /// Trace work executed by `task` over [a, b].
  Work executed_between(std::size_t task, Time a, Time b) const {
    Work total = 0.0;
    const auto& indices = task_segments_[task];
    // First of the task's segments that ends after `a`.
    auto it = std::lower_bound(indices.begin(), indices.end(), a,
                               [this](std::size_t index, Time t) {
                                 return segments()[index].end <= t;
                               });
    for (; it != indices.end(); ++it) {
      const Segment& s = segments()[*it];
      if (s.begin >= b) break;
      total += clipped_work(s, a, b);
    }
    return total;
  }

  /// Effective ratio at instant `t`: the interpolated value, maximized
  /// with the adjacent boundary ratios when `t` sits on (or within
  /// epsilon of) a segment boundary, so exact-boundary releases are not
  /// penalized for landing on either side.
  Ratio ratio_at(Time t) const {
    const auto& segs = segments();
    if (segs.empty()) return 0.0;
    auto it = std::upper_bound(segs.begin(), segs.end(), t,
                               [](Time v, const Segment& s) {
                                 return v < s.begin;
                               });
    const std::size_t i = it == segs.begin()
                              ? 0
                              : static_cast<std::size_t>(it - segs.begin()) - 1;
    const Segment& s = segs[i];
    const double slope =
        s.duration() > 0.0 ? (s.ratio_end - s.ratio_begin) / s.duration() : 0.0;
    Ratio r = s.ratio_begin +
              slope * (std::clamp(t, s.begin, s.end) - s.begin);
    if (i > 0 && t <= s.begin + options_.epsilon) {
      r = std::max(r, segs[i - 1].ratio_end);
    }
    if (i + 1 < segs.size() && t >= s.end - options_.epsilon) {
      r = std::max(r, segs[i + 1].ratio_begin);
    }
    return r;
  }

  /// True when `task` has a governor-skip record at release instant `r`.
  bool is_skipped_release(std::size_t task, Time r) const {
    const auto& releases = skipped_releases_[task];
    auto it = std::lower_bound(releases.begin(), releases.end(),
                               r - options_.epsilon);
    return it != releases.end() && *it <= r + options_.epsilon;
  }

  /// Next nominal release strictly after `t` across all tasks except
  /// `exclude` (the delay queue's view at a plan instant: the active
  /// task is not queued).  With no other task, the active task's own
  /// next period bounds the window, mirroring the engine.  Under a
  /// weakly-hard governor, releases whose jobs were skipped never
  /// demand the CPU, so skip-aware plans may legally span them; the
  /// walk advances past skip records (a superset of the engine's
  /// one-skip lookahead, i.e. a permissive bound).
  Time next_release_after(Time t, std::size_t exclude) const {
    Time next = std::numeric_limits<Time>::infinity();
    for (std::size_t u = 0; u < task_count(); ++u) {
      if (u == exclude && task_count() > 1) continue;
      const sched::Task& task = tasks_[static_cast<TaskIndex>(u)];
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

  // ---- T: timeline and ratio structure ---------------------------------

  void check_timeline() {
    const auto& segs = segments();
    if (segs.empty()) {
      if (horizon_ > options_.epsilon) {
        add("T1.empty", 0.0,
            "trace has no segments but the horizon is " + fmt(horizon_) +
                " us");
      }
      return;
    }
    const double reps = options_.ratio_epsilon;
    const double rho = cpu_ != nullptr ? cpu_->ramp_rate : 0.0;
    const Ratio floor_ratio =
        cpu_ != nullptr
            ? cpu_->frequencies.f_min() / cpu_->frequencies.f_max()
            : 0.0;
    const Ratio ceil_ratio = std::max(options_.base_ratio, 0.0);

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

    for (std::size_t i = 0; i < segs.size(); ++i) {
      const Segment& s = segs[i];
      ++report_.segments_checked;

      if (s.end <= s.begin) {
        add("T1.order", s.begin,
            "segment " + std::to_string(i) + " runs backwards or is empty: [" +
                fmt(s.begin) + ", " + fmt(s.end) + ")");
        continue;
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
              "speed ratio jumps from " + fmt(segs[i - 1].ratio_end) +
                  " to " + fmt(s.ratio_begin) + " across the boundary at t=" +
                  fmt(s.begin));
        }
      }

      for (const Ratio r : {s.ratio_begin, s.ratio_end}) {
        if (r < floor_ratio - reps || r > ceil_ratio + reps || r <= 0.0) {
          add("T2.range", s.begin,
              "segment " + std::to_string(i) + " ratio " + fmt(r) +
                  " outside [" + fmt(std::max(floor_ratio, 1e-12)) + ", " +
                  fmt(ceil_ratio) + "]");
          break;
        }
      }

      switch (s.mode) {
        case ProcessorMode::kRunning:
          if (s.task < 0 ||
              static_cast<std::size_t>(s.task) >= task_count()) {
            add("T4.task", s.begin,
                "running segment " + std::to_string(i) +
                    " names invalid task index " + std::to_string(s.task));
          }
          break;
        case ProcessorMode::kIdleBusyWait:
        case ProcessorMode::kPowerDown:
        case ProcessorMode::kWakeUp:
          if (std::abs(s.ratio_begin - s.ratio_end) > reps ||
              std::abs(s.ratio_begin - options_.base_ratio) > reps) {
            add("T5.mode-ratio", s.begin,
                std::string(sim::to_string(s.mode)) + " segment " +
                    std::to_string(i) + " not at the constant base ratio " +
                    fmt(options_.base_ratio) + ": " + fmt(s.ratio_begin) +
                    " -> " + fmt(s.ratio_end));
          }
          break;
        case ProcessorMode::kRamping:
          break;
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
      // level (the engine quantizes up onto the table).
      if (cpu_ != nullptr && s.mode == ProcessorMode::kRunning &&
          !cpu_->frequencies.is_continuous() &&
          s.ratio_begin == s.ratio_end &&
          s.ratio_begin < options_.base_ratio - reps) {
        bool on_grid = false;
        for (const MegaHertz level : cpu_->frequencies.levels()) {
          if (std::abs(cpu_->frequencies.ratio_of(level) - s.ratio_begin) <
              1e-12) {
            on_grid = true;
            break;
          }
        }
        if (!on_grid) {
          add("T3.level", s.begin,
              "steady slowed ratio " + fmt(s.ratio_begin) +
                  " is not an available frequency level");
        }
      }
    }
  }

  // ---- J: job accounting ------------------------------------------------

  void check_jobs() {
    std::vector<std::int64_t> seen(task_count(), 0);
    // Completion instant of each task's most recent record: under
    // overload (declared misses) or monitor-mode overruns a backlogged
    // predecessor runs inside its successor's window, and its execution
    // must not be charged to the successor's work integral.
    std::vector<Time> prior_done(task_count(),
                                 -std::numeric_limits<Time>::infinity());
    for (const sim::JobRecord& job : trace_.jobs()) {
      ++report_.jobs_checked;
      if (job.task < 0 || static_cast<std::size_t>(job.task) >= task_count()) {
        add("J1.task", job.release,
            "job record names invalid task index " + std::to_string(job.task));
        continue;
      }
      const auto t = static_cast<std::size_t>(job.task);
      const sched::Task& task = tasks_[job.task];

      // Fault containment forfeits windows, so instances may legally
      // skip ahead — but must still increase strictly.
      const std::int64_t expected_instance = seen[t];
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
      seen[t] = std::max(seen[t], job.instance + 1);
      const Time expected_release =
          static_cast<Time>(task.phase) +
          static_cast<Time>(job.instance) * static_cast<Time>(task.period);
      if (std::abs(job.release - expected_release) > options_.epsilon) {
        add("J1.release", job.release,
            task.name + " instance " + std::to_string(job.instance) +
                " released at " + fmt(job.release) + ", periodic model says " +
                fmt(expected_release));
      }
      if (std::abs(job.absolute_deadline -
                   (job.release + static_cast<Time>(task.deadline))) >
          options_.epsilon) {
        add("J1.deadline", job.release,
            task.name + " instance " + std::to_string(job.instance) +
                " deadline " + fmt(job.absolute_deadline) +
                " != release + D = " +
                fmt(job.release + static_cast<Time>(task.deadline)));
      }

      if (!job.finished) {
        // A killed record occupied the CPU until its kill instant.
        if (job.killed) {
          prior_done[t] = std::max(prior_done[t], job.completion);
        }
        continue;  // Unfinished records carry no demand.
      }

      if (definitely_less(job.completion, job.release, options_.epsilon)) {
        add("J1.completion", job.completion,
            task.name + " instance " + std::to_string(job.instance) +
                " completes at " + fmt(job.completion) +
                " before its release " + fmt(job.release));
      }

      const bool late = definitely_greater(job.completion,
                                           job.absolute_deadline,
                                           options_.epsilon);
      if (late != job.missed_deadline &&
          std::abs(job.completion - job.absolute_deadline) >
              options_.epsilon) {
        add("J4.flag", job.completion,
            task.name + " instance " + std::to_string(job.instance) +
                " completion " + fmt(job.completion) + " vs deadline " +
                fmt(job.absolute_deadline) +
                " disagrees with missed_deadline=" +
                (job.missed_deadline ? "true" : "false"));
      }
      // A weakly-hard task's QoS contract is its (m,k) window (W1), not
      // the blanket zero-miss promise — only hard tasks keep J4.miss.
      if (options_.expect_no_misses && job.missed_deadline &&
          !(options_.weakly_hard && task.weakly_hard())) {
        add("J4.miss", job.completion,
            task.name + " instance " + std::to_string(job.instance) +
                " missed its deadline: completed " + fmt(job.completion) +
                " > " + fmt(job.absolute_deadline) +
                " under a policy that promised none");
      }

      if (!(job.executed > 0.0)) {
        add("J3.empty", job.release,
            task.name + " instance " + std::to_string(job.instance) +
                " records non-positive demand " + fmt(job.executed));
      } else if (options_.check_job_demand &&
                 job.executed > task.wcet + options_.work_epsilon) {
        add("J3.overrun", job.completion,
            task.name + " instance " + std::to_string(job.instance) +
                " overran its WCET: executed " + fmt(job.executed) +
                " > C=" + fmt(task.wcet));
      }

      const Work integral = executed_between(
          t, std::max(job.release, prior_done[t]), job.completion);
      if (std::abs(integral - job.executed) >
          options_.work_epsilon + 1e-9 * job.executed) {
        add("J2.work", job.completion,
            task.name + " instance " + std::to_string(job.instance) +
                ": trace work integral " + fmt(integral) +
                " != recorded demand " + fmt(job.executed));
      }
      prior_done[t] = std::max(prior_done[t], job.completion);
    }

    // J5: every running segment sits inside one of its task's windows.
    // S3: none overlaps a window of a higher-priority task.  Tasks are
    // visited highest priority first, so `busy_` holds the merged
    // windows of every higher-priority task; each task's own cover
    // joins it after its segments are checked, which leaves `busy_` the
    // all-window cover S1 reads.  Tied priorities (which
    // TaskSet::validate rejects) have no order to check.
    const bool pending_model = options_.check_work_conserving;
    std::vector<std::size_t> order(task_count());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto priority = [this](std::size_t t) {
      return tasks_[static_cast<TaskIndex>(t)].priority;
    };
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                return std::pair(priority(a), a) < std::pair(priority(b), b);
              });
    const bool check_priority =
        pending_model &&
        std::adjacent_find(order.begin(), order.end(),
                           [&](std::size_t a, std::size_t b) {
                             return priority(a) == priority(b);
                           }) == order.end();
    busy_.clear();
    for (const std::size_t t : order) {
      const std::string& name = tasks_[static_cast<TaskIndex>(t)].name;
      cover_.clear();
      for (const Window& w : windows_[t]) {
        cover_.push_back({w.release, w.end});
      }
      merge_intervals(cover_);
      std::size_t c = 0;
      std::size_t h = 0;
      for (const std::size_t index : task_segments_[t]) {
        const Segment& s = segments()[index];
        while (c < cover_.size() &&
               cover_[c].end < s.begin + options_.epsilon) {
          ++c;
        }
        if (c >= cover_.size() ||
            s.begin < cover_[c].begin - options_.epsilon ||
            s.end > cover_[c].end + options_.epsilon) {
          add("J5.placement", s.begin,
              name + " runs in [" + fmt(s.begin) + ", " + fmt(s.end) +
                  ") outside any of its job windows");
        }
        if (!check_priority) continue;
        while (h < busy_.size() &&
               busy_[h].end <= s.begin + options_.epsilon) {
          ++h;
        }
        for (std::size_t k = h; k < busy_.size() &&
                                busy_[k].begin < s.end - options_.epsilon;
             ++k) {
          const Time lo = std::max(s.begin, busy_[k].begin);
          const Time hi = std::min(s.end, busy_[k].end);
          if (hi - lo > options_.epsilon) {
            add("S3.priority", lo,
                name + " runs in [" + fmt(lo) + ", " + fmt(hi) +
                    ") while a higher-priority job is pending (pending " +
                    "window [" + fmt(busy_[k].begin) + ", " +
                    fmt(busy_[k].end) + "))");
            break;
          }
        }
      }
      if (!pending_model) continue;
      merged_.clear();
      std::merge(busy_.begin(), busy_.end(), cover_.begin(), cover_.end(),
                 std::back_inserter(merged_), begins_before);
      coalesce(merged_);
      busy_.swap(merged_);
    }
  }

  // ---- S: work conservation and release readiness -----------------------

  /// S1 over `busy_`, the all-window cover check_jobs leaves behind.
  void check_work_conservation() {
    for (const Segment& s : segments()) {
      if (s.mode != ProcessorMode::kIdleBusyWait &&
          s.mode != ProcessorMode::kPowerDown &&
          s.mode != ProcessorMode::kWakeUp) {
        continue;
      }
      // First pending interval ending after the segment begins.
      auto it = std::lower_bound(busy_.begin(), busy_.end(), s.begin,
                                 [](const Interval& i, Time t) {
                                   return i.end <= t;
                                 });
      if (it == busy_.end()) continue;
      const Time lo = std::max(s.begin, it->begin);
      const Time hi = std::min(s.end, it->end);
      if (hi - lo > options_.epsilon) {
        add("S1.idle-while-pending", lo,
            std::string(sim::to_string(s.mode)) + " during [" + fmt(lo) +
                ", " + fmt(hi) + ") while a released job is pending " +
                "(pending window [" + fmt(it->begin) + ", " + fmt(it->end) +
                "))");
      }
    }
  }

  void check_releases() {
    const auto& segs = segments();
    for (std::size_t t = 0; t < task_count(); ++t) {
      for (const Window& w : windows_[t]) {
        const Time r = w.release;
        if (r <= options_.epsilon ||
            r >= trace_end() - options_.epsilon) {
          continue;
        }
        // A governor-skipped release never dispatches a job: the
        // decision is legal mid-plan (skip-aware DVS) or on the way out
        // of power-down, so the full-speed promise does not apply.
        if (options_.weakly_hard && is_skipped_release(t, r)) continue;
        // Never asleep across a release: the exact power-down timer
        // must have fired (wake-up *ends* at or before the release).
        auto it = std::upper_bound(segs.begin(), segs.end(), r,
                                   [](Time v, const Segment& s) {
                                     return v < s.begin;
                                   });
        if (it != segs.begin()) {
          const Segment& s = *(it - 1);
          const bool interior = r > s.begin + options_.epsilon &&
                                r < s.end - options_.epsilon;
          if (interior && (s.mode == ProcessorMode::kPowerDown ||
                           s.mode == ProcessorMode::kWakeUp)) {
            add("S2.asleep", r,
                tasks_[static_cast<TaskIndex>(t)].name + " released at " +
                    fmt(r) + " while the processor is in " +
                    sim::to_string(s.mode) + " until " + fmt(s.end));
            continue;
          }
        }
        const Ratio ratio = ratio_at(r);
        if (ratio < options_.base_ratio - options_.ratio_epsilon) {
          add("S2.slow-at-release", r,
              tasks_[static_cast<TaskIndex>(t)].name + " released at " +
                  fmt(r) + " with the clock at ratio " + fmt(ratio) +
                  " < base " + fmt(options_.base_ratio) +
                  " (a slowdown plan overran an arrival)");
        }
      }
    }
  }

  // ---- D: DVS slowdown plans --------------------------------------------

  /// The window of `task` covering instant `t`, or nullptr.
  const Window* window_at(std::size_t task, Time t) const {
    const Window* best = nullptr;
    for (const Window& w : windows_[task]) {
      if (w.release <= t + options_.epsilon &&
          t <= w.end + options_.epsilon) {
        best = &w;  // Later windows win (overlap only under misses).
      }
    }
    return best;
  }

  void check_dvs_plans() {
    const auto& segs = segments();
    const double reps = options_.ratio_epsilon;
    const double rho = cpu_->ramp_rate;
    const Ratio base = options_.base_ratio;

    for (std::size_t i = 0; i < segs.size(); ++i) {
      const Segment& s = segs[i];
      // A plan's steady portion: constant slowed ratio under a task.
      if (s.mode != ProcessorMode::kRunning ||
          s.ratio_begin != s.ratio_end || s.ratio_begin >= base - reps ||
          s.task < 0 || static_cast<std::size_t>(s.task) >= task_count()) {
        continue;
      }
      ++report_.plans_checked;
      const auto task = static_cast<std::size_t>(s.task);
      const Ratio r = s.ratio_begin;
      // A near-instant rho makes the engine settle sub-resolution ramps
      // in place (no ramp segment, a legitimate ratio step instead).
      const bool instant = (base - r) / rho < kTimeEpsilon;

      // Walk back through the contiguous down-ramp to the plan start
      // t_c, which must begin at base speed.
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
      if (std::abs(segs[j].ratio_begin - base) > reps &&
          !(instant && j == i)) {
        add("D1.start", t_c,
            "slowdown to ratio " + fmt(r) + " at t=" + fmt(s.begin) +
                " does not start from the base ratio (plan head at " +
                fmt(segs[j].ratio_begin) + ")");
        continue;
      }

      const Window* w = window_at(task, t_c);
      if (w == nullptr) continue;  // J5 already reports stray execution.

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
             (next.mode == ProcessorMode::kRunning &&
              next.task == s.task)) &&
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
      const Work done_before = executed_between(task, w->release, t_c);
      const Work remaining = tasks_[s.task].wcet - done_before;
      if (remaining <= 0.0) continue;
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
  }

  // ---- F: fault detection and containment -------------------------------

  /// Instant at which the record's cumulative trace work crosses
  /// `target`, or nullopt when the trace never accumulates that much.
  std::optional<Time> work_crossing(std::size_t task,
                                    const sim::JobRecord& job,
                                    Work target) const {
    Work acc = 0.0;
    const auto& indices = task_segments_[task];
    auto it = std::lower_bound(indices.begin(), indices.end(), job.release,
                               [this](std::size_t index, Time t) {
                                 return segments()[index].end <= t;
                               });
    for (; it != indices.end(); ++it) {
      const Segment& s = segments()[*it];
      if (s.begin >= job.completion) break;
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

  /// F1/F2/F3: budget enforcement and safe-mode fallback.  Assumes zero
  /// context-switch cost (the engine's budget is WCET + charged
  /// overhead; with overhead the derived crossing instants would lead
  /// the real detections).
  void check_faults() {
    const Work wtol = options_.work_epsilon;
    std::int64_t killed_records = 0;
    std::vector<Time> detections;  ///< Derived overrun-detection instants.

    for (const sim::JobRecord& job : trace_.jobs()) {
      if (job.task < 0 || static_cast<std::size_t>(job.task) >= task_count()) {
        continue;  // check_jobs reports the bad index.
      }
      const auto t = static_cast<std::size_t>(job.task);
      const sched::Task& task = tasks_[job.task];
      const auto wcet = static_cast<Work>(task.wcet);

      if (job.killed) {
        ++killed_records;
        if (job.finished) {
          add("F3.finished", job.completion,
              task.name + " instance " + std::to_string(job.instance) +
                  " is marked both killed and finished");
        }
        // A kill fires exactly at budget exhaustion: executed == C.
        if (std::abs(job.executed - wcet) > wtol + 1e-9 * wcet) {
          add("F3.budget", job.completion,
              task.name + " instance " + std::to_string(job.instance) +
                  " killed with executed " + fmt(job.executed) +
                  " != its budget C=" + fmt(wcet));
        }
        detections.push_back(job.completion);
        continue;
      }

      switch (options_.containment) {
        case faults::OverrunAction::kKill:
          // Surviving (non-killed) jobs stayed within one budget.
          if (job.executed > wcet + wtol) {
            add("F1.budget", job.completion,
                task.name + " instance " + std::to_string(job.instance) +
                    " executed " + fmt(job.executed) + " > budget C=" +
                    fmt(wcet) + " without being killed");
          }
          break;
        case faults::OverrunAction::kNone:
          // Monitor-only: the overrun instant is still a detection.
          if (job.finished && job.executed > wcet + wtol) {
            if (const auto at = work_crossing(t, job, wcet)) {
              detections.push_back(*at);
            }
          }
          break;
      }
    }

    // F2: from each detection instant the clock must never decrease and
    // any steady running stretch must sit at base, until the processor
    // next goes non-running (safe mode legally ends at the idle instant).
    if (options_.safe_mode_fallback) {
      const double reps = options_.ratio_epsilon;
      const auto& segs = segments();
      for (const Time at : detections) {
        auto it = std::lower_bound(segs.begin(), segs.end(),
                                   at - options_.epsilon,
                                   [](const Segment& s, Time v) {
                                     return s.begin < v;
                                   });
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
          result_->jobs_killed != killed_records) {
        add("F3.count", 0.0,
            "jobs_killed=" + std::to_string(result_->jobs_killed) +
                " but the trace records " + std::to_string(killed_records) +
                " killed jobs");
      }
      if (options_.safe_mode_fallback) {
        if (result_->overruns_detected > 0 &&
            result_->safe_mode_entries == 0) {
          add("F2.entry", 0.0,
              std::to_string(result_->overruns_detected) +
                  " overruns detected but safe_mode_entries=0 (fallback " +
                  "armed yet never engaged)");
        }
      }
    }
  }

  // ---- W: weakly-hard (m,k) invariants -----------------------------------

  /// Settled outcome of one instance, reconstructed from the records.
  enum class Outcome : std::uint8_t { kMet, kFailed, kSkipped };

  /// W1-W4 (docs/WEAKLY_HARD.md): replay every weakly-hard task's
  /// settled-instance sequence purely from the job records — finished
  /// in time = met; miss / kill = failed; instance gaps = forfeited
  /// releases, also failed; skip records = skipped (not
  /// met) — and re-derive the per-window (m,k) invariants and skip
  /// permissions the governor claims to have maintained.
  void check_weakly_hard() {
    std::int64_t skip_records = 0;

    // W3: skip-record shape.
    for (const sim::JobRecord& job : trace_.jobs()) {
      if (!job.skipped) continue;
      ++skip_records;
      if (job.task < 0 || static_cast<std::size_t>(job.task) >= task_count()) {
        continue;  // check_jobs reports the bad index.
      }
      const sched::Task& task = tasks_[job.task];
      if (!task.weakly_hard()) {
        add("W3.hard-skip", job.completion,
            task.name + " instance " + std::to_string(job.instance) +
                " was skipped but the task declares no weakly-hard " +
                "constraint");
      }
      if (job.finished || job.killed) {
        add("W3.flags", job.completion,
            task.name + " instance " + std::to_string(job.instance) +
                " is marked skipped together with finished/killed");
      }
      if (std::abs(job.executed) > options_.work_epsilon) {
        add("W3.demand", job.completion,
            task.name + " instance " + std::to_string(job.instance) +
                " was skipped yet records demand " + fmt(job.executed));
      }
      if (std::abs(job.completion - job.release) > options_.epsilon) {
        add("W3.instant", job.completion,
            task.name + " instance " + std::to_string(job.instance) +
                " skip decided at " + fmt(job.completion) +
                " != its release " + fmt(job.release));
      }
    }

    // W1/W2 replay weakly-hard tasks only.  A governor armed over a set
    // that declares none (a sweep's default overload policy) leaves
    // nothing to replay, and W3/W4 still run.
    const bool any_weakly_hard = std::any_of(
        tasks_.tasks().begin(), tasks_.tasks().end(),
        [](const sched::Task& task) { return task.weakly_hard(); });
    const int recomputed_violations =
        any_weakly_hard ? replay_mk_windows() : 0;

    // W4: counter agreement.  Skip records are exact (every governor
    // skip writes one); recomputed violations are a lower bound — the
    // engine also settles trailing forfeited windows that leave no
    // record when kill containment fires near the horizon.
    if (result_ != nullptr) {
      if (result_->jobs_skipped_weakly != skip_records) {
        add("W4.skips", 0.0,
            "jobs_skipped_weakly=" +
                std::to_string(result_->jobs_skipped_weakly) +
                " but the trace records " + std::to_string(skip_records) +
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

  /// W1/W2: replays each weakly-hard task's settled instances and
  /// returns the (m,k)-window violations it finds.
  int replay_mk_windows() {
    int recomputed_violations = 0;
    // Group records per task once (instance replay is per task).
    std::vector<std::vector<const sim::JobRecord*>> by_task(task_count());
    for (const sim::JobRecord& job : trace_.jobs()) {
      if (job.task >= 0 && static_cast<std::size_t>(job.task) < task_count()) {
        by_task[static_cast<std::size_t>(job.task)].push_back(&job);
      }
    }

    for (std::size_t t = 0; t < task_count(); ++t) {
      const sched::Task& task = tasks_[static_cast<TaskIndex>(t)];
      if (!task.weakly_hard()) continue;
      const int m = task.effective_m();
      const int k = task.effective_k();

      // The settled prefix ends at the last record: a job still in
      // flight at the horizon is not settled, exactly as in the engine.
      std::int64_t last = -1;
      for (const sim::JobRecord* job : by_task[t]) {
        last = std::max(last, job->instance);
      }
      if (last < 0) continue;
      std::vector<Outcome> outcomes(static_cast<std::size_t>(last) + 1,
                                    Outcome::kFailed);
      for (const sim::JobRecord* job : by_task[t]) {
        if (job->instance < 0) continue;
        auto& slot = outcomes[static_cast<std::size_t>(job->instance)];
        if (job->skipped) {
          slot = Outcome::kSkipped;
        } else if (job->finished && !job->missed_deadline) {
          slot = Outcome::kMet;
        } else {
          slot = Outcome::kFailed;
        }
      }
      // Prehistory (instances before t=0) counts as met — the
      // governor's masks start all-ones.
      const auto met_at = [&](std::int64_t i) {
        return i < 0 ||
               outcomes[static_cast<std::size_t>(i)] == Outcome::kMet;
      };
      const Time period = static_cast<Time>(task.period);
      const Time phase = static_cast<Time>(task.phase);

      for (std::int64_t i = 0; i <= last; ++i) {
        // W1: the k-window ending at each settled instance keeps >= m
        // met jobs (identical to the governor's per-settle check).
        int met = 0;
        for (std::int64_t j = i - k + 1; j <= i; ++j) {
          if (met_at(j)) ++met;
        }
        if (met < m) {
          ++recomputed_violations;
          add("W1.window",
              phase + static_cast<Time>(i) * period,
              task.name + " (m,k)=(" + std::to_string(m) + "," +
                  std::to_string(k) + "): window ending at instance " +
                  std::to_string(i) + " has only " + std::to_string(met) +
                  " met job(s)");
        }
        if (outcomes[static_cast<std::size_t>(i)] != Outcome::kSkipped) {
          continue;
        }
        // W2: replay the skip permission from the preceding history.
        bool permitted = true;
        if (task.skip_s > 0) {
          for (std::int64_t j = i - task.skip_s + 1; j < i; ++j) {
            if (j >= 0 &&
                outcomes[static_cast<std::size_t>(j)] == Outcome::kSkipped) {
              permitted = false;
            }
          }
        } else {
          int prior_met = 0;
          for (std::int64_t j = i - k + 1; j < i; ++j) {
            if (met_at(j)) ++prior_met;
          }
          permitted = prior_met >= m;
        }
        if (!permitted) {
          add("W2.impermissible",
              phase + static_cast<Time>(i) * period,
              task.name + " instance " + std::to_string(i) +
                  " was skipped without window permission " +
                  (task.skip_s > 0
                       ? "(a prior skip sits inside the last s-1 jobs)"
                       : "(fewer than m met jobs in the last k-1)"));
        }
      }
    }
    return recomputed_violations;
  }

  // ---- E: energy and time re-integration --------------------------------

  void check_energy() {
    const power::PowerModel model = cpu_->make_power_model();
    const double rho = cpu_->ramp_rate;
    std::array<Energy, 5> energy{};
    std::array<Time, 5> time{};
    std::array<std::int64_t, 5> count{};
    double ratio_integral = 0.0;

    for (const Segment& s : segments()) {
      const auto m = static_cast<std::size_t>(s.mode);
      const Time dt = s.duration();
      if (dt <= 0.0) continue;
      time[m] += dt;
      ++count[m];
      switch (s.mode) {
        case ProcessorMode::kRunning:
          energy[m] += s.ratio_begin == s.ratio_end
                           ? dt * model.run_power(s.ratio_begin)
                           : model.ramp_energy(s.ratio_begin, s.ratio_end,
                                               rho, /*executing=*/true);
          ratio_integral += (s.ratio_begin + s.ratio_end) / 2.0 * dt;
          break;
        case ProcessorMode::kIdleBusyWait:
          energy[m] += dt * model.idle_nop_power(s.ratio_begin);
          break;
        case ProcessorMode::kRamping:
          energy[m] += model.ramp_energy(s.ratio_begin, s.ratio_end, rho,
                                         /*executing=*/false);
          break;
        case ProcessorMode::kWakeUp:
          energy[m] += dt * 1.0;
          break;
        case ProcessorMode::kPowerDown:
          break;  // Bounded below via the sleep ladder.
      }
    }

    static constexpr const char* kModeNames[5] = {
        "run", "idle-nop", "power-down", "wake-up", "ramping"};
    // The engine accumulates exact segment durations; the trace stores
    // rounded absolute endpoints, so each re-derived duration can be off
    // by an ulp of the horizon.  The tolerance must therefore grow with
    // the per-mode segment count, or week-long runs (millions of
    // segments) flag phantom E2 drift.
    const Time endpoint_ulp = std::numeric_limits<double>::epsilon() *
                              std::max(1.0, result_->simulated_time);
    for (std::size_t m = 0; m < 5; ++m) {
      const auto& reported = result_->by_mode[m];
      if (std::abs(reported.time - time[m]) >
          1e-6 + 1e-9 * time[m] +
              static_cast<double>(count[m]) * endpoint_ulp) {
        add("E2.time", 0.0,
            std::string(kModeNames[m]) + " time: reported " +
                fmt(reported.time) + " us != trace total " + fmt(time[m]));
      }
      if (m == static_cast<std::size_t>(ProcessorMode::kPowerDown)) {
        double lo_frac = 1.0;
        double hi_frac = 0.0;
        for (const power::SleepState& state : cpu_->sleep_ladder()) {
          lo_frac = std::min(lo_frac, state.power_fraction);
          hi_frac = std::max(hi_frac, state.power_fraction);
        }
        const Energy lo = lo_frac * time[m];
        const Energy hi = hi_frac * time[m];
        const double tol =
            options_.energy_rel_tolerance * (1.0 + std::abs(hi));
        if (reported.energy < lo - tol || reported.energy > hi + tol) {
          add("E1.energy", 0.0,
              "power-down energy " + fmt(reported.energy) +
                  " outside the sleep-ladder bounds [" + fmt(lo) + ", " +
                  fmt(hi) + "] for " + fmt(time[m]) + " us asleep");
        }
        continue;
      }
      const double tol =
          options_.energy_rel_tolerance * (1.0 + std::abs(energy[m]));
      if (std::abs(reported.energy - energy[m]) > tol) {
        add("E1.energy", 0.0,
            std::string(kModeNames[m]) + " energy: reported " +
                fmt(reported.energy) + " != re-integrated " +
                fmt(energy[m]) + " (speed-profile re-integration under " +
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

    const Time t_run = time[static_cast<std::size_t>(ProcessorMode::kRunning)];
    if (t_run > 0.0) {
      const double mean = ratio_integral / t_run;
      if (std::abs(mean - result_->mean_running_ratio) > 1e-6) {
        add("E4.mean-ratio", 0.0,
            "mean_running_ratio " + fmt(result_->mean_running_ratio) +
                " != trace ratio integral / running time = " + fmt(mean));
      }
    }
  }

  // ---- C: counter cross-checks ------------------------------------------

  void check_counters() {
    int finished = 0;
    int missed = 0;
    for (const sim::JobRecord& job : trace_.jobs()) {
      if (job.finished) ++finished;
      if (job.missed_deadline) ++missed;
    }
    if (result_->jobs_completed != finished) {
      add("C1.jobs", 0.0,
          "jobs_completed=" + std::to_string(result_->jobs_completed) +
              " but the trace records " + std::to_string(finished) +
              " finished jobs");
    }
    if (result_->deadline_misses != missed) {
      add("C1.misses", 0.0,
          "deadline_misses=" + std::to_string(result_->deadline_misses) +
              " but the trace records " + std::to_string(missed));
    }
    int sleeps = 0;
    for (const Segment& s : segments()) {
      if (s.mode == ProcessorMode::kPowerDown) ++sleeps;
    }
    if (result_->power_downs != sleeps) {
      add("C2.power-downs", 0.0,
          "power_downs=" + std::to_string(result_->power_downs) +
              " but the trace holds " + std::to_string(sleeps) +
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

  AuditReport report_;
  std::vector<std::vector<Window>> windows_;
  std::vector<std::vector<std::size_t>> task_segments_;
  std::vector<std::vector<Time>> skipped_releases_;  ///< Sorted, per task.
  std::vector<Interval> cover_;   ///< One task's merged windows (J5).
  std::vector<Interval> busy_;    ///< Merged windows so far (S3, then S1).
  std::vector<Interval> merged_;  ///< Merge target folding cover_ into busy_.
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
