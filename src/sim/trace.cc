#include "sim/trace.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <sstream>

#include "common/check.h"
#include "common/float_compare.h"

namespace lpfps::sim {

const char* to_string(ProcessorMode mode) {
  switch (mode) {
    case ProcessorMode::kRunning:
      return "run";
    case ProcessorMode::kIdleBusyWait:
      return "idle-nop";
    case ProcessorMode::kPowerDown:
      return "power-down";
    case ProcessorMode::kWakeUp:
      return "wake-up";
    case ProcessorMode::kRamping:
      return "ramping";
  }
  return "?";
}

namespace {

/// True when `b` can be folded into `a` by the record-time coalescing
/// rule: same mode and task, speed-continuous (a.ratio_end ==
/// b.ratio_begin exactly), and either both at constant speed or both
/// ramping in the same direction at the same rate (slopes equal within
/// 1e-9 relative tolerance).  Time contiguity is the caller's concern.
bool can_coalesce(const Segment& a, const Segment& b) {
  if (a.mode != b.mode || a.task != b.task) return false;
  if (a.ratio_end != b.ratio_begin) return false;
  const bool a_const = a.ratio_begin == a.ratio_end;
  const bool b_const = b.ratio_begin == b.ratio_end;
  if (a_const && b_const) return true;
  if (a_const || b_const) return false;
  // Both ramping: fold only a continuing ramp (same direction, same
  // rate).  The engine splits ramps at unrelated decision boundaries
  // (releases, plan checks); those pieces are collinear by construction,
  // so a tight slope tolerance suffices and distinct ramp rates (e.g. a
  // clamped final piece) stay separate.
  if (!(a.duration() > 0.0) || !(b.duration() > 0.0)) return false;
  const double sa = (a.ratio_end - a.ratio_begin) / a.duration();
  const double sb = (b.ratio_end - b.ratio_begin) / b.duration();
  if ((sa > 0.0) != (sb > 0.0)) return false;
  return std::abs(sa - sb) <=
         1e-9 * std::max(1.0, std::max(std::abs(sa), std::abs(sb)));
}

}  // namespace

void Trace::reserve(std::size_t segments, std::size_t jobs) {
  segments_.reserve(segments);
  jobs_.reserve(jobs);
}

void Trace::add_segment(const Segment& segment) {
  LPFPS_CHECK_MSG(approx_le(segment.begin, segment.end),
                  "segment runs backwards");
  if (approx_equal(segment.begin, segment.end)) return;
  if (!segments_.empty()) {
    LPFPS_CHECK_MSG(approx_equal(segments_.back().end, segment.begin),
                    "segments must be contiguous");
    Segment& last = segments_.back();
    if (can_coalesce(last, segment)) {
      last.end = segment.end;
      last.ratio_end = segment.ratio_end;
      return;
    }
  }
  segments_.push_back(segment);
}

void Trace::add_job(const JobRecord& job) { jobs_.push_back(job); }

Trace Trace::unchecked(std::vector<Segment> segments,
                       std::vector<JobRecord> jobs) {
  Trace trace;
  trace.segments_ = std::move(segments);
  trace.jobs_ = std::move(jobs);
  return trace;
}

Time Trace::time_in_mode(ProcessorMode mode) const {
  Time total = 0.0;
  for (const Segment& s : segments_) {
    if (s.mode == mode) total += s.duration();
  }
  return total;
}

Time Trace::running_time(TaskIndex task) const {
  Time total = 0.0;
  for (const Segment& s : segments_) {
    if (s.mode == ProcessorMode::kRunning && s.task == task) {
      total += s.duration();
    }
  }
  return total;
}

std::vector<JobRecord> Trace::missed_jobs() const {
  std::vector<JobRecord> missed;
  for (const JobRecord& job : jobs_) {
    if (job.missed_deadline) missed.push_back(job);
  }
  return missed;
}

void Trace::check_invariants() const {
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& s = segments_[i];
    LPFPS_CHECK(definitely_less(s.begin, s.end));
    LPFPS_CHECK(s.ratio_begin > 0.0 && s.ratio_begin <= 1.0 + kTimeEpsilon);
    LPFPS_CHECK(s.ratio_end > 0.0 && s.ratio_end <= 1.0 + kTimeEpsilon);
    if (i > 0) {
      LPFPS_CHECK(approx_equal(segments_[i - 1].end, s.begin));
    }
    if (s.mode == ProcessorMode::kRunning) {
      LPFPS_CHECK(s.task != kNoTask);
    }
  }
}

namespace {

char glyph_for(const Segment& s) {
  switch (s.mode) {
    case ProcessorMode::kRunning:
      return '#';
    case ProcessorMode::kIdleBusyWait:
      return '.';
    case ProcessorMode::kPowerDown:
      return '_';
    case ProcessorMode::kWakeUp:
      return 'w';
    case ProcessorMode::kRamping:
      return '/';
  }
  return '?';
}

}  // namespace

std::string render_gantt(const Trace& trace,
                         const std::vector<std::string>& task_names,
                         Time begin, Time end, int width) {
  LPFPS_CHECK(width > 0 && definitely_less(begin, end));
  const double scale = width / (end - begin);
  std::size_t label_width = 4;
  for (const std::string& name : task_names) {
    label_width = std::max(label_width, name.size());
  }

  auto make_row = [&](const std::string& label) {
    std::string row = label;
    row.resize(label_width, ' ');
    row += " |";
    row.append(static_cast<std::size_t>(width), ' ');
    return row;
  };

  std::vector<std::string> rows;
  rows.reserve(task_names.size() + 1);
  for (const std::string& name : task_names) rows.push_back(make_row(name));
  rows.push_back(make_row("cpu"));

  auto paint = [&](std::string& row, Time t0, Time t1, char glyph) {
    const int c0 =
        static_cast<int>(std::max(0.0, (t0 - begin) * scale + 1e-9));
    int c1 = static_cast<int>((t1 - begin) * scale - 1e-9);
    c1 = std::min(c1, width - 1);
    for (int c = c0; c <= c1; ++c) {
      row[label_width + 2 + static_cast<std::size_t>(c)] = glyph;
    }
  };

  for (const Segment& s : trace.segments()) {
    if (approx_le(s.end, begin) || approx_ge(s.begin, end)) continue;
    const Time t0 = std::max(s.begin, begin);
    const Time t1 = std::min(s.end, end);
    if (s.mode == ProcessorMode::kRunning) {
      const auto row_index = static_cast<std::size_t>(s.task);
      LPFPS_CHECK(row_index < task_names.size());
      const bool slowed = s.ratio_begin < 1.0 || s.ratio_end < 1.0;
      paint(rows[row_index], t0, t1, slowed ? 'o' : '#');
    }
    paint(rows.back(), t0, t1, glyph_for(s));
  }

  std::ostringstream os;
  os << std::string(label_width, ' ') << "  " << begin
     << " .. " << end << " us  (#: full speed, o: scaled, .: nop idle, "
        "_: power-down, /: ramp, w: wake)\n";
  for (const std::string& row : rows) os << row << "\n";
  return os.str();
}

std::string render_segments(const Trace& trace,
                            const std::vector<std::string>& task_names) {
  std::ostringstream os;
  os << std::left << std::setw(12) << "begin" << std::setw(12) << "end"
     << std::setw(12) << "mode" << std::setw(10) << "task" << std::setw(14)
     << "speed" << "\n";
  for (const Segment& s : trace.segments()) {
    std::string task = "-";
    if (s.task != kNoTask) {
      const auto index = static_cast<std::size_t>(s.task);
      task = index < task_names.size() ? task_names[index]
                                       : std::to_string(s.task);
    }
    std::ostringstream speed;
    speed << std::setprecision(4) << s.ratio_begin;
    if (s.ratio_begin != s.ratio_end) {
      speed << "->" << std::setprecision(4) << s.ratio_end;
    }
    os << std::left << std::setw(12) << s.begin << std::setw(12) << s.end
       << std::setw(12) << to_string(s.mode) << std::setw(10) << task
       << std::setw(14) << speed.str() << "\n";
  }
  return os.str();
}

}  // namespace lpfps::sim
