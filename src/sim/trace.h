// Execution trace recording.
//
// A Trace is the ground truth a simulation leaves behind: a contiguous
// sequence of processor segments (what ran, at what speed, in which power
// mode) plus one record per job (release, completion, deadline verdict).
// Tests assert schedule shapes against it (paper Figures 2, 3, 5) and the
// Gantt renderer turns it into the paper's schedule pictures.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"

namespace lpfps::sim {

/// Processor activity during one trace segment.
enum class ProcessorMode : std::uint8_t {
  kRunning,       ///< Executing a task's work.
  kIdleBusyWait,  ///< NOP busy-wait loop (the FPS baseline's idle).
  kPowerDown,     ///< Power-down mode (clock gated except PLL/timer).
  kWakeUp,        ///< Returning from power-down (full power, no work).
  kRamping,       ///< Frequency/voltage transition with no active task.
};

const char* to_string(ProcessorMode mode);

/// One maximal interval of uniform processor activity.  While kRunning or
/// kRamping, the speed ratio moves linearly from ratio_begin to ratio_end
/// (equal values mean constant speed).
struct Segment {
  Time begin = 0.0;
  Time end = 0.0;
  ProcessorMode mode = ProcessorMode::kIdleBusyWait;
  TaskIndex task = kNoTask;  ///< Valid when mode == kRunning.
  Ratio ratio_begin = 1.0;
  Ratio ratio_end = 1.0;

  Time duration() const { return end - begin; }
};

/// Lifecycle record of one job (one instance of a periodic task).
struct JobRecord {
  TaskIndex task = kNoTask;
  std::int64_t instance = 0;    ///< 0-based instance number of the task.
  Time release = 0.0;
  Time absolute_deadline = 0.0;
  Time completion = -1.0;       ///< -1 while in flight / unfinished.
  Work executed = 0.0;          ///< Work actually consumed (<= WCET).
  bool finished = false;
  bool missed_deadline = false;
  /// Aborted by budget-enforcement containment (faults::OverrunAction::
  /// kKill): `completion` is the kill instant, `finished` stays false,
  /// and the remaining work was discarded.  Never set outside fault
  /// runs, so io::trace_jobs_csv (golden-hashed) need not change.
  bool killed = false;
  /// Skipped at release by the weakly-hard governor (docs/
  /// WEAKLY_HARD.md): `completion` is the release-time decision instant,
  /// `finished` stays false, and `executed` is 0 — the job never touched
  /// the CPU.  Never set unless the governor is armed, so
  /// io::trace_jobs_csv (golden-hashed) need not change.
  bool skipped = false;

  Time response_time() const { return completion - release; }
};

/// Recorded simulation history.
class Trace {
 public:
  /// Preallocates the segment and job buffers; simulators call this with
  /// hints derived from the task set and horizon so steady-state
  /// recording never reallocates.
  void reserve(std::size_t segments, std::size_t jobs);

  /// Appends a segment.  Zero-length segments are dropped.  Segments must
  /// be appended in order and contiguously (each begins where the previous
  /// ended); adjacent segments that describe one stretch — same mode and
  /// task, speed-continuous, and either both at constant speed or a
  /// continuing ramp — are merged in place (the record-time coalescing
  /// writer, the only one).
  void add_segment(const Segment& segment);

  void add_job(const JobRecord& job);

  /// Builds a trace verbatim, bypassing add_segment's contiguity and
  /// merge rules.  For tests that need deliberately corrupt timelines
  /// (the audit layer's adversarial cases); never used by simulators.
  static Trace unchecked(std::vector<Segment> segments,
                         std::vector<JobRecord> jobs);

  const std::vector<Segment>& segments() const { return segments_; }
  const std::vector<JobRecord>& jobs() const { return jobs_; }

  /// Total time spent in a given mode.
  Time time_in_mode(ProcessorMode mode) const;

  /// Total time the given task was running.
  Time running_time(TaskIndex task) const;

  /// Jobs that missed their deadline (should be empty for every policy in
  /// this library; the engine also throws when a miss occurs unless miss
  /// recording is explicitly enabled).
  std::vector<JobRecord> missed_jobs() const;

  /// Throws if segments are non-contiguous, overlap, or run backwards.
  void check_invariants() const;

 private:
  std::vector<Segment> segments_;
  std::vector<JobRecord> jobs_;
};

/// Renders an ASCII Gantt chart of [begin, end) with one row per task
/// plus an idle/power row, `width` characters wide.  `task_names` supplies
/// row labels indexed by TaskIndex.
std::string render_gantt(const Trace& trace,
                         const std::vector<std::string>& task_names,
                         Time begin, Time end, int width);

/// Renders the segment list as an aligned text table (begin, end, mode,
/// task, speed); handy in examples and golden tests.
std::string render_segments(const Trace& trace,
                            const std::vector<std::string>& task_names);

}  // namespace lpfps::sim
