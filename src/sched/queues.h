// The two scheduler queues of the kernel implementation model the paper
// builds on (Katcher et al. [17], Burns et al. [18], paper §3.1):
//
//  * run queue   — tasks released and waiting for the processor, ordered
//                  by priority (head = highest priority = lowest value);
//  * delay queue — tasks that finished their current instance and await
//                  their next release, ordered by release time.
//
// LPFPS's entire run-time knowledge derives from these queues: the head
// of the delay queue tells the scheduler the exact next release time,
// which is what makes exact power-down and safe DVS possible.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/units.h"
#include "sched/task.h"

namespace lpfps::sched {

/// An entry waiting in the run queue.
struct RunEntry {
  TaskIndex task = kNoTask;
  Priority priority = 0;
};

/// An entry waiting in the delay queue.
struct DelayEntry {
  TaskIndex task = kNoTask;
  Time release_time = 0.0;
};

/// Priority-ordered ready queue.  Ties (impossible with validated task
/// sets, which require unique priorities) would break by task index.
class RunQueue {
 public:
  RunQueue() = default;
  RunQueue(RunQueue&&) noexcept = default;
  RunQueue& operator=(RunQueue&&) noexcept = default;
  RunQueue(const RunQueue&) = default;
  RunQueue& operator=(const RunQueue&) = default;

  /// Preallocates for `tasks` entries (at most one per task can wait),
  /// so steady-state scheduling never grows the buffer.
  void reserve(std::size_t tasks) { entries_.reserve(tasks); }

  void insert(RunEntry entry);

  /// Highest-priority waiting task.  Precondition: !empty().
  const RunEntry& head() const;

  /// Removes and returns the head.  Precondition: !empty().
  RunEntry pop_head();

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }

  /// Entries in priority order (head first); used by tests that assert
  /// the paper's Figure 3 / Figure 5 queue snapshots.
  const std::vector<RunEntry>& entries() const noexcept { return entries_; }

 private:
  std::vector<RunEntry> entries_;  // Sorted by (priority, task).
};

/// Release-time-ordered queue of sleeping tasks.
class DelayQueue {
 public:
  DelayQueue() = default;
  DelayQueue(DelayQueue&&) noexcept = default;
  DelayQueue& operator=(DelayQueue&&) noexcept = default;
  DelayQueue(const DelayQueue&) = default;
  DelayQueue& operator=(const DelayQueue&) = default;

  /// Preallocates for `tasks` entries (one per sleeping task).
  void reserve(std::size_t tasks) { entries_.reserve(tasks); }

  void insert(DelayEntry entry);

  /// Earliest-release entry.  Precondition: !empty().
  const DelayEntry& head() const;

  /// Removes and returns the head.  Precondition: !empty().
  DelayEntry pop_head();

  /// Release time of the head, or nullopt when empty.
  std::optional<Time> next_release() const;

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }

  /// Entries in release order (head first).
  const std::vector<DelayEntry>& entries() const noexcept { return entries_; }

 private:
  std::vector<DelayEntry> entries_;  // Sorted by (release_time, task).
};

/// A copy of both queues plus the active task, for inspection hooks.
/// Snapshots are built only when an observer is installed — the hot
/// path never copies the queues.
struct QueueSnapshot {
  Time time = 0.0;
  std::vector<RunEntry> run_queue;
  std::vector<DelayEntry> delay_queue;
  TaskIndex active_task = kNoTask;
  Work active_executed = 0.0;  ///< E_i of the active task, if any.
};

/// Observes the scheduler state right after each scheduler invocation.
/// Opt-in: installing one re-enables the QueueSnapshot copies that the
/// snapshot-free default path skips.
using InvocationHook = std::function<void(const QueueSnapshot&)>;

}  // namespace lpfps::sched
