#include "sched/kernel.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/float_compare.h"

namespace lpfps::sched {

namespace {

/// Book-keeping for the job of a task currently in flight.
struct JobState {
  std::int64_t instance = 0;
  Time release = 0.0;
  Work total_work = 0.0;  ///< Actual execution time of this instance.
  Work executed = 0.0;    ///< E_i so far.
};

}  // namespace

FixedPriorityKernel::FixedPriorityKernel(TaskSet tasks)
    : tasks_(std::move(tasks)) {
  tasks_.validate();
  exec_time_ = [this](TaskIndex task, std::int64_t) {
    return tasks_[task].wcet;
  };
}

void FixedPriorityKernel::set_exec_time_provider(ExecTimeProvider provider) {
  LPFPS_CHECK(static_cast<bool>(provider));
  exec_time_ = std::move(provider);
}

void FixedPriorityKernel::set_invocation_hook(InvocationHook hook) {
  hook_ = std::move(hook);
}

KernelResult FixedPriorityKernel::run(Time horizon) {
  LPFPS_CHECK(horizon > 0.0);
  KernelResult result;

  const auto n = static_cast<TaskIndex>(tasks_.size());
  RunQueue run_queue;
  DelayQueue delay_queue;
  run_queue.reserve(tasks_.size());
  delay_queue.reserve(tasks_.size());
  std::vector<JobState> jobs(static_cast<std::size_t>(n));
  std::vector<std::int64_t> next_instance(static_cast<std::size_t>(n), 0);

  {
    // One job record per released instance; segments alternate between
    // runs (split by preemptions) and idle gaps.
    std::size_t job_hint = 0;
    for (TaskIndex i = 0; i < n; ++i) {
      job_hint += static_cast<std::size_t>(
                      horizon / static_cast<Time>(tasks_[i].period)) +
                  1;
    }
    result.trace.reserve(4 * job_hint + 16, job_hint);
  }

  for (TaskIndex i = 0; i < n; ++i) {
    delay_queue.insert({i, static_cast<Time>(tasks_[i].phase)});
  }

  TaskIndex active = kNoTask;
  Time now = 0.0;

  auto start_job = [&](TaskIndex task) {
    JobState& job = jobs[static_cast<std::size_t>(task)];
    job.instance = next_instance[static_cast<std::size_t>(task)]++;
    job.release = static_cast<Time>(tasks_[task].phase) +
                  static_cast<Time>(job.instance * tasks_[task].period);
    job.total_work = exec_time_(task, job.instance);
    // Longer than WCET voids the analysis; shorter than the nominal BCET
    // is allowed (scenario providers use it).
    LPFPS_CHECK_MSG(job.total_work > 0.0 &&
                        job.total_work <= tasks_[task].wcet + kTimeEpsilon,
                    tasks_[task].name);
    job.executed = 0.0;
  };

  // The scheduler invocation of Figure 4 lines L5-L11 (no power logic).
  auto invoke_scheduler = [&]() {
    ++result.scheduler_invocations;
    while (!delay_queue.empty() &&
           approx_le(delay_queue.head().release_time, now)) {
      const TaskIndex task = delay_queue.pop_head().task;
      start_job(task);
      run_queue.insert({task, tasks_[task].priority});
    }
    if (!run_queue.empty()) {
      if (active == kNoTask) {
        active = run_queue.pop_head().task;
      } else if (run_queue.head().priority < tasks_[active].priority) {
        // Context switch: the preempted task re-enters the run queue.
        run_queue.insert({active, tasks_[active].priority});
        active = run_queue.pop_head().task;
        ++result.context_switches;
      }
    }
    if (hook_) {
      QueueSnapshot snapshot;
      snapshot.time = now;
      snapshot.run_queue = run_queue.entries();
      snapshot.delay_queue = delay_queue.entries();
      snapshot.active_task = active;
      snapshot.active_executed =
          active == kNoTask ? 0.0
                            : jobs[static_cast<std::size_t>(active)].executed;
      hook_(snapshot);
    }
  };

  invoke_scheduler();

  while (definitely_less(now, horizon)) {
    // Next decision point: the earliest of the next release, the active
    // job's completion, and the horizon.
    Time next = horizon;
    if (const auto release = delay_queue.next_release();
        release.has_value()) {
      next = std::min(next, *release);
    }
    bool completion_first = false;
    if (active != kNoTask) {
      const JobState& job = jobs[static_cast<std::size_t>(active)];
      const Time completion = now + (job.total_work - job.executed);
      if (approx_le(completion, next)) {
        next = std::min(next, completion);
        completion_first = true;
      }
    }
    LPFPS_CHECK(approx_ge(next, now));

    // Advance time, accounting the segment.
    if (definitely_less(now, next)) {
      sim::Segment segment;
      segment.begin = now;
      segment.end = next;
      if (active != kNoTask) {
        segment.mode = sim::ProcessorMode::kRunning;
        segment.task = active;
        jobs[static_cast<std::size_t>(active)].executed += next - now;
      } else {
        segment.mode = sim::ProcessorMode::kIdleBusyWait;
      }
      result.trace.add_segment(segment);
    }
    now = next;

    if (completion_first) {
      const JobState& job = jobs[static_cast<std::size_t>(active)];
      const Task& task = tasks_[active];
      sim::JobRecord record;
      record.task = active;
      record.instance = job.instance;
      record.release = job.release;
      record.absolute_deadline =
          job.release + static_cast<Time>(task.deadline);
      record.completion = now;
      record.executed = job.executed;
      record.finished = true;
      record.missed_deadline =
          definitely_greater(now, record.absolute_deadline);
      if (record.missed_deadline) ++result.deadline_misses;
      result.trace.add_job(record);
      delay_queue.insert(
          {active, job.release + static_cast<Time>(task.period)});
      active = kNoTask;
    }

    invoke_scheduler();
  }

  return result;
}

}  // namespace lpfps::sched
