#include "multicore/partitioned_admission.h"

#include <cstring>

#include "common/check.h"
#include "core/fingerprint.h"

namespace lpfps::multicore {

PartitionedAdmission::PartitionedAdmission(int core_count, bool scratch) {
  LPFPS_CHECK(core_count > 0);
  const sched::IncrementalRta::Mode mode =
      scratch ? sched::IncrementalRta::Mode::kFromScratch
              : sched::IncrementalRta::Mode::kIncremental;
  cores_.reserve(static_cast<std::size_t>(core_count));
  for (int i = 0; i < core_count; ++i) {
    cores_.emplace_back(sched::TaskSet{}, mode);
  }
}

int PartitionedAdmission::try_add(const sched::Task& task) {
  for (std::size_t core = 0; core < cores_.size(); ++core) {
    // A same-priority member makes the core unschedulable under
    // unique-priority FPS regardless of timing — skip without analysis
    // (and without tripping the engine's duplicate-priority check).
    if (cores_[core].priority_taken(task.priority)) continue;
    if (cores_[core].try_add_task(task)) return static_cast<int>(core);
  }
  return -1;
}

void PartitionedAdmission::remove(int core, TaskIndex index) {
  LPFPS_CHECK(core >= 0 && static_cast<std::size_t>(core) < cores_.size());
  cores_[static_cast<std::size_t>(core)].remove_task(index);
}

std::size_t PartitionedAdmission::task_count() const {
  std::size_t total = 0;
  for (const sched::IncrementalRta& core : cores_) {
    total += core.tasks().size();
  }
  return total;
}

std::uint64_t PartitionedAdmission::fingerprint() const {
  // Same field selection as AdmissionService::canonical_key (period,
  // deadline, WCET bits, priority; name/BCET/phase cannot affect any
  // admission answer), chained across cores with a leading count each
  // so placements — not just multisets of tasks — distinguish digests.
  core::FnvHasher hasher;
  for (const sched::IncrementalRta& core : cores_) {
    hasher.mix(static_cast<std::uint64_t>(core.tasks().size()));
    for (const sched::Task& t : core.tasks().tasks()) {
      hasher.mix(static_cast<std::int64_t>(t.period));
      hasher.mix(static_cast<std::int64_t>(t.deadline));
      hasher.mix(t.wcet);
      hasher.mix(static_cast<std::int32_t>(t.priority));
    }
  }
  return hasher.digest();
}

sched::IncrementalRta::Stats PartitionedAdmission::rta_stats() const {
  sched::IncrementalRta::Stats total;
  for (const sched::IncrementalRta& core : cores_) {
    const sched::IncrementalRta::Stats& s = core.stats();
    total.mutations += s.mutations;
    total.tasks_reanalyzed += s.tasks_reanalyzed;
    total.tasks_seeded += s.tasks_seeded;
    total.tasks_seeded_above += s.tasks_seeded_above;
    total.tasks_kept += s.tasks_kept;
    total.tasks_skipped += s.tasks_skipped;
  }
  return total;
}

}  // namespace lpfps::multicore
