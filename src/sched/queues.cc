#include "sched/queues.h"

#include <algorithm>

#include "common/check.h"

namespace lpfps::sched {

void RunQueue::insert(RunEntry entry) {
  LPFPS_CHECK(entry.task != kNoTask);
  const auto pos = std::upper_bound(
      entries_.begin(), entries_.end(), entry,
      [](const RunEntry& a, const RunEntry& b) {
        if (a.priority != b.priority) return a.priority < b.priority;
        return a.task < b.task;
      });
  entries_.insert(pos, entry);
}

const RunEntry& RunQueue::head() const {
  LPFPS_CHECK(!entries_.empty());
  return entries_.front();
}

RunEntry RunQueue::pop_head() {
  LPFPS_CHECK(!entries_.empty());
  const RunEntry entry = entries_.front();
  entries_.erase(entries_.begin());
  return entry;
}

void DelayQueue::insert(DelayEntry entry) {
  LPFPS_CHECK(entry.task != kNoTask);
  const auto pos = std::upper_bound(
      entries_.begin(), entries_.end(), entry,
      [](const DelayEntry& a, const DelayEntry& b) {
        if (a.release_time != b.release_time) {
          return a.release_time < b.release_time;
        }
        return a.task < b.task;
      });
  entries_.insert(pos, entry);
}

const DelayEntry& DelayQueue::head() const {
  LPFPS_CHECK(!entries_.empty());
  return entries_.front();
}

DelayEntry DelayQueue::pop_head() {
  LPFPS_CHECK(!entries_.empty());
  const DelayEntry entry = entries_.front();
  entries_.erase(entries_.begin());
  return entry;
}

std::optional<Time> DelayQueue::next_release() const {
  if (entries_.empty()) return std::nullopt;
  return entries_.front().release_time;
}

}  // namespace lpfps::sched
