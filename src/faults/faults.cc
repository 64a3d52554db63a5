#include "faults/faults.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "common/math_utils.h"

namespace lpfps::faults {

namespace {

const OverrunFault kDisabledOverrun{};

}  // namespace

void OverrunFault::validate() const {
  if (!(probability >= 0.0 && probability <= 1.0)) {
    throw std::logic_error("overrun probability must lie in [0, 1], got " +
                           round_trip_string(probability));
  }
  if (!(magnitude >= 0.0 && std::isfinite(magnitude))) {
    throw std::logic_error(
        "overrun magnitude must be finite and non-negative, got " +
        round_trip_string(magnitude));
  }
}

bool FaultPlan::overruns_enabled() const {
  for (const OverrunFault& fault : overruns) {
    if (fault.enabled()) return true;
  }
  return false;
}

const OverrunFault& FaultPlan::overrun_for(std::size_t index) const {
  if (overruns.empty()) return kDisabledOverrun;
  if (overruns.size() == 1) return overruns.front();
  LPFPS_CHECK_MSG(index < overruns.size(),
                  "overrun_for: task index out of range");
  return overruns[index];
}

void FaultPlan::validate(std::size_t task_count) const {
  if (!(overruns.empty() || overruns.size() == 1 ||
        overruns.size() == task_count)) {
    throw std::logic_error(
        "FaultPlan::overruns must be empty, a single broadcast entry, or "
        "one entry per task (" +
        std::to_string(task_count) + "), got " +
        std::to_string(overruns.size()) + " entries");
  }
  for (const OverrunFault& fault : overruns) fault.validate();
}

const char* to_string(OverrunAction action) {
  switch (action) {
    case OverrunAction::kNone:
      return "none";
    case OverrunAction::kKill:
      return "kill";
  }
  return "?";
}

}  // namespace lpfps::faults
