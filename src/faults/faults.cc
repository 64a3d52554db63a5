#include "faults/faults.h"

#include "common/check.h"

namespace lpfps::faults {

namespace {
const OverrunFault kDisabledOverrun{};
}  // namespace

void OverrunFault::validate() const {
  LPFPS_CHECK_MSG(probability >= 0.0 && probability <= 1.0,
                  "overrun probability outside [0, 1]");
  LPFPS_CHECK_MSG(magnitude >= 0.0, "overrun magnitude negative");
}

void RampFault::validate() const {
  LPFPS_CHECK_MSG(rho_factor > 0.0 && rho_factor <= 1.0,
                  "ramp rho_factor outside (0, 1]");
}

void WakeupFault::validate() const {
  LPFPS_CHECK_MSG(probability >= 0.0 && probability <= 1.0,
                  "wakeup probability outside [0, 1]");
  LPFPS_CHECK_MSG(max_delay >= 0.0, "wakeup max_delay negative");
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
  LPFPS_CHECK_MSG(overruns.empty() || overruns.size() == 1 ||
                      overruns.size() == task_count,
                  "FaultPlan::overruns must be empty, a single broadcast "
                  "entry, or one entry per task");
  for (const OverrunFault& fault : overruns) fault.validate();
  ramp.validate();
  wakeup.validate();
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
