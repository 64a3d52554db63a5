#include "core/result.h"

#include <iomanip>
#include <sstream>

namespace lpfps::core {

std::string SimulationResult::summary() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(4);
  os << "policy            : " << policy_name << "\n"
     << "simulated time    : " << simulated_time << " us\n"
     << "total energy      : " << total_energy << " (full-power * us)\n"
     << "average power     : " << average_power << " (of full power)\n"
     << "jobs completed    : " << jobs_completed << "\n"
     << "deadline misses   : " << deadline_misses << "\n"
     << "context switches  : " << context_switches << "\n"
     << "speed changes     : " << speed_changes << "\n"
     << "power-down entries: " << power_downs << "\n"
     << "DVS slowdowns     : " << dvs_slowdowns << "\n"
     << "queue high water  : run " << run_queue_high_water << ", delay "
     << delay_queue_high_water << "\n"
     << "mean running ratio: " << mean_running_ratio << "\n";
  if (overruns_detected > 0 || safe_mode_entries > 0) {
    os << "faults detected   : " << overruns_detected << " overruns\n"
       << "containment       : " << jobs_killed << " killed, "
       << jobs_skipped
       << " releases skipped, " << safe_mode_entries
       << " safe-mode entries\n";
  }
  static constexpr const char* kModeNames[5] = {
      "run", "idle-nop", "power-down", "wake-up", "ramping"};
  for (std::size_t i = 0; i < by_mode.size(); ++i) {
    const auto& slot = by_mode[i];
    if (slot.time <= 0.0) continue;
    os << "  " << std::left << std::setw(11) << kModeNames[i]
       << " time=" << std::right << std::setw(14) << slot.time
       << " us  energy=" << std::setw(14) << slot.energy << "\n";
  }
  return os.str();
}

}  // namespace lpfps::core
