#include "exec/exec_model.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace lpfps::exec {

Work ClampedGaussianModel::sample(const sched::Task& task, Rng& rng) const {
  const double mean = (task.bcet + task.wcet) / 2.0;           // eq. (4)
  const double sigma = (task.wcet - task.bcet) / 6.0;          // eq. (5)
  return rng.clamped_gaussian(mean, sigma, task.bcet, task.wcet);
}

Work UniformModel::sample(const sched::Task& task, Rng& rng) const {
  return rng.uniform(task.bcet, task.wcet);
}

BimodalModel::BimodalModel(double p_short) : p_short_(p_short) {
  LPFPS_CHECK(p_short_ >= 0.0 && p_short_ <= 1.0);
}

FaultyExecModel::FaultyExecModel(ExecModelPtr inner,
                                 std::vector<faults::OverrunFault> overruns,
                                 std::vector<std::string> task_names)
    : inner_(std::move(inner)), overruns_(std::move(overruns)) {
  for (const faults::OverrunFault& fault : overruns_) fault.validate();
  LPFPS_CHECK_MSG(overruns_.empty() || overruns_.size() == 1 ||
                      overruns_.size() == task_names.size(),
                  "FaultyExecModel: overruns must be empty, a single "
                  "broadcast entry, or one entry per task");
  for (std::size_t i = 0; i < task_names.size(); ++i) {
    index_by_name_[task_names[i]] = i;
  }
}

const faults::OverrunFault& FaultyExecModel::spec_for(
    const std::string& task_name) const {
  static const faults::OverrunFault kDisabled{};
  if (overruns_.empty()) return kDisabled;
  if (overruns_.size() == 1) return overruns_.front();
  const auto it = index_by_name_.find(task_name);
  if (it == index_by_name_.end()) return kDisabled;
  return overruns_[it->second];
}

Work FaultyExecModel::sample(const sched::Task& task, Rng& rng) const {
  const Work base =
      inner_ != nullptr ? inner_->sample(task, rng) : task.wcet;
  const faults::OverrunFault& fault = spec_for(task.name);
  if (!fault.enabled()) return base;
  if (rng.uniform(0.0, 1.0) >= fault.probability) return base;
  // Deterministic overrun size: past the budget by a fixed factor, so
  // tests (and the faulted-demand RTA in bench_fault_sweep) know the
  // inflated demand exactly.
  return task.wcet * (1.0 + fault.magnitude);
}

std::string FaultyExecModel::name() const {
  return "faulty+" + (inner_ != nullptr ? inner_->name() : "wcet");
}

Work BimodalModel::sample(const sched::Task& task, Rng& rng) const {
  const double span = task.wcet - task.bcet;
  const double jitter = rng.uniform(0.0, span * 0.1);
  if (rng.uniform(0.0, 1.0) < p_short_) {
    return std::min(task.wcet, task.bcet + jitter);
  }
  return std::max(task.bcet, task.wcet - jitter);
}

}  // namespace lpfps::exec
