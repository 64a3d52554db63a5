#include "exec/exec_model.h"

#include <algorithm>

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

Work BimodalModel::sample(const sched::Task& task, Rng& rng) const {
  const double span = task.wcet - task.bcet;
  const double jitter = rng.uniform(0.0, span * 0.1);
  if (rng.uniform(0.0, 1.0) < p_short_) {
    return std::min(task.wcet, task.bcet + jitter);
  }
  return std::max(task.bcet, task.wcet - jitter);
}

}  // namespace lpfps::exec
