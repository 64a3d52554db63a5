// Models of actual (as opposed to worst-case) job execution times.
//
// The paper's first observation is that real execution times frequently
// fall well below the WCET (Figure 1).  Lacking per-application traces,
// §4 draws each instance's execution time from a Gaussian with
//     mean  m     = (BCET + WCET) / 2                     (eq. 4)
//     sigma       = (WCET - BCET) / 6                     (eq. 5)
// clamped into [BCET, WCET] (footnote 5), so ~99.7% of unclamped draws
// already land inside the interval.  That model is implemented here along
// with uniform and bimodal alternatives used by tests and extension
// studies.  A null ExecModelPtr is the deterministic-WCET endpoint: the
// engine then gives every job its WCET.
//
// Every model is stateless: sample() reads only the task and the
// caller's generator, so one instance may be shared by any number of
// simulations, on any number of threads.  No model overruns: the engine
// checks every sample against the WCET and injects WCET overruns itself,
// from EngineOptions::faults (core::SimState::start_job).
#pragma once

#include <memory>
#include <string>

#include "common/random.h"
#include "common/units.h"
#include "sched/task.h"

namespace lpfps::exec {

class ExecutionTimeModel {
 public:
  virtual ~ExecutionTimeModel() = default;

  /// Actual execution time (full-speed work) of one job of `task`.
  /// Postcondition: result in [task.bcet, task.wcet].
  virtual Work sample(const sched::Task& task, Rng& rng) const = 0;

  virtual std::string name() const = 0;
};

/// The paper's clamped Gaussian (eqs. 4-5 + clamping).
class ClampedGaussianModel final : public ExecutionTimeModel {
 public:
  Work sample(const sched::Task& task, Rng& rng) const override;
  std::string name() const override { return "gaussian"; }
};

/// Uniform on [BCET, WCET]; heavier tails than the Gaussian, used to
/// probe sensitivity to the execution-time distribution.
class UniformModel final : public ExecutionTimeModel {
 public:
  Work sample(const sched::Task& task, Rng& rng) const override;
  std::string name() const override { return "uniform"; }
};

/// With probability p the job takes ~BCET, else ~WCET (mode-switching
/// code paths).  Each mode adds small uniform jitter within the interval.
class BimodalModel final : public ExecutionTimeModel {
 public:
  explicit BimodalModel(double p_short = 0.5);
  Work sample(const sched::Task& task, Rng& rng) const override;
  std::string name() const override { return "bimodal"; }

 private:
  double p_short_;
};

using ExecModelPtr = std::shared_ptr<const ExecutionTimeModel>;

}  // namespace lpfps::exec
