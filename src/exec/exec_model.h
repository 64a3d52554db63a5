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
// simulations, on any number of threads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "faults/faults.h"
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

/// Fault-injection wrapper: delegates to an inner model, then — with
/// the per-task probability of its faults::OverrunFault spec — replaces
/// the sample with wcet * (1 + magnitude).  This is the *one* model
/// whose results may legally violate the [BCET, WCET] postcondition;
/// the engine only accepts over-WCET samples when its
/// EngineOptions::faults plan declares overruns (and wraps the caller's
/// model with this class itself), so a misbehaving ordinary model still
/// trips the contract check.
///
/// Randomness discipline: one uniform draw per sample decides *whether*
/// the job overruns; the overrun size is deterministic, so tests can
/// predict the faulted demand exactly.  With every spec disabled the
/// wrapper adds no draws and is sample-for-sample identical to `inner`.
class FaultyExecModel final : public ExecutionTimeModel {
 public:
  /// `inner` may be null (every non-faulted job takes its WCET, like
  /// the engine's default).  `overruns` follows the FaultPlan
  /// convention: empty = none, one entry = all tasks, else indexed per
  /// task; `overrun_for(task_index)` resolves the spec.  Task identity
  /// is keyed by the task's `priority` position not being available
  /// here, so the model resolves specs by task *name* via the map built
  /// from `task_names` (indexed like the TaskSet).
  FaultyExecModel(ExecModelPtr inner,
                  std::vector<faults::OverrunFault> overruns,
                  std::vector<std::string> task_names);

  Work sample(const sched::Task& task, Rng& rng) const override;
  std::string name() const override;

 private:
  const faults::OverrunFault& spec_for(const std::string& task_name) const;

  ExecModelPtr inner_;
  std::vector<faults::OverrunFault> overruns_;
  std::map<std::string, std::size_t> index_by_name_;
};

}  // namespace lpfps::exec
