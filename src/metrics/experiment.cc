#include "metrics/experiment.h"

#include "audit/harness.h"
#include "common/check.h"
#include "exec/exec_model.h"
#include "fleet/fleet.h"
#include "metrics/stats.h"
#include "runner/runner.h"

namespace lpfps::metrics {

std::vector<SweepPoint> run_bcet_sweep(const sched::TaskSet& tasks,
                                       const power::ProcessorConfig& cpu,
                                       const core::SchedulerPolicy& policy,
                                       const SweepConfig& config) {
  LPFPS_CHECK(config.horizon > 0.0);
  LPFPS_CHECK(config.seeds > 0);
  LPFPS_CHECK(!config.bcet_ratios.empty());

  // Stateless, so safe to share across the fleet's workers.
  const auto exec_model = std::make_shared<exec::ClampedGaussianModel>();
  const auto fps = core::SchedulerPolicy::fps();
  const auto make_spec = [&](const sched::TaskSet& set,
                             const core::SchedulerPolicy& run_policy,
                             exec::ExecModelPtr exec, std::uint64_t seed) {
    fleet::SimSpec spec;
    spec.tasks = set;
    spec.processor = cpu;
    spec.policy = run_policy;
    spec.exec_model = std::move(exec);
    spec.options.horizon = config.horizon;
    spec.options.seed = seed;
    return spec;
  };

  // Flatten the sweep grid into independent simulations.  Each (point,
  // sample) cell gets its seed from the cell's fixed grid position —
  // runner's determinism contract — and the policy and its FPS baseline
  // share that seed so their runs draw identical execution times.
  // Spec 0 is the paper's FPS reference: every job at its WCET
  // (deterministic, one run), constant across the BCET axis.
  std::vector<fleet::SimSpec> specs;
  specs.push_back(make_spec(tasks, fps, nullptr, 1));
  for (std::size_t point = 0; point < config.bcet_ratios.size(); ++point) {
    const sched::TaskSet scaled =
        tasks.with_bcet_ratio(config.bcet_ratios[point]);
    // Deterministic at BCET == WCET: the Gaussian degenerates.
    const int samples = config.bcet_ratios[point] >= 1.0 ? 1 : config.seeds;
    for (int sample = 0; sample < samples; ++sample) {
      const std::uint64_t seed = runner::derive_seed(
          config.base_seed,
          point * static_cast<std::uint64_t>(config.seeds) +
              static_cast<std::uint64_t>(sample));
      specs.push_back(make_spec(scaled, fps, exec_model, seed));
      specs.push_back(make_spec(scaled, policy, exec_model, seed));
    }
  }

  // One sharded audited fleet batch (LPFPS_AUDIT=0 opts out of the
  // audit): every sweep cell is trace-verified before its power number
  // enters a figure.
  const std::vector<core::SimulationResult> results =
      audit::simulate_fleet_sharded(std::move(specs), {});

  // Reduce in grid order — independent of how many threads ran the
  // batch, so the sweep is bit-identical at any LPFPS_JOBS.
  const double fps_wcet_power = results[0].average_power;
  std::vector<SweepPoint> points;
  points.reserve(config.bcet_ratios.size());
  std::size_t next = 1;
  for (const double ratio : config.bcet_ratios) {
    const int samples = ratio >= 1.0 ? 1 : config.seeds;
    Summary fps_power;
    Summary policy_power;
    for (int sample = 0; sample < samples; ++sample) {
      fps_power.add(results[next++].average_power);
      policy_power.add(results[next++].average_power);
    }

    SweepPoint point;
    point.bcet_ratio = ratio;
    point.fps_power = fps_power.mean();
    point.policy_power = policy_power.mean();
    point.normalized = point.policy_power / point.fps_power;
    point.reduction_pct = 100.0 * (1.0 - point.normalized);
    point.fps_wcet_power = fps_wcet_power;
    point.reduction_vs_wcet_pct =
        100.0 * (1.0 - point.policy_power / fps_wcet_power);
    points.push_back(point);
  }
  return points;
}

}  // namespace lpfps::metrics
