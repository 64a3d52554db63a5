#include "fleet/fleet.h"

#include <algorithm>
#include <utility>

#include "core/sim_state.h"
#include "runner/runner.h"

namespace lpfps::fleet {

FleetEngine::FleetEngine() = default;

FleetEngine::~FleetEngine() = default;

std::size_t FleetEngine::add(SimSpec spec) {
  specs_.push_back(std::move(spec));
  return specs_.size() - 1;
}

std::vector<core::SimulationResult> FleetEngine::run_all(
    const ResultCallback& on_result) {
  stats_ = FleetStats{};
  stats_.sims = specs_.size();
  std::vector<core::SimulationResult> results;
  results.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    // Binding validates the spec before it changes the lane, so a spec
    // core::simulate would reject throws here with the same error.
    const SimSpec& spec = specs_[i];
    if (lane_ == nullptr) {
      lane_ = std::make_unique<core::SimState>(spec.tasks, spec.processor,
                                               spec.policy, spec.exec_model,
                                               spec.options);
      ++stats_.lane_constructions;
    } else {
      lane_->reset(spec.tasks, spec.processor, spec.policy, spec.exec_model,
                   spec.options);
      ++stats_.lane_rebinds;
    }
    // A throw below leaves the lane mid-run — harmless, the next bind
    // reset()s it from scratch.
    lane_->begin();
    while (!lane_->finished()) {
      lane_->step();
      ++stats_.steps;
    }
    core::SimulationResult result = lane_->finish();
    ++stats_.rounds;
    stats_.events += result.scheduler_invocations;
    if (on_result) on_result(i, spec, result);
    results.push_back(std::move(result));
  }
  return results;
}

std::vector<core::SimulationResult> run_fleet_sharded(
    std::vector<SimSpec> specs, const FleetOptions& /*options*/,
    std::size_t threads, const ResultCallback& on_result) {
  // Contiguous positional shards: shard k owns specs
  // [k * chunk, (k + 1) * chunk).
  if (threads == 0) threads = runner::default_job_count();
  const std::size_t shards =
      std::max<std::size_t>(std::min(threads, specs.size()), 1);
  const std::size_t chunk = (specs.size() + shards - 1) / shards;
  // run_batch rethrows the lowest-index shard's exception, and each
  // shard stops at its own first failure: together, the lowest failing
  // spec.  Moving from the shared spec vector is safe: shards own
  // disjoint index ranges.
  std::vector<std::vector<core::SimulationResult>> per_shard =
      runner::run_batch(
          shards,
          [&](std::size_t shard) {
            const std::size_t begin = std::min(specs.size(), shard * chunk);
            const std::size_t end = std::min(specs.size(), begin + chunk);
            FleetEngine engine;
            for (std::size_t i = begin; i < end; ++i) {
              engine.add(std::move(specs[i]));
            }
            if (!on_result) return engine.run_all();
            return engine.run_all([&on_result, begin](
                                      std::size_t i, const SimSpec& spec,
                                      core::SimulationResult& result) {
              on_result(begin + i, spec, result);
            });
          },
          shards);
  std::vector<core::SimulationResult> results;
  results.reserve(specs.size());
  for (std::vector<core::SimulationResult>& shard : per_shard) {
    for (core::SimulationResult& result : shard) {
      results.push_back(std::move(result));
    }
  }
  return results;
}

}  // namespace lpfps::fleet
