// Full-precision energy pin: the engine's energy totals for the paper's
// four Table 2 sets under LPFPS and LPFPS-opt, compared as hex-float
// (%a) text, i.e. bit for bit.
//
// The golden equivalence test and the benchmark digests render results
// at 12 significant digits, which pins every schedule decision but
// lets the last bits of an energy sum drift.  This test closes that
// gap for the power-accounting path: any change to how a ramp, run,
// idle or sleep interval is charged (caching, reordering, a different
// quadrature) must leave every pinned double unchanged.  Two kinds of
// run per set and policy:
//
//   gauss       clamped-Gaussian execution;
//   wcet@4H     the deterministic WCET model over four hyperperiods
//               (recorded when the engine replayed repeated
//               hyperperiods from cached energies; the pins still hold
//               for the full simulation, bit for bit).
//
// Pinned per run: total_energy, every by_mode[m].energy and every
// per-task energy.  Regenerate data/golden/engine_energy.csv after an
// *intended* change to the energy arithmetic with:
//
//   LPFPS_UPDATE_GOLDEN=1 build/tests/core_engine_energy_pin_test
//
// Like the equivalence goldens, the values are tied to the CI toolchain
// family (GNU/Linux x86-64: libstdc++'s normal_distribution, SSE2
// arithmetic without FMA contraction).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "core/engine.h"
#include "exec/exec_model.h"
#include "power/processor.h"
#include "sim/trace.h"
#include "workloads/registry.h"

namespace lpfps {
namespace {

std::string golden_path() {
  return std::string(LPFPS_SOURCE_DIR) + "/data/golden/engine_energy.csv";
}

std::string hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

/// Adds one run's pinned energies under "<run>,<quantity>" keys.
void pin(const std::string& run, const core::SimulationResult& result,
         std::map<std::string, std::string>& pins) {
  pins[run + ",total"] = hex(result.total_energy);
  for (std::size_t m = 0; m < result.by_mode.size(); ++m) {
    const auto mode = static_cast<sim::ProcessorMode>(m);
    pins[run + ",mode." + sim::to_string(mode)] =
        hex(result.by_mode[m].energy);
  }
  for (std::size_t i = 0; i < result.per_task.size(); ++i) {
    pins[run + ",task." + std::to_string(i)] =
        hex(result.per_task[i].energy);
  }
}

std::map<std::string, std::string> compute_pins() {
  std::map<std::string, std::string> pins;
  const auto gauss = std::make_shared<exec::ClampedGaussianModel>();
  const auto cpu = power::ProcessorConfig::arm8_default();
  for (const workloads::Workload& w : workloads::paper_workloads()) {
    const sched::TaskSet tasks = w.tasks.with_bcet_ratio(0.5);
    core::EngineOptions options;
    options.horizon = std::min(w.horizon, 1e6);
    options.seed = 7;

    core::EngineOptions wcet = options;
    wcet.horizon = 4.0 * static_cast<Time>(tasks.hyperperiod());

    for (const core::SchedulerPolicy& policy :
         {core::SchedulerPolicy::lpfps(),
          core::SchedulerPolicy::lpfps_optimal()}) {
      const std::string prefix = w.name + "/" + policy.name + "/";
      pin(prefix + "gauss",
          core::simulate(tasks, cpu, policy, gauss, options), pins);

      pin(prefix + "wcet@4H",
          core::simulate(tasks, cpu, policy, nullptr, wcet), pins);
    }
  }
  return pins;
}

TEST(EngineEnergyPin, MatchesCapturedEnergiesBitForBit) {
  const std::map<std::string, std::string> pins = compute_pins();

  const char* update = std::getenv("LPFPS_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << "run,quantity,energy\n";
    for (const auto& [key, value] : pins) out << key << "," << value << "\n";
    GTEST_SKIP() << "energy pins regenerated at " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good())
      << "missing " << golden_path()
      << " — regenerate with LPFPS_UPDATE_GOLDEN=1";
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));  // Header.
  std::map<std::string, std::string> golden;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto comma = line.rfind(',');
    ASSERT_NE(comma, std::string::npos) << line;
    golden[line.substr(0, comma)] = line.substr(comma + 1);
  }

  for (const auto& [key, expected] : golden) {
    const auto it = pins.find(key);
    ASSERT_NE(it, pins.end()) << "pinned quantity disappeared: " << key;
    EXPECT_EQ(it->second, expected) << key << " moved";
  }
  for (const auto& [key, value] : pins) {
    EXPECT_TRUE(golden.count(key) != 0)
        << "quantity not pinned: " << key
        << " (run with LPFPS_UPDATE_GOLDEN=1)";
  }
  EXPECT_EQ(pins.size(), golden.size());
}

}  // namespace
}  // namespace lpfps
