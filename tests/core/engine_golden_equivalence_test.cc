// Golden engine-equivalence test: every registered workload under every
// engine policy must reproduce the exact trace (segments and job
// records) and SimulationResult counters captured from the engine before
// the zero-allocation hot-path work, bit for bit.
//
// Segments are canonicalized with sim::coalesce_segments before hashing,
// so the record-time coalescing writer (which merges continuing ramps
// and constant-speed runs as they are appended) compares equal to the
// uncoalesced traces the goldens were captured from — that is exactly
// the "modulo documented coalescing" contract of docs/PERFORMANCE.md.
//
// Regenerate data/golden/engine_equivalence.csv after an *intended*
// behaviour change with:
//
//   LPFPS_UPDATE_GOLDEN=1 build/tests/core_engine_golden_equivalence_test
//
// The hashes cover text rendered at 12 significant digits, which is
// robust to sub-ulp noise but still pins every schedule decision.  The
// execution-time model draws through libstdc++'s normal_distribution,
// so goldens are tied to the CI toolchain family (GNU/Linux).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/fingerprint.h"
#include "core/static_slowdown.h"
#include "exec/exec_model.h"
#include "io/trace_io.h"
#include "power/processor.h"
#include "sim/trace.h"
#include "workloads/registry.h"

namespace lpfps {
namespace {

// The hashing itself lives in core/fingerprint.h — the same FNV-1a the
// admission fingerprints use; goldens pin its output too.
using core::fnv1a;
using core::hex64;

struct GoldenRow {
  std::int64_t segment_count = 0;
  std::int64_t job_count = 0;
  std::string segments_hash;
  std::string jobs_hash;
  std::string result_hash;

  std::string to_csv() const {
    std::ostringstream os;
    os << segment_count << "," << job_count << "," << segments_hash << ","
       << jobs_hash << "," << result_hash;
    return os.str();
  }
};

std::string golden_path() {
  return std::string(LPFPS_SOURCE_DIR) + "/data/golden/engine_equivalence.csv";
}

std::vector<core::SchedulerPolicy> policies_for(
    const sched::TaskSet& tasks, const power::ProcessorConfig& cpu) {
  std::vector<core::SchedulerPolicy> policies = {
      core::SchedulerPolicy::fps(),
      core::SchedulerPolicy::fps_timeout_shutdown(500.0),
      core::SchedulerPolicy::lpfps(),
      core::SchedulerPolicy::lpfps_optimal(),
      core::SchedulerPolicy::lpfps_powerdown_only(),
      core::SchedulerPolicy::lpfps_dvs_only(),
  };
  const auto static_ratio =
      core::min_feasible_static_ratio(tasks, cpu.frequencies);
  if (static_ratio) {
    policies.push_back(core::SchedulerPolicy::static_slowdown(*static_ratio));
    policies.push_back(core::SchedulerPolicy::lpfps_hybrid(*static_ratio));
  }
  return policies;
}

GoldenRow row_for(const core::SimulationResult& result) {
  const sim::Trace& trace = result.trace.value();
  const std::vector<sim::Segment> canonical =
      sim::coalesce_segments(trace.segments());
  const sim::Trace canon = sim::Trace::unchecked(canonical, trace.jobs());
  GoldenRow row;
  row.segment_count = static_cast<std::int64_t>(canonical.size());
  row.job_count = static_cast<std::int64_t>(trace.jobs().size());
  row.segments_hash = hex64(fnv1a(io::trace_segments_csv(canon, {})));
  row.jobs_hash = hex64(fnv1a(io::trace_jobs_csv(canon, {})));
  row.result_hash = hex64(fnv1a(io::result_csv_row(result)));
  return row;
}

/// Runs every workload x policy combination and returns "workload/policy"
/// -> golden row.  Keyed rows (rather than a positional list) keep the
/// diff readable when one combination drifts.
///
/// Two passes per workload: the stochastic (clamped-Gaussian) pass, and
/// the "/wcet@4H" pass, which runs the deterministic model over four
/// hyperperiods.  Both are fully simulated.  The wcet@4H rows were
/// recorded when the engine still replayed repeated hyperperiods from a
/// template instead of simulating them; that they pass unchanged shows
/// the replay never moved a bit.
std::map<std::string, GoldenRow> compute_rows() {
  std::map<std::string, GoldenRow> rows;
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  const auto cpu = power::ProcessorConfig::arm8_default();
  for (const workloads::Workload& w : workloads::paper_workloads()) {
    const sched::TaskSet tasks = w.tasks.with_bcet_ratio(0.5);
    core::EngineOptions options;
    options.horizon = std::min(w.horizon, 1e6);
    options.seed = 7;
    options.record_trace = true;
    core::EngineOptions wcet_options = options;
    wcet_options.horizon =
        4.0 * static_cast<Time>(tasks.hyperperiod());
    for (const core::SchedulerPolicy& policy :
         policies_for(w.tasks, cpu)) {
      rows[w.name + "/" + policy.name] =
          row_for(core::simulate(tasks, cpu, policy, exec, options));
      rows[w.name + "/" + policy.name + "/wcet@4H"] =
          row_for(core::simulate(tasks, cpu, policy, nullptr, wcet_options));
    }
  }
  return rows;
}

TEST(EngineGoldenEquivalence, MatchesCapturedEngineBehaviour) {
  const std::map<std::string, GoldenRow> rows = compute_rows();

  const char* update = std::getenv("LPFPS_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << "key,segment_count,job_count,segments_hash,jobs_hash,"
           "result_hash\n";
    for (const auto& [key, row] : rows) {
      out << key << "," << row.to_csv() << "\n";
    }
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
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
    const auto comma = line.find(',');
    ASSERT_NE(comma, std::string::npos) << line;
    golden[line.substr(0, comma)] = line.substr(comma + 1);
  }

  // Every captured combination must still exist and match; every
  // current combination must have been captured.
  for (const auto& [key, expected] : golden) {
    const auto it = rows.find(key);
    ASSERT_NE(it, rows.end()) << "combination disappeared: " << key;
    EXPECT_EQ(it->second.to_csv(), expected)
        << key << " diverged from the captured engine behaviour";
  }
  for (const auto& [key, row] : rows) {
    EXPECT_TRUE(golden.count(key) != 0)
        << "new combination not captured in goldens: " << key
        << " (run with LPFPS_UPDATE_GOLDEN=1)";
  }
  EXPECT_EQ(rows.size(), golden.size());
}

}  // namespace
}  // namespace lpfps
