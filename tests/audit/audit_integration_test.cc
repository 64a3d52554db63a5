// End-to-end audit sweep: every paper workload under every engine
// policy, plus the configuration corners (sleep hierarchy, context
// switch cost, release jitter), must produce zero audit violations.
// This is the library's standing proof that the engine's traces,
// counters and energy books stay mutually consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "audit/harness.h"
#include "core/static_slowdown.h"
#include "exec/exec_model.h"
#include "workloads/registry.h"

namespace lpfps::audit {
namespace {

AuditReport audit_one(const sched::TaskSet& tasks,
                      const power::ProcessorConfig& cpu,
                      const core::SchedulerPolicy& policy,
                      const exec::ExecModelPtr& exec,
                      core::EngineOptions options) {
  options.record_trace = true;
  const core::SimulationResult result =
      core::simulate(tasks, cpu, policy, exec, options);
  return audit_run(result, tasks, cpu, derive_options(policy, options));
}

/// Two execution models per workload and policy: the paper's clamped
/// Gaussian, and WCET (null model), whose runs repeat every hyperperiod.
TEST(AuditIntegration, AllWorkloadsAllPoliciesAreClean) {
  const exec::ExecModelPtr gaussian =
      std::make_shared<exec::ClampedGaussianModel>();
  const auto cpu = power::ProcessorConfig::arm8_default();
  for (const workloads::Workload& w : workloads::paper_workloads()) {
    const sched::TaskSet tasks = w.tasks.with_bcet_ratio(0.5);
    core::EngineOptions options;
    options.horizon = std::min(w.horizon, 1e6);
    options.seed = 7;

    std::vector<core::SchedulerPolicy> policies = {
        core::SchedulerPolicy::fps(),
        core::SchedulerPolicy::fps_timeout_shutdown(500.0),
        core::SchedulerPolicy::lpfps(),
        core::SchedulerPolicy::lpfps_optimal(),
        core::SchedulerPolicy::lpfps_powerdown_only(),
        core::SchedulerPolicy::lpfps_dvs_only(),
    };
    const auto static_ratio =
        core::min_feasible_static_ratio(w.tasks, cpu.frequencies);
    if (static_ratio) {
      policies.push_back(core::SchedulerPolicy::static_slowdown(*static_ratio));
      policies.push_back(core::SchedulerPolicy::lpfps_hybrid(*static_ratio));
    }

    for (const core::SchedulerPolicy& policy : policies) {
      for (const exec::ExecModelPtr& exec : {gaussian, exec::ExecModelPtr{}}) {
        const std::string label = w.name + "/" + policy.name + "/" +
                                  (exec ? exec->name() : "wcet");
        const AuditReport report =
            audit_one(tasks, cpu, policy, exec, options);
        EXPECT_TRUE(report.ok()) << label << ": " << report.to_string();
        EXPECT_GT(report.segments_checked, 0) << label;
        EXPECT_GT(report.jobs_checked, 0) << label;
      }
    }
  }
}

TEST(AuditIntegration, SleepHierarchyIsClean) {
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  const auto cpu = power::ProcessorConfig::with_sleep_hierarchy();
  for (const workloads::Workload& w : workloads::paper_workloads()) {
    core::EngineOptions options;
    options.horizon = std::min(w.horizon, 1e6);
    options.seed = 11;
    const AuditReport report =
        audit_one(w.tasks.with_bcet_ratio(0.5), cpu,
                  core::SchedulerPolicy::lpfps(), exec, options);
    EXPECT_TRUE(report.ok()) << w.name << ": " << report.to_string();
  }
}

TEST(AuditIntegration, ContextSwitchOverheadIsClean) {
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  const auto cpu = power::ProcessorConfig::arm8_default();
  const workloads::Workload w = workloads::workload_by_name("CNC");
  core::EngineOptions options;
  options.horizon = 1e6;
  options.context_switch_cost = 10.0;
  options.throw_on_miss = false;
  const AuditReport report =
      audit_one(w.tasks.with_bcet_ratio(0.5), cpu,
                core::SchedulerPolicy::fps(), exec, options);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(AuditIntegration, ReleaseJitterIsClean) {
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  const auto cpu = power::ProcessorConfig::arm8_default();
  const workloads::Workload w = workloads::workload_by_name("INS");
  const sched::TaskSet tasks = w.tasks.with_bcet_ratio(0.5);
  core::EngineOptions options;
  options.horizon = 1e6;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    options.release_jitter.push_back(
        0.01 *
        static_cast<double>(tasks[static_cast<TaskIndex>(i)].period));
  }
  const AuditReport report = audit_one(
      tasks, cpu, core::SchedulerPolicy::lpfps(), exec, options);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(AuditIntegration, CountersMoveUnderLpfps) {
  // The observability counters must actually observe something: a DVS
  // workload with idle gaps has to report slowdowns, power-downs and a
  // non-trivial queue high-water mark.
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  const workloads::Workload w = workloads::workload_by_name("INS");
  core::EngineOptions options;
  options.horizon = 1e6;
  const core::SimulationResult result = audit::simulate(
      w.tasks.with_bcet_ratio(0.5), power::ProcessorConfig::arm8_default(),
      core::SchedulerPolicy::lpfps(), exec, options);
  EXPECT_GT(result.dvs_slowdowns, 0);
  EXPECT_GT(result.power_downs, 0);
  EXPECT_GE(result.speed_changes, result.dvs_slowdowns);
  EXPECT_GE(result.run_queue_high_water, 1);
  EXPECT_GE(result.delay_queue_high_water, 1);
  EXPECT_LE(result.run_queue_high_water,
            static_cast<int>(w.tasks.size()));
}

}  // namespace
}  // namespace lpfps::audit
