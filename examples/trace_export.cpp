// End-to-end tooling walkthrough: define a task set in the text format,
// simulate it under LPFPS, audit the recorded schedule against the
// trace invariants, and export analysis-ready CSVs — the workflow a
// user would run on their own system description.  Exits 1 if the
// audit finds a violation.
//
//   $ ./example_trace_export [output-directory]
#include <cstdio>
#include <fstream>
#include <string>

#include "audit/audit.h"
#include "audit/harness.h"
#include "core/engine.h"
#include "io/svg_gantt.h"
#include "io/task_set_io.h"
#include "io/trace_io.h"
#include "sched/analysis.h"
#include "sched/priority.h"

int main(int argc, char** argv) {
  using namespace lpfps;
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  // 1. A system description in the io/task_set_io.h text format (this
  //    would normally live in a file; see tools/lpfps_sim.cc).
  const std::string description = R"(# engine controller
spark_timing   period=2000   wcet=300   bcet=100
injection      period=4000   wcet=900   bcet=300
lambda_control period=8000   wcet=1100  bcet=400
diagnostics    period=32000  wcet=2500  bcet=500
)";
  sched::TaskSet tasks = io::parse_task_set_string(description);
  sched::assign_rate_monotonic(tasks);
  if (!sched::is_schedulable_rta(tasks)) {
    std::puts("not schedulable");
    return 1;
  }
  std::printf("U = %.3f, critical scaling factor = %.3f\n",
              tasks.utilization(),
              sched::critical_scaling_factor(tasks));

  // 2. Simulate with the trace recorder on.
  core::EngineOptions options;
  options.horizon = 64'000.0;  // Two hyperperiods.
  options.record_trace = true;
  const auto cpu = power::ProcessorConfig::arm8_default();
  const core::SchedulerPolicy policy = core::SchedulerPolicy::lpfps();
  const core::SimulationResult result = core::simulate(
      tasks, cpu, policy, std::make_shared<exec::ClampedGaussianModel>(),
      options);
  std::fputs(result.summary().c_str(), stdout);

  // 3. Audit the schedule the engine produced: re-derive every invariant
  //    (job windows, fixed priority, plans, energy, counters) from the
  //    trace alone.
  const audit::AuditReport report = audit::audit_run(
      result, tasks, cpu, audit::derive_options(policy, options));
  std::printf("schedule audit: %s\n",
              report.ok() ? "clean" : report.to_string().c_str());

  // 4. Export for plotting.
  const std::string segments_path = out_dir + "/engine_segments.csv";
  const std::string jobs_path = out_dir + "/engine_jobs.csv";
  std::ofstream(segments_path)
      << io::trace_segments_csv(*result.trace, tasks.names());
  std::ofstream(jobs_path)
      << io::trace_jobs_csv(*result.trace, tasks.names());
  io::SvgOptions svg_options;
  svg_options.begin = 0.0;
  svg_options.end = 32'000.0;
  const std::string svg_path = out_dir + "/engine_gantt.svg";
  std::ofstream(svg_path)
      << io::render_svg_gantt(*result.trace, tasks.names(), svg_options);
  std::printf("wrote %s, %s and %s\n", segments_path.c_str(),
              jobs_path.c_str(), svg_path.c_str());

  // 5. And a quick look at the first 8 ms.
  std::fputs(
      sim::render_gantt(*result.trace, tasks.names(), 0.0, 8'000.0, 100)
          .c_str(),
      stdout);
  return report.ok() ? 0 : 1;
}
