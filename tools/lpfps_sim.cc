// lpfps_sim — command-line driver for the LPFPS simulation library.
//
// Loads a task set (io/task_set_io.h format), assigns priorities,
// checks schedulability, simulates one or all policies, and optionally
// exports traces.
//
//   lpfps_sim tasks.txt
//   lpfps_sim tasks.txt --policy lpfps --horizon 2000000 --seed 7
//   lpfps_sim tasks.txt --policy all --bcet-ratio 0.5 --csv
//   lpfps_sim tasks.txt --policy lpfps --trace-csv segs.csv --jobs-csv jobs.csv
//   lpfps_sim tasks.txt --gantt 0 400
//
// Options:
//   --policy P       fps | lpfps | lpfps-opt | lpfps-dvs | lpfps-pd |
//                    static | hybrid | avr | all     (default: lpfps)
//   --priority A     rm | dm | audsley               (default: rm)
//   --exec M         wcet | gaussian | uniform | bimodal (default: gaussian)
//   --horizon T      simulation length in us, > 0 (default: >=1s of
//                    hyperperiods)
//   --seed N         RNG seed, an unsigned integer (default 1)
//   --bcet-ratio R   override every task's BCET to R * WCET, 0 < R <= 1
//   --csv            machine-readable result rows instead of summaries
//   --trace-csv F    write segment CSV to file F (single policy only)
//   --jobs-csv F     write job CSV to file F (single policy only)
//   --gantt B E      print an ASCII Gantt chart of [B, E) us, B < E
//   --svg F B E      write an SVG Gantt chart of [B, E) us to file F
//
// A malformed or out-of-range value exits with status 2 and names the
// flag.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/float_compare.h"
#include "core/avr.h"
#include "core/engine.h"
#include "core/static_slowdown.h"
#include "io/svg_gantt.h"
#include "io/task_set_io.h"
#include "io/trace_io.h"
#include "metrics/table.h"
#include "sched/analysis.h"
#include "sched/priority.h"

namespace {

using namespace lpfps;

struct CliOptions {
  std::string task_file;
  std::string policy = "lpfps";
  std::string priority = "rm";
  std::string exec = "gaussian";
  std::optional<Time> horizon;
  std::uint64_t seed = 1;
  std::optional<double> bcet_ratio;
  bool csv = false;
  std::string trace_csv;
  std::string jobs_csv;
  std::optional<std::pair<Time, Time>> gantt;
  std::string svg_file;
  std::optional<std::pair<Time, Time>> svg_window;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "lpfps_sim: %s\nsee the header of tools/lpfps_sim.cc"
                       " for usage\n", message.c_str());
  std::exit(2);
}

/// The value of a numeric flag: `token` must be, as a whole, a finite
/// number of type T inside the flag's domain (`in_domain`, described by
/// `domain`); anything else is a usage error naming the flag.  A
/// std::uint64_t takes bare digits only (std::stoull would wrap "-1").
template <typename T, typename InDomain>
T parse_flag(const std::string& flag, const std::string& token,
             InDomain in_domain, const char* domain) {
  T value{};
  std::size_t consumed = 0;
  try {
    if constexpr (std::is_same_v<T, std::uint64_t>) {
      if (std::all_of(token.begin(), token.end(), [](unsigned char c) {
            return std::isdigit(c) != 0;
          })) {
        value = std::stoull(token, &consumed);
      }
    } else {
      value = std::stod(token, &consumed);
    }
  } catch (const std::exception&) {
    consumed = 0;  // No number, or out of range.
  }
  if (token.empty() || consumed != token.size() ||
      !std::isfinite(static_cast<double>(value)) || !in_domain(value)) {
    usage_error("bad value '" + token + "' for " + flag + " (need " +
                domain + ")");
  }
  return value;
}

/// A [begin, end) window in us for --gantt/--svg: finite, begin < end.
std::pair<Time, Time> parse_window(const std::string& flag,
                                   const std::string& begin_token,
                                   const std::string& end_token) {
  const auto any = [](double) { return true; };
  const Time begin = parse_flag<double>(flag, begin_token, any, "a number");
  const Time end = parse_flag<double>(
      flag, end_token, [&](double e) { return definitely_less(begin, e); },
      "an end after the begin");
  return {begin, end};
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions options;
  std::vector<std::string> args(argv + 1, argv + argc);
  std::size_t i = 0;
  auto next_value = [&](const std::string& flag) -> std::string {
    if (i + 1 >= args.size()) usage_error("missing value for " + flag);
    return args[++i];
  };
  for (; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--policy") {
      options.policy = next_value(arg);
    } else if (arg == "--priority") {
      options.priority = next_value(arg);
    } else if (arg == "--exec") {
      options.exec = next_value(arg);
    } else if (arg == "--horizon") {
      options.horizon = parse_flag<double>(
          arg, next_value(arg), [](double h) { return h > 0.0; },
          "a positive length in us");
    } else if (arg == "--seed") {
      options.seed = parse_flag<std::uint64_t>(
          arg, next_value(arg), [](std::uint64_t) { return true; },
          "an unsigned integer");
    } else if (arg == "--bcet-ratio") {
      options.bcet_ratio = parse_flag<double>(
          arg, next_value(arg), [](double r) { return r > 0.0 && r <= 1.0; },
          "a ratio in (0, 1]");
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--trace-csv") {
      options.trace_csv = next_value(arg);
    } else if (arg == "--jobs-csv") {
      options.jobs_csv = next_value(arg);
    } else if (arg == "--gantt") {
      const std::string begin = next_value(arg);
      options.gantt = parse_window(arg, begin, next_value("--gantt END"));
    } else if (arg == "--svg") {
      options.svg_file = next_value(arg);
      const std::string begin = next_value("--svg BEGIN");
      options.svg_window = parse_window(arg, begin, next_value("--svg END"));
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown option " + arg);
    } else if (options.task_file.empty()) {
      options.task_file = arg;
    } else {
      usage_error("unexpected argument " + arg);
    }
  }
  if (options.task_file.empty()) usage_error("no task-set file given");
  return options;
}

exec::ExecModelPtr make_exec_model(const std::string& name) {
  if (name == "wcet") return nullptr;  // Engine default: all jobs at WCET.
  if (name == "gaussian") return std::make_shared<exec::ClampedGaussianModel>();
  if (name == "uniform") return std::make_shared<exec::UniformModel>();
  if (name == "bimodal") return std::make_shared<exec::BimodalModel>();
  usage_error("unknown exec model " + name);
}

std::vector<core::SchedulerPolicy> select_policies(
    const std::string& name, const sched::TaskSet& tasks,
    const power::ProcessorConfig& cpu) {
  if (name == "fps") return {core::SchedulerPolicy::fps()};
  if (name == "lpfps") return {core::SchedulerPolicy::lpfps()};
  if (name == "lpfps-opt") return {core::SchedulerPolicy::lpfps_optimal()};
  if (name == "lpfps-dvs") return {core::SchedulerPolicy::lpfps_dvs_only()};
  if (name == "lpfps-pd") {
    return {core::SchedulerPolicy::lpfps_powerdown_only()};
  }
  if (name == "static" || name == "all") {
    const auto ratio =
        core::min_feasible_static_ratio(tasks, cpu.frequencies);
    if (!ratio.has_value()) usage_error("no feasible static ratio");
    if (name == "static") {
      return {core::SchedulerPolicy::static_slowdown(*ratio)};
    }
    return {core::SchedulerPolicy::fps(),
            core::SchedulerPolicy::lpfps_powerdown_only(),
            core::SchedulerPolicy::lpfps_dvs_only(),
            core::SchedulerPolicy::lpfps(),
            core::SchedulerPolicy::lpfps_optimal(),
            core::SchedulerPolicy::static_slowdown(*ratio),
            core::SchedulerPolicy::lpfps_hybrid(*ratio)};
  }
  if (name == "hybrid") {
    const auto ratio =
        core::min_feasible_static_ratio(tasks, cpu.frequencies);
    if (!ratio.has_value()) usage_error("no feasible static ratio");
    return {core::SchedulerPolicy::lpfps_hybrid(*ratio)};
  }
  if (name == "avr") return {};  // Handled specially.
  usage_error("unknown policy " + name);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliOptions cli = parse_cli(argc, argv);
    sched::TaskSet tasks = io::load_task_set(cli.task_file);
    if (tasks.empty()) usage_error("task set file defines no tasks");
    if (cli.bcet_ratio.has_value()) {
      tasks = tasks.with_bcet_ratio(*cli.bcet_ratio);
    }

    if (cli.priority == "rm") {
      sched::assign_rate_monotonic(tasks);
    } else if (cli.priority == "dm") {
      sched::assign_deadline_monotonic(tasks);
    } else if (cli.priority == "audsley") {
      if (!sched::assign_audsley_optimal(tasks)) {
        std::fprintf(stderr, "no feasible fixed-priority assignment\n");
        return 1;
      }
    } else {
      usage_error("unknown priority policy " + cli.priority);
    }

    if (!sched::is_schedulable_rta(tasks)) {
      std::fprintf(stderr,
                   "task set (U = %.3f) is not fixed-priority schedulable\n",
                   tasks.utilization());
      return 1;
    }

    const auto cpu = power::ProcessorConfig::arm8_default();
    Time horizon = 0.0;
    if (cli.horizon.has_value()) {
      horizon = *cli.horizon;
    } else {
      const auto hyper = static_cast<Time>(tasks.hyperperiod());
      horizon = hyper;
      while (horizon < 1e6 && horizon < 2e7) horizon += hyper;
      horizon = std::min(horizon, 2e7);
    }

    const exec::ExecModelPtr exec_model = make_exec_model(cli.exec);
    const bool want_trace =
        !cli.trace_csv.empty() || !cli.jobs_csv.empty() ||
        cli.gantt.has_value() || !cli.svg_file.empty();

    if (!cli.csv) {
      std::printf("tasks: %zu, U = %.3f, hyperperiod %lld us, horizon %.0f"
                  " us, exec model: %s\n\n",
                  tasks.size(), tasks.utilization(),
                  static_cast<long long>(tasks.hyperperiod()), horizon,
                  cli.exec.c_str());
    } else {
      std::fputs(io::result_csv_header().c_str(), stdout);
    }

    auto report = [&](const core::SimulationResult& result) {
      if (cli.csv) {
        std::fputs(io::result_csv_row(result).c_str(), stdout);
      } else {
        std::fputs(result.summary().c_str(), stdout);
        std::puts("");
      }
      if (result.trace.has_value()) {
        if (!cli.trace_csv.empty()) {
          std::ofstream out(cli.trace_csv);
          out << io::trace_segments_csv(*result.trace, tasks.names());
        }
        if (!cli.jobs_csv.empty()) {
          std::ofstream out(cli.jobs_csv);
          out << io::trace_jobs_csv(*result.trace, tasks.names());
        }
        if (cli.gantt.has_value()) {
          std::fputs(sim::render_gantt(*result.trace, tasks.names(),
                                       cli.gantt->first, cli.gantt->second,
                                       100)
                         .c_str(),
                     stdout);
        }
        if (!cli.svg_file.empty() && cli.svg_window.has_value()) {
          io::SvgOptions svg_options;
          svg_options.begin = cli.svg_window->first;
          svg_options.end = cli.svg_window->second;
          std::ofstream out(cli.svg_file);
          out << io::render_svg_gantt(*result.trace, tasks.names(),
                                      svg_options);
        }
      }
    };

    if (cli.policy == "avr" || cli.policy == "all") {
      core::AvrOptions avr_options;
      avr_options.horizon = horizon;
      avr_options.seed = cli.seed;
      report(core::simulate_avr(tasks, cpu, exec_model, avr_options));
      if (cli.policy == "avr") return 0;
    }

    for (const core::SchedulerPolicy& policy :
         select_policies(cli.policy, tasks, cpu)) {
      core::EngineOptions options;
      options.horizon = horizon;
      options.seed = cli.seed;
      options.record_trace = want_trace;
      report(core::simulate(tasks, cpu, policy, exec_model, options));
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "lpfps_sim: %s\n", error.what());
    return 1;
  }
}
