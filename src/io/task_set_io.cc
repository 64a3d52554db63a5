#include "io/task_set_io.h"

#include <cmath>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/check.h"
#include "common/math_utils.h"

namespace lpfps::io {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::runtime_error("task set parse error at line " +
                           std::to_string(line) + ": " + message);
}

/// Strips a trailing "# ..." comment and surrounding whitespace.
std::string strip(const std::string& raw) {
  std::string s = raw;
  if (const auto hash = s.find('#'); hash != std::string::npos) {
    s.erase(hash);
  }
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

bool parse_number(const std::string& token, double& out) {
  try {
    std::size_t consumed = 0;
    out = std::stod(token, &consumed);
    return consumed == token.size();
  } catch (const std::exception&) {
    return false;
  }
}

/// `value` as an integer time: whole, positive (non-negative when
/// `allow_zero`) and below 2^63, so the conversion is defined.
std::int64_t to_time_integer(double value, int line, const char* field,
                             bool allow_zero = false) {
  const bool in_domain = allow_zero ? value >= 0.0 : value > 0.0;
  if (!in_domain || value != std::floor(value) || value >= 0x1p63) {
    fail(line, std::string(field) + " must be a " +
                   (allow_zero ? "non-negative" : "positive") +
                   " integer below 2^63, got " + round_trip_string(value));
  }
  return static_cast<std::int64_t>(value);
}

}  // namespace

sched::TaskSet parse_task_set(std::istream& in) {
  sched::TaskSet tasks;
  std::string raw;
  int line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    const std::string line = strip(raw);
    if (line.empty()) continue;

    std::istringstream fields(line);
    std::string name;
    fields >> name;
    if (name.empty()) continue;
    double number = 0.0;
    if (parse_number(name, number)) {
      fail(line_number, "task name must not be numeric: " + name);
    }

    // Collect the remaining tokens; decide keyed vs positional by the
    // presence of '='.
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(token);
    if (tokens.empty()) fail(line_number, "missing fields after name");

    // A field the line does not give stays empty; deadline then
    // defaults to the period, bcet to the wcet and phase to 0.  Any
    // value the line does give is checked as given.
    std::optional<double> period;
    std::optional<double> wcet;
    std::optional<double> deadline;
    std::optional<double> bcet;
    std::optional<double> phase;

    const bool keyed = tokens.front().find('=') != std::string::npos;
    if (keyed) {
      for (const std::string& token : tokens) {
        const auto eq = token.find('=');
        if (eq == std::string::npos) {
          fail(line_number, "expected key=value, got " + token);
        }
        const std::string key = token.substr(0, eq);
        double value = 0.0;
        if (!parse_number(token.substr(eq + 1), value)) {
          fail(line_number, "bad numeric value in " + token);
        }
        std::optional<double>* slot = nullptr;
        if (key == "period") {
          slot = &period;
        } else if (key == "wcet") {
          slot = &wcet;
        } else if (key == "deadline") {
          slot = &deadline;
        } else if (key == "bcet") {
          slot = &bcet;
        } else if (key == "phase") {
          slot = &phase;
        } else {
          fail(line_number, "unknown key: " + key);
        }
        // A repeated key is rejected, not resolved to its last value.
        if (slot->has_value()) {
          fail(line_number, key + " is given twice (" +
                                round_trip_string(**slot) + "), got " +
                                round_trip_string(value));
        }
        *slot = value;
      }
    } else {
      std::optional<double>* const slots[] = {&period, &wcet, &deadline,
                                              &bcet, &phase};
      if (tokens.size() > std::size(slots)) {
        fail(line_number, "too many fields");
      }
      for (std::size_t i = 0; i < tokens.size(); ++i) {
        double value = 0.0;
        if (!parse_number(tokens[i], value)) {
          fail(line_number, "bad numeric field: " + tokens[i]);
        }
        *slots[i] = value;
      }
    }

    if (!period || *period <= 0.0) {
      fail(line_number, "period is required and positive");
    }
    if (!wcet || !(*wcet > 0.0)) {
      fail(line_number, "wcet is required and positive");
    }

    const std::int64_t period_us =
        to_time_integer(*period, line_number, "period");
    const std::int64_t deadline_us =
        to_time_integer(deadline.value_or(*period), line_number, "deadline");
    const std::int64_t phase_us = to_time_integer(
        phase.value_or(0.0), line_number, "phase", /*allow_zero=*/true);
    // The relations Task::validate checks, named here with their values.
    const double bcet_value = bcet.value_or(*wcet);
    if (!(bcet_value > 0.0 && bcet_value <= *wcet)) {
      fail(line_number, "bcet must be positive and at most wcet (" +
                            round_trip_string(*wcet) + "), got " +
                            round_trip_string(bcet_value));
    }
    if (!(*wcet <= static_cast<double>(deadline_us))) {
      fail(line_number, "wcet must be at most deadline (" +
                            std::to_string(deadline_us) + "), got " +
                            round_trip_string(*wcet));
    }
    try {
      tasks.add(sched::make_task(name, period_us, deadline_us, *wcet,
                                 bcet_value, phase_us));
    } catch (const std::logic_error& error) {
      fail(line_number, error.what());
    }
  }
  return tasks;
}

sched::TaskSet parse_task_set_string(const std::string& text) {
  std::istringstream in(text);
  return parse_task_set(in);
}

sched::TaskSet load_task_set(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open task set file: " + path);
  }
  return parse_task_set(in);
}

std::string format_task_set(const sched::TaskSet& tasks) {
  std::ostringstream os;
  os << "# name period wcet deadline bcet phase   (times in microseconds)\n";
  for (const sched::Task& t : tasks.tasks()) {
    os << t.name << " " << t.period << " " << t.wcet << " " << t.deadline
       << " " << t.bcet << " " << t.phase << "\n";
  }
  return os.str();
}

void save_task_set(const sched::TaskSet& tasks, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write task set file: " + path);
  }
  out << format_task_set(tasks);
  if (!out) {
    throw std::runtime_error("write failed: " + path);
  }
}

}  // namespace lpfps::io
