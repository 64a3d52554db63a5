#include "io/task_set_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sched/priority.h"
#include "workloads/ins.h"

namespace lpfps::io {
namespace {

TEST(TaskSetParse, PositionalMinimal) {
  const sched::TaskSet tasks =
      parse_task_set_string("ctrl 5000 1200\nlog 100000 9000\n");
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].name, "ctrl");
  EXPECT_EQ(tasks[0].period, 5000);
  EXPECT_DOUBLE_EQ(tasks[0].wcet, 1200.0);
  EXPECT_EQ(tasks[0].deadline, 5000);       // Defaults to period.
  EXPECT_DOUBLE_EQ(tasks[0].bcet, 1200.0);  // Defaults to wcet.
  EXPECT_EQ(tasks[0].phase, 0);
}

TEST(TaskSetParse, PositionalFull) {
  const sched::TaskSet tasks =
      parse_task_set_string("t 100 20 80 5 10\n");
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].deadline, 80);
  EXPECT_DOUBLE_EQ(tasks[0].bcet, 5.0);
  EXPECT_EQ(tasks[0].phase, 10);
}

TEST(TaskSetParse, KeyedFields) {
  const sched::TaskSet tasks = parse_task_set_string(
      "engine_ctl period=5000 wcet=1200 bcet=400\n"
      "aux wcet=10 period=100 deadline=50\n");
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_DOUBLE_EQ(tasks[0].bcet, 400.0);
  EXPECT_EQ(tasks[1].deadline, 50);
}

TEST(TaskSetParse, CommentsAndBlanksIgnored) {
  const sched::TaskSet tasks = parse_task_set_string(
      "# header comment\n"
      "\n"
      "a 100 10   # trailing comment\n"
      "   \t  \n"
      "b 200 20\n");
  EXPECT_EQ(tasks.size(), 2u);
}

TEST(TaskSetParse, ErrorsCarryLineNumbers) {
  try {
    parse_task_set_string("ok 100 10\nbroken 100\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
}

TEST(TaskSetParse, RejectsNumericName) {
  EXPECT_THROW(parse_task_set_string("42 100 10\n"), std::runtime_error);
}

TEST(TaskSetParse, RejectsUnknownKey) {
  EXPECT_THROW(parse_task_set_string("t period=100 wcet=10 prio=1\n"),
               std::runtime_error);
}

TEST(TaskSetParse, RejectsBadNumbers) {
  EXPECT_THROW(parse_task_set_string("t 100 ten\n"), std::runtime_error);
  EXPECT_THROW(parse_task_set_string("t 100.5 10\n"), std::runtime_error);
  EXPECT_THROW(parse_task_set_string("t -100 10\n"), std::runtime_error);
}

/// The message of the parse error `text` raises, or "" if it parses.
std::string parse_error(const std::string& text) {
  try {
    parse_task_set_string(text);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

/// The message names the rejected value in a form that round-trips, and
/// no internal check text (file path, expression) leaks into it.
void expect_names_value(const std::string& text, const std::string& message,
                        const std::string& value) {
  EXPECT_NE(message.find("got " + value), std::string::npos)
      << text << " -> " << message;
  EXPECT_EQ(message.find("check failed"), std::string::npos)
      << text << " -> " << message;
}

TEST(TaskSetParse, RejectsFractionalAndNegativePhases) {
  const std::pair<const char*, const char*> cases[] = {
      {"t period=100 wcet=10 phase=2.5\n", "2.5"},
      {"t period=100 wcet=10 phase=-0.5\n", "-0.5"},
      {"t period=100 wcet=10 phase=-3\n", "-3"},
      {"t 100 10 100 10 0.25\n", "0.25"},
      // Below std::to_string's six decimals: it printed 0.000000.
      {"t 100 10 100 10 2.5e-7\n", "2.5e-07"}};
  for (const auto& [text, value] : cases) {
    const std::string message = parse_error(text);
    EXPECT_NE(message.find("line 1: phase must be a non-negative integer"),
              std::string::npos)
        << text << " -> " << message;
    expect_names_value(text, message, value);
  }
  EXPECT_EQ(parse_task_set_string("t period=100 wcet=10 phase=0\n")[0].phase,
            0);
}

TEST(TaskSetParse, RejectsTimesOutsideTheIntegerRange) {
  // 2^63 and up do not fit the int64 time type.
  const std::tuple<const char*, const char*, const char*> cases[] = {
      {"t period=1e30 wcet=10\n", "period must be", "1e+30"},
      {"t period=9223372036854775808 wcet=10\n", "period must be",
       "9223372036854775808"},
      // std::to_string printed all 301 digits of this one.
      {"t period=1e300 wcet=10\n", "period must be", "1e+300"},
      {"t period=100 wcet=10 deadline=1e19\n", "deadline must be", "1e+19"},
      {"t period=100 wcet=10 phase=1e19\n", "phase must be", "1e+19"},
      {"t period=100 wcet=10 phase=inf\n", "phase must be", "inf"}};
  for (const auto& [text, expected, value] : cases) {
    const std::string message = parse_error(text);
    EXPECT_NE(message.find(std::string("line 1: ") + expected),
              std::string::npos)
        << text << " -> " << message;
    expect_names_value(text, message, value);
  }
}

TEST(TaskSetParse, RejectsSemanticViolations) {
  // Each relation is a line-numbered parse error naming the field and
  // both values.
  const std::tuple<const char*, const char*, const char*> cases[] = {
      {"t 100 10 100 20\n", "bcet must be positive and at most wcet (10)",
       "20"},
      {"t period=100 wcet=10 bcet=0\n",
       "bcet must be positive and at most wcet (10)", "0"},
      {"t 100 60 50\n", "wcet must be at most deadline (50)", "60"},
      {"t period=100 wcet=10.5 deadline=10\n",
       "wcet must be at most deadline (10)", "10.5"},
      // A given negative deadline or bcet is rejected, not taken as
      // "not given" and replaced by the period or the wcet.
      {"a 100 10 -5 -5\n", "deadline must be a positive integer", "-5"},
      {"a period=100 wcet=10 deadline=-1\n",
       "deadline must be a positive integer", "-1"},
      {"a 100 10 100 -5\n", "bcet must be positive and at most wcet (10)",
       "-5"},
      {"a period=100 wcet=10 bcet=-2.5\n",
       "bcet must be positive and at most wcet (10)", "-2.5"},
      // A repeated key is an error, not "the last value wins".
      {"a period=100 wcet=10 wcet=20 period=50\n",
       "wcet is given twice (10)", "20"},
      {"a phase=0 period=100 wcet=10 phase=5\n", "phase is given twice (0)",
       "5"}};
  for (const auto& [text, expected, value] : cases) {
    const std::string message = parse_error(text);
    EXPECT_NE(message.find(std::string("line 1: ") + expected),
              std::string::npos)
        << text << " -> " << message;
    expect_names_value(text, message, value);
  }
  // NaN fails every comparison, so it must be caught as not positive
  // rather than slip through to Task::validate.
  const std::string nan_wcet = parse_error("t period=100 wcet=nan\n");
  EXPECT_NE(nan_wcet.find("line 1: wcet is required and positive"),
            std::string::npos)
      << nan_wcet;
  EXPECT_EQ(nan_wcet.find("check failed"), std::string::npos) << nan_wcet;
}

/// `text` cut at every `separator`, keeping empty pieces, so joining
/// them back with `separator` restores it.
std::vector<std::string> split(const std::string& text, char separator) {
  std::vector<std::string> pieces(1);
  for (const char c : text) {
    if (c == separator) {
      pieces.emplace_back();
    } else {
      pieces.back() += c;
    }
  }
  return pieces;
}

std::string join(const std::vector<std::string>& pieces, char separator) {
  std::string text;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) text += separator;
    text += pieces[i];
  }
  return text;
}

/// One hostile edit of a task file, chosen and placed by `rng`: swap
/// two tokens of a line, flip a token's sign, replace, drop or insert a
/// digit, append an exponent, rewrite a line in keyed form with one key
/// renamed, or cut the file short.
std::string mutate(const std::string& text, std::mt19937_64& rng) {
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::vector<std::string> lines = split(text, '\n');
  std::string& line = lines[below(lines.size())];
  std::vector<std::string> tokens = split(line, ' ');
  std::erase(tokens, std::string());
  if (tokens.empty()) return text;
  std::string& token = tokens[below(tokens.size())];
  switch (below(6)) {
    case 0:
      token.swap(tokens[below(tokens.size())]);
      break;
    case 1:
      if (token.front() == '-') {
        token.erase(0, 1);
      } else {
        token.insert(0, 1, '-');
      }
      break;
    case 2: {
      const std::size_t at = below(token.size());
      const char digit = static_cast<char>('0' + below(10));
      switch (below(3)) {
        case 0:
          token[at] = digit;
          break;
        case 1:
          token.erase(at, 1);
          break;
        default:
          token.insert(at, 1, digit);
          break;
      }
      break;
    }
    case 3: {
      const char* const exponents[] = {"e308", "e-9",   "e+19", "e400",
                                       "e-400", "e",    ".5",   "e18"};
      token += exponents[below(std::size(exponents))];
      break;
    }
    case 4: {
      if (tokens.size() < 2) break;
      const char* const keys[] = {"period", "wcet", "deadline", "bcet",
                                  "phase"};
      for (std::size_t i = 1; i < tokens.size() && i <= std::size(keys); ++i) {
        tokens[i] = std::string(keys[i - 1]) + "=" + tokens[i];
      }
      const char* const renames[] = {"prio", "Period", "wcet", "deadline",
                                     "bcet", "",       "phase"};
      std::string& keyed = tokens[1 + below(tokens.size() - 1)];
      if (const auto eq = keyed.find('='); eq != std::string::npos) {
        keyed.replace(0, eq, renames[below(std::size(renames))]);
      }
      break;
    }
    default:
      return text.substr(0, below(text.size() + 1));
  }
  line = join(tokens, ' ');
  return join(lines, '\n');
}

/// Hostile input: seeded edits of every shipped task file either parse
/// into tasks that validate or fail with a line-numbered parse error,
/// never with an internal check (std::logic_error).
TEST(TaskSetParse, SeededMutationsOfShippedFilesParseOrFailCleanly) {
  std::mt19937_64 rng(24);
  int accepted = 0;
  int rejected = 0;
  for (const char* file : {"avionics.tasks", "cnc.tasks",
                           "example_table1.tasks", "flight_control.tasks",
                           "ins.tasks"}) {
    std::ifstream in(std::string(LPFPS_SOURCE_DIR) + "/data/" + file);
    std::stringstream original;
    original << in.rdbuf();
    ASSERT_FALSE(original.str().empty()) << file;
    for (int round = 0; round < 400; ++round) {
      std::string text = original.str();
      for (std::size_t edits = 1 + rng() % 3; edits > 0; --edits) {
        text = mutate(text, rng);
      }
      try {
        sched::TaskSet tasks = parse_task_set_string(text);
        sched::assign_rate_monotonic(tasks);
        tasks.validate();
        ++accepted;
      } catch (const std::runtime_error& error) {
        const std::string message = error.what();
        EXPECT_EQ(message.rfind("task set parse error at line", 0), 0u)
            << text << " -> " << message;
        EXPECT_EQ(message.find("check failed"), std::string::npos)
            << text << " -> " << message;
        ++rejected;
      } catch (const std::logic_error& error) {
        ADD_FAILURE() << file << " round " << round << ": " << error.what()
                      << "\n" << text;
      }
    }
  }
  // Both outcomes occur, so the edits neither all miss nor all break.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

TEST(TaskSetParse, TooManyFields) {
  EXPECT_THROW(parse_task_set_string("t 100 10 100 10 0 77\n"),
               std::runtime_error);
}

TEST(TaskSetRoundTrip, FormatThenParse) {
  const sched::TaskSet original = workloads::ins();
  const sched::TaskSet reparsed =
      parse_task_set_string(format_task_set(original));
  ASSERT_EQ(reparsed.size(), original.size());
  for (TaskIndex i = 0; i < static_cast<TaskIndex>(original.size()); ++i) {
    EXPECT_EQ(reparsed[i].name, original[i].name);
    EXPECT_EQ(reparsed[i].period, original[i].period);
    EXPECT_EQ(reparsed[i].deadline, original[i].deadline);
    EXPECT_DOUBLE_EQ(reparsed[i].wcet, original[i].wcet);
    EXPECT_DOUBLE_EQ(reparsed[i].bcet, original[i].bcet);
    EXPECT_EQ(reparsed[i].phase, original[i].phase);
  }
}

TEST(TaskSetFiles, SaveAndLoad) {
  const std::string path = ::testing::TempDir() + "/lpfps_io_test_tasks.txt";
  save_task_set(workloads::ins(), path);
  const sched::TaskSet loaded = load_task_set(path);
  EXPECT_EQ(loaded.size(), 6u);
  std::remove(path.c_str());
}

TEST(TaskSetFiles, MissingFileThrows) {
  EXPECT_THROW(load_task_set("/nonexistent/definitely/not/here.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace lpfps::io
