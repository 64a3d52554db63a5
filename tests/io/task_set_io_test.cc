#include "io/task_set_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

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
       "wcet must be at most deadline (10)", "10.5"}};
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
