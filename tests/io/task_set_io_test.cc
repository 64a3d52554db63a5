#include "io/task_set_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
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

TEST(TaskSetParse, RejectsFractionalAndNegativePhases) {
  for (const char* text : {"t period=100 wcet=10 phase=2.5\n",
                           "t period=100 wcet=10 phase=-0.5\n",
                           "t period=100 wcet=10 phase=-3\n",
                           "t 100 10 100 10 0.25\n"}) {
    const std::string message = parse_error(text);
    EXPECT_NE(message.find("line 1: phase must be a non-negative integer"),
              std::string::npos)
        << text << " -> " << message;
  }
  EXPECT_EQ(parse_task_set_string("t period=100 wcet=10 phase=0\n")[0].phase,
            0);
}

TEST(TaskSetParse, RejectsTimesOutsideTheIntegerRange) {
  // 2^63 and up do not fit the int64 time type.
  const std::pair<const char*, const char*> cases[] = {
      {"t period=1e30 wcet=10\n", "period must be"},
      {"t period=9223372036854775808 wcet=10\n", "period must be"},
      {"t period=100 wcet=10 deadline=1e19\n", "deadline must be"},
      {"t period=100 wcet=10 phase=1e19\n", "phase must be"},
      {"t period=100 wcet=10 phase=inf\n", "phase must be"}};
  for (const auto& [text, expected] : cases) {
    const std::string message = parse_error(text);
    EXPECT_NE(message.find(std::string("line 1: ") + expected),
              std::string::npos)
        << text << " -> " << message;
  }
}

TEST(TaskSetParse, RejectsSemanticViolations) {
  // bcet > wcet surfaces as a line-numbered parse error.
  EXPECT_THROW(parse_task_set_string("t 100 10 100 20\n"),
               std::runtime_error);
  // wcet > deadline.
  EXPECT_THROW(parse_task_set_string("t 100 60 50\n"), std::runtime_error);
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
