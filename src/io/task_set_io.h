// Task-set (de)serialization.
//
// The text format is line-oriented, one task per line:
//
//     # comment (also after fields)
//     name  period  wcet  [deadline]  [bcet]  [phase]
//
// Times in microseconds; an omitted deadline defaults to the period,
// bcet to the wcet, phase to 0, and a given one is checked as given (a
// negative deadline or bcet is an error).  Key=value pairs are also
// accepted after the name, in any order:
//
//     engine_ctl  period=5000 wcet=1200 bcet=400
//
// Priorities are not part of the file: callers choose an assignment
// policy (RM/DM/Audsley) after loading, keeping the file declarative.
#pragma once

#include <iosfwd>
#include <string>

#include "sched/task_set.h"

namespace lpfps::io {

/// Parses the text format.  Throws std::runtime_error with a
/// line-numbered message on malformed input; the returned set has all
/// priorities zero (assign before use).
sched::TaskSet parse_task_set(std::istream& in);
sched::TaskSet parse_task_set_string(const std::string& text);

/// Loads from a file path.  Throws std::runtime_error if unreadable.
sched::TaskSet load_task_set(const std::string& path);

/// Serializes in the positional form (name period wcet deadline bcet
/// phase), one task per line, with a header comment.  Round-trips
/// through parse_task_set exactly (priorities excepted).
std::string format_task_set(const sched::TaskSet& tasks);

/// Writes format_task_set() to a file.  Throws on I/O failure.
void save_task_set(const sched::TaskSet& tasks, const std::string& path);

}  // namespace lpfps::io
