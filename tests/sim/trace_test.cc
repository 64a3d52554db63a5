#include "sim/trace.h"

#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>

namespace lpfps::sim {
namespace {

Segment seg(Time begin, Time end, ProcessorMode mode,
            TaskIndex task = kNoTask, Ratio r0 = 1.0, Ratio r1 = 1.0) {
  Segment s;
  s.begin = begin;
  s.end = end;
  s.mode = mode;
  s.task = task;
  s.ratio_begin = r0;
  s.ratio_end = r1;
  return s;
}

TEST(Trace, DropsZeroLengthSegments) {
  Trace trace;
  trace.add_segment(seg(5.0, 5.0, ProcessorMode::kRunning, 0));
  EXPECT_TRUE(trace.segments().empty());
}

TEST(Trace, MergesAdjacentIdenticalSegments) {
  Trace trace;
  trace.add_segment(seg(0.0, 5.0, ProcessorMode::kRunning, 0));
  trace.add_segment(seg(5.0, 9.0, ProcessorMode::kRunning, 0));
  ASSERT_EQ(trace.segments().size(), 1u);
  EXPECT_DOUBLE_EQ(trace.segments()[0].end, 9.0);
}

TEST(Trace, DoesNotMergeAcrossTaskChange) {
  Trace trace;
  trace.add_segment(seg(0.0, 5.0, ProcessorMode::kRunning, 0));
  trace.add_segment(seg(5.0, 9.0, ProcessorMode::kRunning, 1));
  EXPECT_EQ(trace.segments().size(), 2u);
}

TEST(Trace, DoesNotMergeRampSegments) {
  Trace trace;
  trace.add_segment(seg(0.0, 5.0, ProcessorMode::kRunning, 0, 0.5, 0.5));
  trace.add_segment(seg(5.0, 9.0, ProcessorMode::kRunning, 0, 0.5, 0.8));
  EXPECT_EQ(trace.segments().size(), 2u);
}

TEST(Trace, MergesContinuingRampSegments) {
  // A ramp split by an unrelated decision boundary: same slope (0.02/us),
  // continuous ratio -> one segment.
  Trace trace;
  trace.add_segment(seg(0.0, 5.0, ProcessorMode::kRunning, 0, 0.5, 0.6));
  trace.add_segment(seg(5.0, 10.0, ProcessorMode::kRunning, 0, 0.6, 0.7));
  ASSERT_EQ(trace.segments().size(), 1u);
  EXPECT_DOUBLE_EQ(trace.segments()[0].end, 10.0);
  EXPECT_DOUBLE_EQ(trace.segments()[0].ratio_begin, 0.5);
  EXPECT_DOUBLE_EQ(trace.segments()[0].ratio_end, 0.7);
}

TEST(Trace, DoesNotMergeRampsWithDifferentRates) {
  Trace trace;
  trace.add_segment(seg(0.0, 5.0, ProcessorMode::kRunning, 0, 0.5, 0.6));
  trace.add_segment(seg(5.0, 10.0, ProcessorMode::kRunning, 0, 0.6, 0.9));
  EXPECT_EQ(trace.segments().size(), 2u);
}

TEST(Trace, DoesNotMergeOpposingRamps) {
  Trace trace;
  trace.add_segment(seg(0.0, 5.0, ProcessorMode::kRamping, kNoTask, 0.5, 0.6));
  trace.add_segment(seg(5.0, 10.0, ProcessorMode::kRamping, kNoTask, 0.6, 0.5));
  EXPECT_EQ(trace.segments().size(), 2u);
}

TEST(Trace, RecordTimeMergingProducesCanonicalSegments) {
  // The writer folds each segment into its predecessor as it is
  // appended, so a raw (unmerged) list recorded piece by piece lands on
  // the canonical form the golden hashes pin: a constant run, a
  // continuing ramp and an idle gap.
  Trace trace;
  trace.add_segment(seg(0.0, 4.0, ProcessorMode::kRunning, 0));
  trace.add_segment(seg(4.0, 6.0, ProcessorMode::kRunning, 0));
  trace.add_segment(seg(6.0, 8.0, ProcessorMode::kRunning, 0, 1.0, 0.8));
  trace.add_segment(seg(8.0, 10.0, ProcessorMode::kRunning, 0, 0.8, 0.6));
  trace.add_segment(seg(10.0, 12.0, ProcessorMode::kIdleBusyWait));
  const Segment expected[] = {
      seg(0.0, 6.0, ProcessorMode::kRunning, 0),
      seg(6.0, 10.0, ProcessorMode::kRunning, 0, 1.0, 0.6),
      seg(10.0, 12.0, ProcessorMode::kIdleBusyWait),
  };
  ASSERT_EQ(trace.segments().size(), std::size(expected));
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    const Segment& got = trace.segments()[i];
    EXPECT_EQ(got.begin, expected[i].begin) << "segment " << i;
    EXPECT_EQ(got.end, expected[i].end) << "segment " << i;
    EXPECT_EQ(got.mode, expected[i].mode) << "segment " << i;
    EXPECT_EQ(got.task, expected[i].task) << "segment " << i;
    EXPECT_EQ(got.ratio_begin, expected[i].ratio_begin) << "segment " << i;
    EXPECT_EQ(got.ratio_end, expected[i].ratio_end) << "segment " << i;
  }
}

TEST(Trace, ReservePreallocatesWithoutChangingContent) {
  Trace trace;
  trace.reserve(100, 10);
  trace.add_segment(seg(0.0, 5.0, ProcessorMode::kRunning, 0));
  EXPECT_EQ(trace.segments().size(), 1u);
  EXPECT_TRUE(trace.jobs().empty());
}

TEST(Trace, RejectsNonContiguousSegments) {
  Trace trace;
  trace.add_segment(seg(0.0, 5.0, ProcessorMode::kRunning, 0));
  EXPECT_THROW(
      trace.add_segment(seg(6.0, 7.0, ProcessorMode::kIdleBusyWait)),
      std::logic_error);
}

TEST(Trace, RejectsBackwardsSegments) {
  Trace trace;
  EXPECT_THROW(trace.add_segment(seg(5.0, 4.0, ProcessorMode::kRunning, 0)),
               std::logic_error);
}

TEST(Trace, TimeInModeAggregates) {
  Trace trace;
  trace.add_segment(seg(0.0, 5.0, ProcessorMode::kRunning, 0));
  trace.add_segment(seg(5.0, 7.0, ProcessorMode::kIdleBusyWait));
  trace.add_segment(seg(7.0, 10.0, ProcessorMode::kRunning, 1));
  trace.add_segment(seg(10.0, 20.0, ProcessorMode::kPowerDown));
  EXPECT_DOUBLE_EQ(trace.time_in_mode(ProcessorMode::kRunning), 8.0);
  EXPECT_DOUBLE_EQ(trace.time_in_mode(ProcessorMode::kIdleBusyWait), 2.0);
  EXPECT_DOUBLE_EQ(trace.time_in_mode(ProcessorMode::kPowerDown), 10.0);
  EXPECT_DOUBLE_EQ(trace.running_time(0), 5.0);
  EXPECT_DOUBLE_EQ(trace.running_time(1), 3.0);
}

TEST(Trace, MissedJobsFilter) {
  Trace trace;
  JobRecord ok;
  ok.task = 0;
  ok.finished = true;
  trace.add_job(ok);
  JobRecord missed;
  missed.task = 1;
  missed.finished = true;
  missed.missed_deadline = true;
  trace.add_job(missed);
  ASSERT_EQ(trace.missed_jobs().size(), 1u);
  EXPECT_EQ(trace.missed_jobs()[0].task, 1);
}

TEST(Trace, CheckInvariantsAcceptsWellFormed) {
  Trace trace;
  trace.add_segment(seg(0.0, 5.0, ProcessorMode::kRunning, 0));
  trace.add_segment(seg(5.0, 7.0, ProcessorMode::kIdleBusyWait));
  EXPECT_NO_THROW(trace.check_invariants());
}

TEST(GanttRender, PaintsTaskRows) {
  Trace trace;
  trace.add_segment(seg(0.0, 50.0, ProcessorMode::kRunning, 0));
  trace.add_segment(seg(50.0, 80.0, ProcessorMode::kRunning, 1, 0.5, 0.5));
  trace.add_segment(seg(80.0, 100.0, ProcessorMode::kPowerDown));
  const std::string art =
      render_gantt(trace, {"tau1", "tau2"}, 0.0, 100.0, 50);
  EXPECT_NE(art.find("tau1"), std::string::npos);
  EXPECT_NE(art.find("tau2"), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);  // Full-speed run.
  EXPECT_NE(art.find('o'), std::string::npos);  // Scaled run.
  EXPECT_NE(art.find('_'), std::string::npos);  // Power-down.
}

TEST(SegmentRender, ListsSegments) {
  Trace trace;
  trace.add_segment(seg(0.0, 50.0, ProcessorMode::kRunning, 0));
  const std::string text = render_segments(trace, {"tau1"});
  EXPECT_NE(text.find("run"), std::string::npos);
  EXPECT_NE(text.find("tau1"), std::string::npos);
}

TEST(JobRecord, ResponseTime) {
  JobRecord job;
  job.release = 100.0;
  job.completion = 130.0;
  EXPECT_DOUBLE_EQ(job.response_time(), 30.0);
}

}  // namespace
}  // namespace lpfps::sim
