// admission/pipeline.h — N-worker session batches replay bit-identically
// (the runner determinism contract carried up through the service).
#include "admission/pipeline.h"

#include <gtest/gtest.h>

#include <vector>

namespace lpfps::admission {
namespace {

std::vector<SessionSpec> batch(std::size_t sessions) {
  std::vector<SessionSpec> specs(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    specs[i].churn.requests = 40;
    specs[i].churn.initial_tasks = 4 + static_cast<int>(i % 4);
    specs[i].seed = 0x5e550000 + i;
  }
  return specs;
}

void expect_equal(const SessionResult& a, const SessionResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.decision_digest, b.decision_digest);
  EXPECT_EQ(a.final_fingerprint, b.final_fingerprint);
  // Accounting replays exactly too: each session owns its service, so
  // service and RTA counters are thread-count-independent.
  EXPECT_EQ(a.stats.levels_probed, b.stats.levels_probed);
  EXPECT_EQ(a.rta.tasks_reanalyzed, b.rta.tasks_reanalyzed);
  EXPECT_EQ(a.rta.tasks_seeded, b.rta.tasks_seeded);
  EXPECT_EQ(a.rta.tasks_kept, b.rta.tasks_kept);
}

TEST(AdmissionPipeline, SerialAndParallelRunsAreBitIdentical) {
  const std::vector<SessionSpec> specs = batch(12);
  const auto serial = run_sessions(specs, 1);
  const auto parallel4 = run_sessions(specs, 4);
  const auto parallel7 = run_sessions(specs, 7);
  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel4.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_equal(serial[i], parallel4[i]);
    expect_equal(serial[i], parallel7[i]);
  }
}

TEST(AdmissionPipeline, SessionsAreIndependentOfBatchComposition) {
  // A session's result depends only on its own spec — running it alone
  // equals running it inside a larger batch.
  const std::vector<SessionSpec> specs = batch(6);
  const auto in_batch = run_sessions(specs, 3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_equal(in_batch[i], run_session(specs[i]));
  }
}

TEST(AdmissionPipeline, MulticoreBatchesReplayAcrossThreadCounts) {
  std::vector<MulticoreSessionSpec> specs(8);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].churn.requests = 40;
    specs[i].churn.initial_tasks = 4 + static_cast<int>(i % 4);
    specs[i].cores = 2 + static_cast<int>(i % 3);
    specs[i].seed = 0xc0de0000 + i;
  }
  const auto serial = run_multicore_sessions(specs, 1);
  const auto parallel4 = run_multicore_sessions(specs, 4);
  ASSERT_EQ(serial.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(serial[i].decision_digest, parallel4[i].decision_digest) << i;
    EXPECT_EQ(serial[i].final_fingerprint, parallel4[i].final_fingerprint)
        << i;
    EXPECT_EQ(serial[i].requests, parallel4[i].requests);
    EXPECT_EQ(serial[i].rta.tasks_reanalyzed,
              parallel4[i].rta.tasks_reanalyzed)
        << i;
    EXPECT_GT(serial[i].requests, 0u);
  }
}

TEST(AdmissionPipeline, SessionsDoRealWork) {
  const auto results = run_sessions(batch(4), 2);
  for (const SessionResult& r : results) {
    EXPECT_GT(r.requests, 0u);
    EXPECT_GT(r.admitted, 0u);
    EXPECT_EQ(r.requests, r.admitted + r.rejected);
    EXPECT_EQ(r.stats.requests, r.requests);
  }
}

}  // namespace
}  // namespace lpfps::admission
