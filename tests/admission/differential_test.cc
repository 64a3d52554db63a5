// The admission differential property: the incremental arm (seeded RTA
// resumes, hinted frequency walk, per-task headroom, closed-form bound)
// and the reference arm (from-scratch RTA, binary-search frequency,
// whole-set headroom probes) must produce *bit-identical* decisions —
// admitted flags, minimum safe frequencies, response times,
// fingerprints, and the exact CSV rows — across hundreds of random
// add/remove/mutate sequences.  Accounting (probe counts, tasks
// reanalyzed) is allowed — and expected — to differ; it is excluded
// from the row by design.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "admission/pipeline.h"
#include "admission/service.h"
#include "admission/workload.h"
#include "io/admission_io.h"
#include "wcet/scaling.h"

namespace lpfps::admission {
namespace {

constexpr int kSequences = 200;
constexpr int kRequestsPerSequence = 24;

ChurnConfig churn_for(int sequence) {
  ChurnConfig churn;
  churn.requests = kRequestsPerSequence;
  // Vary the landscape so sequences exercise different admit/reject
  // mixes: initial load from light to near-saturated.
  churn.initial_tasks = 3 + sequence % 5;
  churn.initial_utilization = 0.3 + 0.1 * (sequence % 5);
  churn.task_utilization_max = 0.1 + 0.05 * (sequence % 4);
  // A third of the landscape has no relative mutates, a third some, a
  // third mostly — so the stationary fast path and direction-known
  // retention get exercised alongside the classic redraw churn.
  churn.relative_mutates = 0.45 * (sequence % 3);
  return churn;
}

wcet::FrequencyScalingModel scaling_for(int sequence) {
  // Ideal, lightly and heavily memory-bound models all obey the
  // contract; the bound is part of what must stay bit-identical.
  return wcet::FrequencyScalingModel{0.3 * (sequence % 4) / 3.0};
}

TEST(AdmissionDifferential, IncrementalEqualsFromScratchBitwise) {
  std::int64_t total_requests = 0;
  std::int64_t total_admitted = 0;
  std::int64_t total_rejected = 0;
  std::uint64_t total_stationary = 0;

  for (int sequence = 0; sequence < kSequences; ++sequence) {
    const ChurnConfig churn = churn_for(sequence);
    const ChurnStream stream =
        make_churn_stream(churn, 9000 + static_cast<std::uint64_t>(sequence));

    ServiceConfig fast;  // The production arm.
    fast.incremental = true;
    fast.scaling = scaling_for(sequence);
    ServiceConfig reference = fast;  // From scratch.
    reference.incremental = false;

    AdmissionService arm_fast(stream.initial, fast);
    AdmissionService arm_reference(stream.initial, reference);

    int request_index = 0;
    for (const ChurnOp& op : stream.ops) {
      // Resolution is a pure function of (op, state); the arms' states
      // must agree, so resolving against any arm yields the same
      // request.  The fingerprint assert below enforces the premise.
      const std::optional<Request> request = resolve(op, arm_fast.tasks());
      if (!request.has_value()) continue;
      const Decision d_fast = arm_fast.handle(*request);
      const Decision d_reference = arm_reference.handle(*request);

      ASSERT_EQ(io::admission_csv_row(d_fast),
                io::admission_csv_row(d_reference))
          << "seq " << sequence << " request " << request_index;

      // Bitwise decision fields (the CSV compare already covers these
      // through %.17g; assert the doubles directly as well).
      ASSERT_EQ(d_fast.min_safe_mhz, d_reference.min_safe_mhz);
      ASSERT_EQ(d_fast.min_safe_ratio, d_reference.min_safe_ratio);
      ASSERT_EQ(d_fast.utilization, d_reference.utilization);
      // The sensitivity answer is a decision field: bitwise across the
      // arms, whether per-task searched or whole-set probed.
      ASSERT_EQ(d_fast.wcet_headroom, d_reference.wcet_headroom)
          << "seq " << sequence << " request " << request_index;

      // Full state equality: fingerprints and response-time vectors.
      ASSERT_EQ(arm_fast.fingerprint(), arm_reference.fingerprint());
      const auto& r_fast = arm_fast.response_times();
      const auto& r_reference = arm_reference.response_times();
      ASSERT_EQ(r_fast.size(), r_reference.size());
      for (std::size_t i = 0; i < r_fast.size(); ++i) {
        ASSERT_EQ(r_fast[i].has_value(), r_reference[i].has_value())
            << "seq " << sequence << " request " << request_index
            << " task " << i;
        if (r_fast[i].has_value()) {
          ASSERT_EQ(*r_fast[i], *r_reference[i])
              << "seq " << sequence << " request " << request_index
              << " task " << i;
        }
      }

      ++request_index;
      ++total_requests;
      total_admitted += d_fast.admitted ? 1 : 0;
      total_rejected += d_fast.admitted ? 0 : 1;
    }
    total_stationary += arm_fast.stats().stationary_hits;

    // The fast arm must genuinely have done less analysis work.
    EXPECT_LE(arm_fast.rta_stats().tasks_reanalyzed,
              arm_reference.rta_stats().tasks_reanalyzed)
        << "seq " << sequence;
  }

  // The property is vacuous unless the workload actually exercised
  // both outcomes and the stationary fast path.
  EXPECT_GT(total_requests, kSequences * kRequestsPerSequence / 2);
  EXPECT_GT(total_admitted, 0);
  EXPECT_GT(total_rejected, 0);
  EXPECT_GT(total_stationary, 0u);
}

TEST(AdmissionDifferential, SessionDigestsAgreeAcrossArms) {
  // The pipeline-level restatement: whole-session decision digests are
  // equal between arms, so the bench's incremental-vs-scratch speedup
  // comparison is comparing like with like.
  for (int sequence = 0; sequence < 20; ++sequence) {
    SessionSpec fast;
    fast.churn = churn_for(sequence);
    fast.seed = 7000 + static_cast<std::uint64_t>(sequence);
    fast.service.scaling = scaling_for(sequence);
    SessionSpec reference = fast;
    reference.service.incremental = false;

    const SessionResult a = run_session(fast);
    const SessionResult b = run_session(reference);
    ASSERT_EQ(a.decision_digest, b.decision_digest) << "seq " << sequence;
    ASSERT_EQ(a.final_fingerprint, b.final_fingerprint) << "seq " << sequence;
    ASSERT_EQ(a.requests, b.requests);
    ASSERT_EQ(a.admitted, b.admitted);
    ASSERT_EQ(a.rejected, b.rejected);
    ASSERT_EQ(a.skipped, b.skipped);
  }
}

TEST(AdmissionDifferential, MulticoreSessionsAgreeAcrossArmsAndWorkers) {
  // The multicore restatement, at full differential scale: the per-core
  // incremental engines and the from-scratch reference must admit the
  // same tasks to the same cores (equal decision digests and placement
  // fingerprints) across 200 random sequences — and a 4-worker batch
  // must be bit-identical to the serial one.
  std::vector<MulticoreSessionSpec> fast(kSequences);
  for (int sequence = 0; sequence < kSequences; ++sequence) {
    fast[static_cast<std::size_t>(sequence)].churn = churn_for(sequence);
    fast[static_cast<std::size_t>(sequence)].cores = 2 + sequence % 3;
    fast[static_cast<std::size_t>(sequence)].seed =
        11000 + static_cast<std::uint64_t>(sequence);
  }
  std::vector<MulticoreSessionSpec> scratch = fast;
  for (MulticoreSessionSpec& spec : scratch) spec.scratch = true;

  const std::vector<MulticoreSessionResult> serial =
      run_multicore_sessions(fast, 1);
  const std::vector<MulticoreSessionResult> workers4 =
      run_multicore_sessions(fast, 4);
  const std::vector<MulticoreSessionResult> reference =
      run_multicore_sessions(scratch, 1);

  std::uint64_t total_admitted = 0;
  std::uint64_t total_rejected = 0;
  ASSERT_EQ(serial.size(), fast.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].decision_digest, workers4[i].decision_digest) << i;
    ASSERT_EQ(serial[i].final_fingerprint, workers4[i].final_fingerprint)
        << i;
    ASSERT_EQ(serial[i].decision_digest, reference[i].decision_digest) << i;
    ASSERT_EQ(serial[i].final_fingerprint, reference[i].final_fingerprint)
        << i;
    ASSERT_EQ(serial[i].requests, reference[i].requests);
    ASSERT_EQ(serial[i].admitted, reference[i].admitted);
    ASSERT_EQ(serial[i].rejected, reference[i].rejected);
    ASSERT_EQ(serial[i].skipped, reference[i].skipped);
    // The incremental arm never analyzes more than the reference.
    EXPECT_LE(serial[i].rta.tasks_reanalyzed,
              reference[i].rta.tasks_reanalyzed)
        << i;
    total_admitted += serial[i].admitted;
    total_rejected += serial[i].rejected;
  }
  EXPECT_GT(total_admitted, 0u);
  EXPECT_GT(total_rejected, 0u);
}

}  // namespace
}  // namespace lpfps::admission
