// Async request pipeline: many admission sessions over the batch
// runner's thread pool.
//
// Each *session* is an independent service instance consuming one churn
// stream; a batch of sessions fans out over runner::run_batch.  The
// determinism contract is inherited wholesale: a session's entire
// behavior is a pure function of its SessionSpec (its stream derives
// every per-request draw from derive_seed(spec.seed, request_index)),
// so an N-worker run returns bit-identical SessionResults to a serial
// run — tests/admission/pipeline_test.cc replays the same batch on 1
// and 4 threads and compares digests.
//
// The decision digest folds each decision's CSV row (decision fields
// only — accounting is excluded, so arms that differ merely in probe
// counts digest equal) through the FNV machinery of core/fingerprint.h.
#pragma once

#include <cstdint>
#include <vector>

#include "admission/service.h"
#include "admission/workload.h"

namespace lpfps::admission {

struct SessionSpec {
  ChurnConfig churn;
  ServiceConfig service;
  std::uint64_t seed = 0;
};

struct SessionResult {
  std::uint64_t requests = 0;  ///< Ops resolved and handled.
  std::uint64_t skipped = 0;   ///< Ops inapplicable to the current state.
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  /// FNV-1a over the concatenated decision CSV rows, in request order.
  std::uint64_t decision_digest = 0;
  /// Fingerprint of the service's final task set.
  std::uint64_t final_fingerprint = 0;
  ServiceStats stats;
  sched::IncrementalRta::Stats rta;
};

/// Runs one session start to finish on the calling thread.
SessionResult run_session(const SessionSpec& spec);

/// Runs every session via runner::run_batch; results in spec order,
/// bit-identical for every thread count (0 = default_job_count()).
std::vector<SessionResult> run_sessions(const std::vector<SessionSpec>& specs,
                                        std::size_t threads = 0);

// ---------------------------------------------------------------------
// Multicore churn sessions: the same abstract streams replayed against
// a multicore::PartitionedAdmission (one incremental RTA per core,
// first-fit placement).  Adds and removes resolve against the *global*
// admitted set — placement is internal — and mutate ops are counted as
// skipped (an in-place parameter change is a single-core concern the
// single-core sessions already cover).  Like the single-core pipeline,
// a session is a pure function of its spec, so N-worker batches are
// bit-identical to serial, and the scratch arm digests equal the
// incremental arm's.
// ---------------------------------------------------------------------

struct MulticoreSessionSpec {
  ChurnConfig churn;
  int cores = 4;
  /// True = reference arm (per-core engines reanalyze from scratch).
  bool scratch = false;
  std::uint64_t seed = 0;
};

struct MulticoreSessionResult {
  std::uint64_t requests = 0;  ///< Ops resolved and handled.
  std::uint64_t skipped = 0;   ///< Inapplicable ops (incl. all mutates).
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  /// FNV-1a over per-request decision records (kind, admitted, chosen
  /// core, post-decision placement fingerprint) — decision fields only,
  /// so the arms digest equal.
  std::uint64_t decision_digest = 0;
  /// PartitionedAdmission::fingerprint() of the final placement.
  std::uint64_t final_fingerprint = 0;
  sched::IncrementalRta::Stats rta;  ///< Summed over cores.
};

MulticoreSessionResult run_multicore_session(const MulticoreSessionSpec& spec);

std::vector<MulticoreSessionResult> run_multicore_sessions(
    const std::vector<MulticoreSessionSpec>& specs, std::size_t threads = 0);

}  // namespace lpfps::admission
