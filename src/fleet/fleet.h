// Fleet engine: the one way a batch of simulations runs.
//
// Every sweep in this repository — random tasksets, fault magnitudes,
// policy ablations, the Fig. 8 BCET grids — is a loop of *independent*
// simulations, each tiny: a 5-task UUniFast set over a few hyperperiods
// costs tens of microseconds.  The fleet engine runs such a batch:
//
//   * simulations are added up front as SimSpecs; add() only stores the
//     spec;
//   * run_all() runs the specs one after another, each to completion,
//     on a SimState of its own — its constructor validates the spec,
//     binds it and seeds the generator once;
//   * an optional per-result callback runs on the same thread right
//     after each simulation finishes — the audit harness uses it to
//     audit each trace while it is still hot and drop it before the
//     next spec runs (audit::simulate_fleet_sharded).
//
// run_fleet_sharded() fans a spec list out across runner::run_batch
// workers, one FleetEngine per worker.
//
// **Bit-identity contract.**  Each simulation executes the exact same
// begin()/step().../finish() sequence `core::simulate` executes — the
// same code, in SimState, on a freshly constructed state — so every
// result (CSV row, trace, audit report) is bit-identical to a serial
// `core::simulate` of the same spec, at any worker count.  The
// differential suite in tests/fleet/ pins this across policies,
// workloads, faulted, long WCET and weakly-hard sims run back to back;
// docs/FLEET.md documents the argument and the measured cost.
//
// **Eligibility.**  Any spec `core::simulate` accepts is eligible —
// faults, containment, jitter, traces all ride along.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/engine.h"
#include "core/policy.h"
#include "core/result.h"
#include "exec/exec_model.h"
#include "power/processor.h"
#include "sched/task_set.h"

namespace lpfps::fleet {

/// One simulation to run: the same four components core::simulate
/// takes, owned by value so a spec outlives the SimState that borrows
/// it.
struct SimSpec {
  sched::TaskSet tasks;
  power::ProcessorConfig processor;
  core::SchedulerPolicy policy;
  exec::ExecModelPtr exec_model;  ///< May be null (WCET execution).
  core::EngineOptions options;
};

/// No settings: the fleet has exactly one way to run.  The empty struct
/// survives only as the `{}` argument existing callers pass to
/// run_fleet_sharded and audit::simulate_fleet_sharded.
struct FleetOptions {};

/// Execution counters for one run_all() call — the observability hooks
/// the bench and docs/FLEET.md report.
struct FleetStats {
  std::size_t sims = 0;
  /// Always 0: every simulation binds a fresh SimState.  Kept only
  /// because the perfbench harness (perfbench/src/) still reads it.
  std::size_t lane_rebinds = 0;
  std::size_t rounds = 0;   ///< Simulations run to completion.
  std::int64_t steps = 0;   ///< Engine steps across all sims.
  std::int64_t events = 0;  ///< Scheduler invocations across all sims.
};

/// Called on the running thread right after spec `index` finishes, with
/// the spec as it ran and its result (which the callback may edit, e.g.
/// drop the trace).  A throw counts as that spec's failure.
using ResultCallback = std::function<void(
    std::size_t index, const SimSpec& spec, core::SimulationResult& result)>;

/// The per-thread engine.  Add every spec, then run; results come back
/// in add order.  Not thread-safe — one FleetEngine per thread
/// (run_fleet_sharded fans out *above* this layer).
class FleetEngine {
 public:
  /// Stores one simulation; returns its index (== result slot).  The
  /// spec is checked when run_all() runs it, not here.
  std::size_t add(SimSpec spec);

  std::size_t size() const { return specs_.size(); }

  /// Runs every added spec to completion, in add order, each on a fresh
  /// SimState, calling `on_result` (when set) after each.  The first
  /// failing spec — it failed validation, or its simulation or its
  /// callback threw — aborts the run with the original exception; being
  /// first, it is the lowest-index failure.  Stats are overwritten per
  /// call; calling again re-runs the same specs and — determinism
  /// contract — returns identical results.
  std::vector<core::SimulationResult> run_all(
      const ResultCallback& on_result = {});

  /// Counters of the most recent run_all() call.
  const FleetStats& stats() const { return stats_; }

 private:
  std::vector<SimSpec> specs_;
  FleetStats stats_;
};

/// Runs a batch: partitions `specs` positionally into contiguous
/// shards, one per `runner::run_batch` worker, and runs one
/// FleetEngine per worker, calling `on_result` on that worker after
/// each simulation with the spec's index in `specs`.  Shard boundaries
/// are a pure function of (spec count, worker count) and every spec
/// carries its own seed, so results — returned in spec order — are
/// byte-identical for any worker count.  A failure (simulation or
/// callback) surfaces as the lowest-spec-index exception with its
/// original type: contiguous ascending shards make the lowest failing
/// shard's first failure the global one.  `threads == 0` means
/// runner::default_job_count() (LPFPS_JOBS); one shard runs on the
/// calling thread.
std::vector<core::SimulationResult> run_fleet_sharded(
    std::vector<SimSpec> specs, const FleetOptions& options = {},
    std::size_t threads = 0, const ResultCallback& on_result = {});

}  // namespace lpfps::fleet
