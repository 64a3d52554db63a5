// Batched structure-of-arrays fleet engine.
//
// Every sweep in this repository — random tasksets, fault magnitudes,
// policy ablations — is a loop of *independent* simulations, each tiny:
// a 5-task UUniFast set over a few hyperperiods costs a handful of
// microseconds, of which a large fraction is per-sim fixed setup (the
// Engine's task-set/processor/policy copies, half a dozen vector
// allocations for queues, job tables and per-task totals, power-model
// construction).  The fleet engine amortizes that fixed cost away:
//
//   * simulations are added up front as SimSpecs and partitioned into
//     batches of `batch_width`;
//   * each batch binds onto a pool of reusable SimState *lanes* —
//     rebinding a lane (SimState::reset) reuses every buffer the
//     previous sim allocated, so steady-state batches allocate nothing
//     per sim;
//   * hot per-lane scalars (clock, done flag, CPU mode, speed ratio,
//     event count, energy) are mirrored in contiguous arrays — the
//     structure-of-arrays view — and each lockstep round performs a
//     next-event-time reduction over the clock array (the *frontier*),
//     then advances exactly the lanes inside the window
//     [frontier, frontier + stride] by whole engine steps;
//   * within a batch, lanes are scheduled in cache-sized *blocks* of
//     `lane_block` lanes (default 64 — the measured sweet spot, see
//     docs/FLEET.md): each block's lockstep loop runs to completion
//     before the next block binds, so the live working set — lanes,
//     specs, SoA mirror slices — stays cache-resident at any batch
//     width instead of streaming from memory past ~64 live lanes.
//
// **Bit-identity contract.**  A lane executes the exact same
// begin()/step().../finish() sequence `core::Engine::run` executes —
// the same code, in SimState — and simulations are independent, so the
// interleaving order across lanes cannot influence any per-sim value.
// Every result (CSV row, coalesced trace, audit report) is therefore
// bit-identical to a serial `core::simulate` of the same spec.  The
// stride-invariance argument extends to *block-order* invariance: a
// block is just a subset of independent lanes, so any block size and
// any block execution order yield identical results.  The differential
// suite in tests/fleet/ pins this across batch widths, strides, block
// sizes and block orders, workloads, policies, faulted sims and
// cycle-eligible sims; docs/FLEET.md documents the argument and the
// measured scaling.
//
// **Batch width 1** is defined as the *unbatched serial reference*: the
// fleet runs each sim through `core::simulate` exactly like today's
// sweeps do (fresh Engine, fresh buffers, full fixed cost).  The
// batch-width scaling series in bench_kernel_throughput therefore
// measures batching against the status quo, not against a strawman.
//
// **Eligibility.**  Any spec `core::simulate` accepts is eligible —
// faults, containment, jitter, cycle detection, traces all ride along
// (bit-identity holds because the per-sim code is shared, not because
// features are excluded).  Two practical caveats: specs sharing one
// exec::TraceDrivenModel instance must not be batched (mutable replay
// cursors — same rule as the parallel runner), and EngineOptions
// invocation hooks fire interleaved across lanes (per-lane order is
// unchanged; hooks that assume global time monotonicity across *sims*
// would be confused).  The runner may still fan batches out across
// threads; the fleet is the within-thread layer below it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "core/policy.h"
#include "core/result.h"
#include "exec/exec_model.h"
#include "power/processor.h"
#include "runner/runner.h"
#include "sched/task_set.h"

namespace lpfps::core {
class SimState;
}  // namespace lpfps::core

namespace lpfps::fleet {

/// One simulation to run: the same four components core::simulate
/// takes, owned by value so a spec outlives the lane that borrows it.
struct SimSpec {
  sched::TaskSet tasks;
  power::ProcessorConfig processor;
  core::SchedulerPolicy policy;
  exec::ExecModelPtr exec_model;  ///< May be null (WCET execution).
  core::EngineOptions options;
};

struct FleetOptions {
  /// Lanes advanced in lockstep per batch.  1 (or 0) selects the
  /// unbatched serial reference path (see file comment).
  std::size_t batch_width = 256;
  /// Lockstep window length in simulated microseconds: each round, the
  /// lanes within `stride` of the frontier (the minimum lane clock)
  /// advance past the window before the next reduction.  <= 0 picks
  /// 1/16 of the shortest horizon in the block.  Any positive value
  /// yields identical results (the differential suite asserts stride
  /// invariance); it only tunes how often the reduction runs.
  Time stride = 0.0;
  /// Lane-block size: a batch is scheduled as consecutive blocks of
  /// this many lanes, each block's lockstep loop run to completion
  /// before the next block binds, keeping the live working set
  /// cache-resident at any batch width.  0 disables blocking (the
  /// whole batch is one block — the pre-blocking behavior).  Any value
  /// yields identical results (block-size/block-order invariance, see
  /// file comment); it only tunes cache residency.
  std::size_t lane_block = 64;
  /// Runs a batch's blocks highest-index-first instead of in add
  /// order.  A verification knob: the differential suite flips it to
  /// pin block-order invariance; there is no performance reason to.
  bool reverse_block_order = false;
};

/// Execution counters for one run_* call — the observability hooks the
/// bench and docs/FLEET.md report.
struct FleetStats {
  std::size_t sims = 0;
  std::size_t batches = 0;
  std::size_t blocks = 0;              ///< Lane blocks run to completion.
  std::size_t lane_constructions = 0;  ///< Fresh SimState allocations.
  std::size_t lane_rebinds = 0;        ///< Buffer-reusing resets.
  std::size_t rounds = 0;              ///< Lockstep reduction rounds.
  std::int64_t steps = 0;              ///< Engine steps across all lanes.
  std::int64_t events = 0;  ///< Scheduler invocations across all sims.
};

/// The batch engine.  Add every spec, then run; results come back in
/// add order.  Not thread-safe — one FleetEngine per thread (the
/// runner's run_batch fans out *above* this layer).
class FleetEngine {
 public:
  explicit FleetEngine(FleetOptions options = {});
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Registers one simulation; returns its index (== result slot).
  std::size_t add(SimSpec spec);

  std::size_t size() const { return specs_.size(); }

  /// Runs every added spec and returns results in add order.  A
  /// throwing sim aborts the run with the exception of the
  /// lowest-index failing sim (run_batch semantics).  Stats are
  /// overwritten per call; calling again re-runs the same specs and —
  /// determinism contract — returns identical results.
  std::vector<core::SimulationResult> run_all();

  /// run_all with per-sim fault isolation: a throwing sim yields a
  /// JobOutcome carrying its error text instead of aborting the batch
  /// (the fleet twin of runner::run_batch_isolated).  Surviving lanes
  /// are unaffected — simulations share no state.
  std::vector<runner::JobOutcome<core::SimulationResult>> run_outcomes();

  /// Counters of the most recent run_* call.
  const FleetStats& stats() const { return stats_; }

  /// Moves out the per-spec exception_ptrs of the most recent
  /// run_outcomes() call (null for specs that succeeded).  The sharded
  /// runner uses this to rethrow the lowest-spec-index failure with
  /// its original type after a fan-out, matching run_all semantics.
  std::vector<std::exception_ptr> take_errors() { return std::move(errors_); }

 private:
  /// Runs specs [first, last) as consecutive lane blocks of
  /// options_.lane_block; outcomes land in outcomes_[first..last).
  void run_batch_lockstep(std::size_t first, std::size_t last);
  /// Runs one lane block [first, last) — bind onto the lane pool, then
  /// the lockstep frontier loop to completion.
  void run_block_lockstep(std::size_t first, std::size_t last);
  /// The width<=1 reference path: core::simulate per spec.
  void run_batch_serial(std::size_t first, std::size_t last);

  FleetOptions options_;
  std::vector<SimSpec> specs_;

  // Per-spec preparation computed once at add() time (SimState::prepare):
  // the validation verdict and the cycle-eligibility probe are pure
  // functions of the immutable spec, so rebinding lanes skip both.
  // Stored as SoA columns to keep SimState incomplete here.  A spec
  // whose validation failed carries its exception and never binds a
  // lane; its outcome reports the same error begin() would have thrown.
  std::vector<std::int64_t> prep_hyperperiod_;  ///< 0 = cycle-ineligible.
  std::vector<std::exception_ptr> prep_errors_;
  /// Warmed RNG state per spec (Rng::warmed_engine of options.seed,
  /// built once by add()): every lane bind restores it by copy, which
  /// replays the seeded stream bit-identically without redoing the seed
  /// expansion and first-block generation.  A re-run of the same specs
  /// (run_all() again) thus pays a 2.5 KB copy per sim, not a reseed.
  std::vector<Mt19937_64> prep_rng_;

  // Lane pool: lane i hosts sim (block_first + i) of the current lane
  // block, so the pool (and the mirrors below) never grow past
  // lane_block lanes regardless of batch width; unique_ptr keeps
  // SimState incomplete in this header.
  std::vector<std::unique_ptr<core::SimState>> lanes_;

  // Structure-of-arrays mirrors of the hot lane scalars, refreshed
  // after every advance.  Indexed by lane, sized to the current block.
  std::vector<Time> lane_clock_;
  std::vector<std::uint8_t> lane_done_;  ///< finished or errored.
  std::vector<std::uint8_t> lane_mode_;  ///< sim::ProcessorMode.
  std::vector<Ratio> lane_ratio_;
  std::vector<Energy> lane_energy_;
  std::vector<std::int64_t> lane_events_;

  // Per-sim outcome staging (exception_ptr preserves the original
  // exception type for run_all's rethrow).
  std::vector<runner::JobOutcome<core::SimulationResult>> outcomes_;
  std::vector<std::exception_ptr> errors_;

  FleetStats stats_;
};

/// True iff the LPFPS_FLEET environment variable opts the process into
/// fleet-routed sweeps (set and not "0"/"off"/"false"; re-read per call
/// so tests can toggle it).  Benches use this to switch their batch
/// loops onto the fleet path with byte-identical output.
bool enabled();

/// One-call convenience: run `specs` through a FleetEngine.
std::vector<core::SimulationResult> run_fleet(std::vector<SimSpec> specs,
                                              const FleetOptions& options = {});

/// run_fleet with per-sim fault isolation (JobOutcome per spec).
std::vector<runner::JobOutcome<core::SimulationResult>> run_fleet_isolated(
    std::vector<SimSpec> specs, const FleetOptions& options = {});

/// Sharded fleet: partitions `specs` positionally into contiguous
/// shards, one per `runner::ThreadPool` worker, and runs one
/// FleetEngine per worker.  Because every spec carries its own seed
/// (the PR 1 positional-seed contract) and shard boundaries are a pure
/// function of (spec count, worker count), N-worker output is
/// byte-identical to a serial fleet run of the same specs — results
/// come back in spec order, and a failure surfaces as the
/// lowest-spec-index exception exactly like run_fleet (contiguous
/// ascending shards make the lowest failing shard's lowest failure the
/// global one).  `threads == 0` means runner::default_job_count()
/// (LPFPS_JOBS); `threads <= 1` degrades to run_fleet on the calling
/// thread.
std::vector<core::SimulationResult> run_fleet_sharded(
    std::vector<SimSpec> specs, const FleetOptions& options = {},
    std::size_t threads = 0);

/// run_fleet_sharded with per-sim fault isolation (JobOutcome per
/// spec, runner::run_batch_isolated semantics).
std::vector<runner::JobOutcome<core::SimulationResult>>
run_fleet_sharded_isolated(std::vector<SimSpec> specs,
                           const FleetOptions& options = {},
                           std::size_t threads = 0);

}  // namespace lpfps::fleet
