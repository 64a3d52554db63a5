// Parallel batch-experiment runner.
//
// Every experiment in this repository — the Figure 8 sweeps, the
// baseline landscape, the A6 random-taskset study, partitioned
// multicore — is an embarrassingly parallel loop of independent
// `core::simulate` calls.  This layer fans such loops out over a small
// thread pool while preserving a hard **determinism contract**:
//
//   1. every job's randomness derives from `(base_seed, job_index)`
//      via `derive_seed` (a splitmix64 step), never from shared RNG
//      state, thread identity, or scheduling order;
//   2. `run_batch` returns results indexed by job, and callers reduce
//      them in job order;
//
// so an N-thread run is bit-identical to a serial run of the same
// batch.  `tests/runner/determinism_test.cc` asserts this contract on
// a 50-taskset batch.
//
// A batch of plain simulations goes through fleet::run_fleet_sharded
// (or its audited form, audit::simulate_fleet_sharded), which shards
// the specs over run_batch with one fleet engine per worker;
// run_batch itself serves loops whose jobs are more than one
// simulation (AVR, YDS and static-slowdown comparisons).
//
// Thread-safety note: jobs run concurrently, so everything a job
// touches must be immutable or job-local.  `core::simulate` already
// qualifies (the engine owns its Rng, seeded from EngineOptions), and
// the execution-time models are stateless.
//
// Concurrency defaults to `std::thread::hardware_concurrency()`,
// overridable with the `LPFPS_JOBS` environment variable (re-read on
// every call, so tests and scripts can vary it); `LPFPS_JOBS=1` forces
// the serial path.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace lpfps::runner {

/// Derives the RNG seed for job `job_index` of a batch rooted at
/// `base_seed`: one splitmix64 step on the state
/// `base_seed + (job_index + 1) * golden_gamma`.  A pure function of
/// its arguments — the seed of a job depends on its position in the
/// batch, never on thread count or execution order — and consecutive
/// indices yield statistically independent streams.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t job_index);

/// The most workers `LPFPS_JOBS` can ask for.  A batch never needs more
/// threads than a large host has cores, and each worker is an operating
/// system thread, so a larger value is clamped here instead of being
/// handed to ThreadPool.
inline constexpr std::size_t kMaxJobCount = 256;

/// Worker count used when a caller does not pin one: `LPFPS_JOBS` if
/// set to a positive integer (clamped to kMaxJobCount), else
/// `hardware_concurrency()`, else 1.  Reads the environment on every
/// call; an empty value counts as unset, and any other value it ignores
/// or clamps gets one stderr line.
std::size_t default_job_count();

/// A minimal fixed-size pool: `threads` workers draining a FIFO work
/// queue.  Destruction drains the queue (every submitted job runs)
/// and joins the workers.
class ThreadPool {
 public:
  /// `threads == 0` means `default_job_count()`.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a job.  Jobs must not throw — wrap and capture instead
  /// (`run_batch` shows the pattern); a throwing job terminates.
  void submit(std::function<void()> job);

  /// Blocks until the queue is empty and no worker is mid-job.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< Wakes workers.
  std::condition_variable idle_cv_;  ///< Wakes wait_idle().
  std::size_t active_ = 0;           ///< Jobs currently executing.
  bool stopping_ = false;
};

/// Runs `fn(0) .. fn(job_count - 1)` and returns their results in job
/// order.  `threads == 0` means `default_job_count()`; `threads <= 1`
/// (or a single job) runs serially on the calling thread.  The result
/// vector is identical for every thread count provided `fn` honors the
/// determinism contract (job-local state seeded from the job index).
///
/// If jobs throw, the exception of the *lowest-index* failing job is
/// rethrown after the batch drains — the same exception a serial run
/// would have surfaced first.
template <typename Fn>
auto run_batch(std::size_t job_count, Fn&& fn, std::size_t threads = 0)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using Result = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(!std::is_void_v<Result>,
                "run_batch jobs must return a value; fold side effects "
                "into the result and reduce after the batch");

  if (threads == 0) threads = default_job_count();
  std::vector<std::optional<Result>> slots(job_count);

  if (threads <= 1 || job_count <= 1) {
    for (std::size_t i = 0; i < job_count; ++i) slots[i].emplace(fn(i));
  } else {
    std::vector<std::exception_ptr> errors(job_count);
    {
      ThreadPool pool(std::min(threads, job_count));
      for (std::size_t i = 0; i < job_count; ++i) {
        pool.submit([&slots, &errors, &fn, i] {
          try {
            slots[i].emplace(fn(i));
          } catch (...) {
            errors[i] = std::current_exception();
          }
        });
      }
      pool.wait_idle();
    }
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }

  std::vector<Result> results;
  results.reserve(job_count);
  for (std::optional<Result>& slot : slots) {
    results.push_back(std::move(*slot));
  }
  return results;
}

}  // namespace lpfps::runner
