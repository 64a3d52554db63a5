#include "runner/runner.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/check.h"

namespace lpfps::runner {

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t job_index) {
  // splitmix64 (Steele/Lea/Flood): advance the state by (job_index + 1)
  // golden-gamma increments, then apply the output permutation.
  std::uint64_t z = base_seed + (job_index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t default_job_count() {
  const char* env = std::getenv("LPFPS_JOBS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && errno != ERANGE && parsed > 0) {
      if (static_cast<unsigned long>(parsed) <= kMaxJobCount) {
        return static_cast<std::size_t>(parsed);
      }
      std::fprintf(stderr, "runner: clamping LPFPS_JOBS=%s to %zu\n", env,
                   kMaxJobCount);
      return kMaxJobCount;
    }
    std::fprintf(stderr,
                 "runner: ignoring LPFPS_JOBS=%s (not a positive integer)\n",
                 env);
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_job_count();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> job) {
  LPFPS_CHECK(job != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    LPFPS_CHECK_MSG(!stopping_, "submit() on a stopping ThreadPool");
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain-then-exit: a stopping pool still runs everything queued.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace lpfps::runner
