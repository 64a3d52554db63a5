#include "runner/runner.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

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

}  // namespace lpfps::runner
