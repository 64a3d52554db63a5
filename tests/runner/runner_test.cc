#include "runner/runner.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "common/random.h"

namespace lpfps::runner {
namespace {

TEST(DeriveSeed, IsAPureFunctionOfItsArguments) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  EXPECT_EQ(derive_seed(2024, 17), derive_seed(2024, 17));
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
}

TEST(DeriveSeed, ProducesDistinctSeedsAcrossAGrid) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ULL, 1ULL, 2024ULL, ~0ULL}) {
    for (std::uint64_t index = 0; index < 2000; ++index) {
      seen.insert(derive_seed(base, index));
    }
  }
  EXPECT_EQ(seen.size(), 4u * 2000u);  // No collisions on realistic grids.
}

TEST(DeriveSeed, MatchesSplitmix64Reference) {
  // splitmix64 with state = base + (index + 1) * golden gamma.  The
  // published test vector: splitmix64 seeded with 0 outputs
  // 0xe220a8397b1dcdaf first, i.e. state golden-gamma after one bump.
  EXPECT_EQ(derive_seed(0, 0), 0xe220a8397b1dcdafULL);
}

TEST(DefaultJobCount, HonorsTheEnvironmentVariable) {
  ASSERT_EQ(setenv("LPFPS_JOBS", "3", 1), 0);
  EXPECT_EQ(default_job_count(), 3u);
  ASSERT_EQ(setenv("LPFPS_JOBS", "1", 1), 0);
  EXPECT_EQ(default_job_count(), 1u);
  // The cap itself is taken silently; anything above it is clamped to
  // it with one stderr line naming the knob and the value.  Only the
  // count is checked: no thread is started from these values.
  const std::string cap = std::to_string(kMaxJobCount);
  ASSERT_EQ(setenv("LPFPS_JOBS", cap.c_str(), 1), 0);
  testing::internal::CaptureStderr();
  EXPECT_EQ(default_job_count(), kMaxJobCount);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  for (const std::string& huge :
       {std::to_string(kMaxJobCount + 1), std::string("1000000")}) {
    ASSERT_EQ(setenv("LPFPS_JOBS", huge.c_str(), 1), 0);
    testing::internal::CaptureStderr();
    EXPECT_EQ(default_job_count(), kMaxJobCount) << "LPFPS_JOBS=" << huge;
    const std::string warning = testing::internal::GetCapturedStderr();
    EXPECT_NE(warning.find("clamping LPFPS_JOBS=" + huge + " to " + cap),
              std::string::npos)
        << warning;
  }
  // Invalid values fall back to hardware concurrency (>= 1), each with
  // one stderr line naming the knob and the value.
  for (const char* bad : {"0", "-2", "four", "4x", "99999999999999999999"}) {
    ASSERT_EQ(setenv("LPFPS_JOBS", bad, 1), 0);
    testing::internal::CaptureStderr();
    EXPECT_GE(default_job_count(), 1u) << "LPFPS_JOBS=" << bad;
    const std::string warning = testing::internal::GetCapturedStderr();
    EXPECT_NE(warning.find(std::string("ignoring LPFPS_JOBS=") + bad),
              std::string::npos)
        << warning;
  }
  // Empty counts as unset: no warning.
  ASSERT_EQ(setenv("LPFPS_JOBS", "", 1), 0);
  testing::internal::CaptureStderr();
  EXPECT_GE(default_job_count(), 1u);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  ASSERT_EQ(unsetenv("LPFPS_JOBS"), 0);
  EXPECT_GE(default_job_count(), 1u);
}

TEST(RunBatch, ReturnsResultsInJobOrder) {
  const auto results = run_batch(
      100, [](std::size_t i) { return i * i; }, 4);
  ASSERT_EQ(results.size(), 100u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(RunBatch, SerialAndParallelRunsAreBitIdentical) {
  const auto job = [](std::size_t i) {
    Rng rng(derive_seed(7, i));
    double sum = 0.0;
    for (int draw = 0; draw < 100; ++draw) {
      sum += rng.gaussian(0.0, 1.0) * rng.uniform(0.5, 2.0);
    }
    return sum;
  };
  const auto serial = run_batch(64, job, 1);
  const auto parallel = run_batch(64, job, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "job " << i;  // Exact, not NEAR.
  }
}

TEST(RunBatch, PropagatesJobExceptions) {
  const auto batch = [](std::size_t threads) {
    return run_batch(
        32,
        [](std::size_t i) -> int {
          if (i == 17) throw std::runtime_error("job 17 failed");
          return static_cast<int>(i);
        },
        threads);
  };
  EXPECT_THROW(batch(1), std::runtime_error);
  EXPECT_THROW(batch(4), std::runtime_error);
}

TEST(RunBatch, RethrowsTheLowestIndexFailureFirst) {
  // With several failing jobs, the surfaced exception must be the one a
  // serial run would have hit first — part of the determinism contract.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    try {
      run_batch(
          32,
          [](std::size_t i) -> int {
            if (i == 5 || i == 9 || i == 30) {
              throw std::runtime_error("job " + std::to_string(i));
            }
            return 0;
          },
          threads);
      FAIL() << "expected a runtime_error";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "job 5") << threads << " threads";
    }
  }
}

TEST(RunBatch, HandlesZeroJobsAndMoreThreadsThanJobs) {
  EXPECT_TRUE(run_batch(0, [](std::size_t) { return 1; }, 4).empty());
  const auto results = run_batch(
      2, [](std::size_t i) { return static_cast<int>(i); }, 16);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], 0);
  EXPECT_EQ(results[1], 1);
}

TEST(RunBatch, SupportsMoveOnlyResults) {
  const auto results = run_batch(
      8, [](std::size_t i) { return std::make_unique<int>(int(i)); }, 4);
  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(*results[i], static_cast<int>(i));
  }
}

}  // namespace
}  // namespace lpfps::runner
