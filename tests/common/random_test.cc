#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "runner/runner.h"

namespace lpfps {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(3.0, 9.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 9.0);
  }
}

TEST(Rng, UniformDegenerateRange) {
  Rng rng(7);
  EXPECT_DOUBLE_EQ(rng.uniform(5.0, 5.0), 5.0);
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    saw_lo = saw_lo || v == 1;
    saw_hi = saw_hi || v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianZeroSigmaIsMean) {
  Rng rng(3);
  EXPECT_DOUBLE_EQ(rng.gaussian(12.5, 0.0), 12.5);
}

TEST(Rng, GaussianMomentsApproximate) {
  Rng rng(13);
  const int n = 50'000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gaussian(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, ClampedGaussianRespectsBounds) {
  Rng rng(17);
  for (int i = 0; i < 10'000; ++i) {
    // Wide sigma so that clamping actually engages.
    const double v = rng.clamped_gaussian(5.0, 10.0, 2.0, 8.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LE(v, 8.0);
  }
}

// ---- Engine identity: Mt19937_64 is bitwise std::mt19937_64. ----------

std::vector<std::uint64_t> identity_seeds() {
  return {0,
          1,
          5489,
          std::numeric_limits<std::uint64_t>::max(),
          runner::derive_seed(2024, 0),
          runner::derive_seed(2024, 1),
          runner::derive_seed(7, 431)};
}

/// Raw draws spanning four block generations (at 0, 312, 624, 936).
constexpr int kIdentityDraws = 1000;

TEST(Mt19937_64, RawStreamMatchesStdEngine) {
  for (const std::uint64_t seed : identity_seeds()) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < kIdentityDraws; ++i) {
      ASSERT_EQ(engine(), reference()) << "seed " << seed << " draw " << i;
    }
    // Reseeding mid-block matches std::mt19937_64::seed too.
    engine.seed(seed ^ 0x5a5a5a5aULL);
    reference.seed(seed ^ 0x5a5a5a5aULL);
    for (int i = 0; i < kIdentityDraws; ++i) {
      ASSERT_EQ(engine(), reference()) << "reseed " << seed << " draw " << i;
    }
  }
}

TEST(Mt19937_64, TenThousandthDefaultOutputIsTheStandardValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 shall produce 9981545732273789042.
  Mt19937_64 engine;
  for (int i = 1; i < 10'000; ++i) (void)engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

/// Bitwise double equality (EXPECT_EQ would let -0.0 match +0.0).
void expect_same_bits(double actual, double expected, const char* what,
                      std::uint64_t seed, int draw) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << what << " seed " << seed << " draw " << draw << ": " << actual
      << " vs " << expected;
}

TEST(Rng, EveryMethodMatchesStdDistributionsOnStdEngine) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const std::uint64_t seed : identity_seeds()) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    // Each Rng method builds its std:: distribution per call, so the
    // reference does the same; interleaving the methods crosses block
    // boundaries at varying offsets.
    for (int i = 0; i < 400; ++i) {
      expect_same_bits(
          rng.uniform(-3.5, 12.25),
          std::uniform_real_distribution<double>(-3.5, 12.25)(reference),
          "uniform", seed, i);
      EXPECT_EQ(rng.uniform_int(1, 6),
                std::uniform_int_distribution<std::int64_t>(1, 6)(reference))
          << "uniform_int seed " << seed << " draw " << i;
      EXPECT_EQ(rng.uniform_int(kMin, kMax),
                std::uniform_int_distribution<std::int64_t>(kMin,
                                                            kMax)(reference))
          << "uniform_int full range seed " << seed << " draw " << i;
      expect_same_bits(
          rng.gaussian(10.0, 2.0),
          std::normal_distribution<double>(10.0, 2.0)(reference), "gaussian",
          seed, i);
      const double clamped = std::clamp(
          std::normal_distribution<double>(5.0, 10.0)(reference), 2.0, 8.0);
      expect_same_bits(rng.clamped_gaussian(5.0, 10.0, 2.0, 8.0), clamped,
                       "clamped_gaussian", seed, i);
    }
  }
}

}  // namespace
}  // namespace lpfps
