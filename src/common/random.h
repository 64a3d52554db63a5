// Seeded random number generation.
//
// Every stochastic component of the library (execution-time models, the
// UUniFast task-set generator) draws from an explicitly seeded Rng so that
// simulations, tests, and benches are reproducible run-to-run.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace lpfps {

/// MT19937-64 with the algorithm and constants the C++ standard fixes for
/// std::mt19937_64 ([rand.predef]): for every seed the output stream is
/// bitwise the same, so std:: distributions driven by it draw the same
/// values.  It exists for speed: its block generation applies the twist
/// through a mask instead of a branch, so a raw draw costs 3.2-3.8 ns
/// against libstdc++'s 8.6-10.7 ns, and a seed plus the first block
/// about 1 us against 2.6-2.8 us — paid once by every simulation, which
/// seeds its own generator (docs/PERFORMANCE.md, "Why a simulation binds
/// with nothing precomputed").
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;
  static constexpr result_type kDefaultSeed = 5489u;

  Mt19937_64() : Mt19937_64(kDefaultSeed) {}
  explicit Mt19937_64(result_type value) { seed(value); }

  /// constexpr like the standard engine's: std:: distributions choose
  /// their sampling algorithm from the range at compile time.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Expands `value` over the whole state, as std::mt19937_64::seed
  /// does.  Like the standard engine, the first block of output is
  /// generated lazily, by the first draw.
  void seed(result_type value);

  result_type operator()() {
    if (index_ >= kStateSize) generate_block();
    result_type z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  /// Twists the whole state into the next block and rewinds the cursor.
  void generate_block();

  std::array<result_type, kStateSize> state_{};
  std::size_t index_ = kStateSize;
};

/// A thin, explicitly seeded wrapper over an MT19937-64 engine.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Normal (Gaussian) deviate with the given mean and standard deviation.
  /// stddev == 0 returns mean exactly.
  double gaussian(double mean, double stddev);

  /// Gaussian deviate clamped into [lo, hi].  This is the paper's
  /// execution-time construction (eqs. (4)-(5) plus the clamping step
  /// described in footnote 5).
  double clamped_gaussian(double mean, double stddev, double lo, double hi);

 private:
  Mt19937_64 engine_;
};

}  // namespace lpfps
