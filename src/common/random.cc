#include "common/random.h"

#include <random>

#include "common/check.h"
#include "common/math_utils.h"

namespace lpfps {

// The standard's mersenne_twister_engine ([rand.eng.mers]) with the
// std::mt19937_64 parameters: word size 64, degree n = 312, middle word
// m = 156, separation point r = 31, initialization multiplier
// f = 6364136223846793005.

void Mt19937_64::seed(result_type value) {
  state_[0] = value;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
  index_ = kStateSize;
}

void Mt19937_64::generate_block() {
  constexpr std::size_t kMiddle = 156;
  constexpr result_type kUpperMask = ~result_type{0} << 31;
  constexpr result_type kLowerMask = ~kUpperMask;
  constexpr result_type kTwist = 0xb5026f5aa96619e9ULL;
  // x[k] = x[k + m] ^ twist(upper bits of x[k] | lower bits of x[k + 1]),
  // indices mod n; the loops split where k + m and k + 1 wrap.  The
  // twist applies `a` when y is odd; masking with -(y & 1) instead of
  // branching avoids a mispredict on every other word.
  const auto next = [](result_type upper, result_type lower,
                       result_type middle) {
    const result_type y = (upper & kUpperMask) | (lower & kLowerMask);
    return middle ^ (y >> 1) ^ (kTwist & (result_type{0} - (y & 1)));
  };
  std::size_t k = 0;
  for (; k < kStateSize - kMiddle; ++k) {
    state_[k] = next(state_[k], state_[k + 1], state_[k + kMiddle]);
  }
  for (; k < kStateSize - 1; ++k) {
    state_[k] =
        next(state_[k], state_[k + 1], state_[k + kMiddle - kStateSize]);
  }
  state_[k] = next(state_[k], state_[0], state_[kMiddle - 1]);
  index_ = 0;
}

double Rng::uniform(double lo, double hi) {
  LPFPS_CHECK(lo <= hi);
  if (lo == hi) return lo;
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  LPFPS_CHECK(lo <= hi);
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::gaussian(double mean, double stddev) {
  LPFPS_CHECK(stddev >= 0.0);
  if (stddev == 0.0) return mean;
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::clamped_gaussian(double mean, double stddev, double lo,
                             double hi) {
  LPFPS_CHECK(lo <= hi);
  return clamp(gaussian(mean, stddev), lo, hi);
}

}  // namespace lpfps
