#include "common/math_utils.h"

#include <charconv>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "common/check.h"

namespace lpfps {

std::int64_t gcd64(std::int64_t a, std::int64_t b) {
  LPFPS_CHECK(a >= 0 && b >= 0);
  while (b != 0) {
    const std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::int64_t lcm64(std::int64_t a, std::int64_t b) {
  LPFPS_CHECK(a > 0 && b > 0);
  const std::int64_t g = gcd64(a, b);
  const std::int64_t a_red = a / g;
  if (a_red > std::numeric_limits<std::int64_t>::max() / b) {
    throw std::overflow_error("lcm64: hyperperiod overflows int64");
  }
  return a_red * b;
}

std::int64_t lcm64(const std::vector<std::int64_t>& values) {
  std::int64_t acc = 1;
  for (const std::int64_t v : values) acc = lcm64(acc, v);
  return acc;
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  LPFPS_CHECK(a >= 0 && b > 0);
  return (a + b - 1) / b;
}

double lerp(double a, double b, double t) { return a + t * (b - a); }

double clamp(double v, double lo, double hi) {
  LPFPS_CHECK(lo <= hi);
  if (v < lo) return lo;
  if (v > hi) return hi;
  return v;
}

std::string round_trip_string(double value) {
  char buffer[32];
  const std::to_chars_result written =
      std::to_chars(std::begin(buffer), std::end(buffer), value);
  return std::string(buffer, written.ptr);
}

}  // namespace lpfps
