// Small integer / numeric helpers shared across the library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lpfps {

/// Greatest common divisor of two non-negative integers.
std::int64_t gcd64(std::int64_t a, std::int64_t b);

/// Least common multiple; throws std::overflow_error if the result would
/// not fit in int64 (hyperperiods of mutually-prime periods explode — the
/// paper itself notes this as the weakness of static LCM-based schedules).
std::int64_t lcm64(std::int64_t a, std::int64_t b);

/// LCM of a list (empty list -> 1).
std::int64_t lcm64(const std::vector<std::int64_t>& values);

/// ceil(a / b) for positive integers.
std::int64_t ceil_div(std::int64_t a, std::int64_t b);

/// Linear interpolation a + t * (b - a).
double lerp(double a, double b, double t);

/// Clamps v into [lo, hi] (precondition: lo <= hi).
double clamp(double v, double lo, double hi);

/// `value` in its shortest round-trip form (2.5e-07, 1e+300, nan, inf),
/// so an input error names exactly the number it rejected.
std::string round_trip_string(double value);

}  // namespace lpfps
