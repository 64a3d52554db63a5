// Composite Simpson's rule, the reference formulation for ramp energy.
//
// power::PowerModel::ramp_energy evaluates exactly this sum — the same
// abscissae a + h * i, the same weights and the same summation order —
// over all its points at once; tests/power/ramp_energy_pin_test.cc pins
// the two bit for bit, and tests/common/math_utils_test.cc checks that
// the reference is Simpson's rule.
#pragma once

#include <stdexcept>

namespace lpfps {

/// Integrates f over [a, b] with composite Simpson's rule using `steps`
/// subintervals (rounded up to an even count, minimum 2).
template <typename F>
double integrate_simpson(const F& f, double a, double b, int steps) {
  if (steps <= 0) throw std::logic_error("integrate_simpson: steps <= 0");
  if (a == b) return 0.0;
  int n = steps;
  if (n % 2 != 0) ++n;
  if (n < 2) n = 2;
  const double h = (b - a) / n;
  double sum = f(a) + f(b);
  for (int i = 1; i < n; ++i) {
    const double x = a + h * i;
    sum += f(x) * ((i % 2 == 0) ? 2.0 : 4.0);
  }
  return sum * h / 3.0;
}

}  // namespace lpfps
