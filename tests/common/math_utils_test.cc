#include "common/math_utils.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "support/simpson.h"

namespace lpfps {
namespace {

TEST(Gcd, BasicCases) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(7, 13), 1);
  EXPECT_EQ(gcd64(0, 5), 5);
  EXPECT_EQ(gcd64(5, 0), 5);
  EXPECT_EQ(gcd64(100, 100), 100);
}

TEST(Lcm, BasicCases) {
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(50, 80), 400);
  EXPECT_EQ(lcm64(50, 100), 100);
}

TEST(Lcm, PaperExampleHyperperiod) {
  // Table 1 periods {50, 80, 100} -> LCM 400.
  EXPECT_EQ(lcm64({50, 80, 100}), 400);
}

TEST(Lcm, InsHyperperiod) {
  EXPECT_EQ(
      lcm64({2'500, 40'000, 625'000, 1'000'000, 1'250'000, 1'000'000}),
      5'000'000);
}

TEST(Lcm, EmptyListIsOne) { EXPECT_EQ(lcm64({}), 1); }

TEST(Lcm, OverflowThrows) {
  // Two large coprime numbers whose product exceeds int64.
  const std::int64_t a = 4'000'000'007;
  const std::int64_t b = 4'000'000'009;
  EXPECT_THROW(lcm64(a, b), std::overflow_error);
}

TEST(CeilDiv, Rounding) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 3), 0);
  EXPECT_EQ(ceil_div(1, 100), 1);
}

TEST(Lerp, Endpoints) {
  EXPECT_DOUBLE_EQ(lerp(2.0, 10.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 10.0, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 10.0, 0.5), 6.0);
}

TEST(Clamp, Basic) {
  EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(clamp(-1.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(11.0, 0.0, 10.0), 10.0);
  EXPECT_THROW(clamp(0.0, 2.0, 1.0), std::logic_error);
}

TEST(Simpson, ExactForCubics) {
  // Simpson's rule integrates polynomials up to degree 3 exactly.
  const auto cubic = [](double x) { return x * x * x - 2 * x + 1; };
  const double result = integrate_simpson(cubic, 0.0, 2.0, 2);
  const double exact = 4.0 - 4.0 + 2.0;  // x^4/4 - x^2 + x over [0,2].
  EXPECT_NEAR(result, exact, 1e-12);
}

TEST(Simpson, ConvergesForSqrt) {
  const auto f = [](double x) { return std::sqrt(x + 1.0); };
  const double result = integrate_simpson(f, 0.0, 3.0, 128);
  const double exact = 2.0 / 3.0 * (8.0 - 1.0);  // (2/3)(x+1)^{3/2}.
  EXPECT_NEAR(result, exact, 1e-6);
}

TEST(Simpson, EmptyIntervalIsZero) {
  const auto f = [](double) { return 42.0; };
  EXPECT_DOUBLE_EQ(integrate_simpson(f, 1.0, 1.0, 8), 0.0);
}

}  // namespace
}  // namespace lpfps
