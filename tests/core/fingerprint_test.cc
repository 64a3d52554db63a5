// core/fingerprint.h — the shared FNV-1a machinery.  The constants and
// byte-for-byte behavior are pinned here because three consumers (the
// golden-equivalence suite, the cycle detector's state digests, the
// admission decision fingerprints) must keep agreeing forever: a change
// to this hash silently invalidates golden files and the decision
// digests in the bench baselines alike.
#include "core/fingerprint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace lpfps::core {
namespace {

TEST(Fingerprint, PinnedConstants) {
  EXPECT_EQ(kFnvOffsetBasis, 1469598103934665603ull);
  EXPECT_EQ(kFnvPrime, 1099511628211ull);
  // FNV-1a of the empty string is the offset basis.
  EXPECT_EQ(fnv1a(""), kFnvOffsetBasis);
}

TEST(Fingerprint, FollowsTheFnv1aRecurrence) {
  // One step: (basis ^ byte) * prime, xor-before-multiply (the "1a"
  // ordering).  The repo's basis predates this header (it is what the
  // golden files were hashed with), so the vectors are self-derived.
  EXPECT_EQ(fnv1a("a"), (kFnvOffsetBasis ^ 'a') * kFnvPrime);
  const std::uint64_t step1 = (kFnvOffsetBasis ^ 'h') * kFnvPrime;
  EXPECT_EQ(fnv1a("hi"), (step1 ^ 'i') * kFnvPrime);
}

TEST(Fingerprint, ChainingEqualsConcatenation) {
  const std::string a = "hello ";
  const std::string b = "world";
  EXPECT_EQ(fnv1a(b, fnv1a(a)), fnv1a(a + b));
  EXPECT_EQ(fnv1a_bytes(b.data(), b.size(), fnv1a_bytes(a.data(), a.size())),
            fnv1a(a + b));
}

TEST(Fingerprint, HasherMixesScalarsByBitPattern) {
  FnvHasher h1;
  h1.mix(1.5).mix(std::int64_t{42});
  FnvHasher h2;
  h2.mix(1.5).mix(std::int64_t{42});
  EXPECT_EQ(h1.digest(), h2.digest());

  FnvHasher h3;
  h3.mix(1.5 + 1e-12).mix(std::int64_t{42});
  EXPECT_NE(h1.digest(), h3.digest());

  // Signed zero has a distinct bit pattern — documented behavior.
  FnvHasher pos, neg;
  pos.mix(0.0);
  neg.mix(-0.0);
  EXPECT_NE(pos.digest(), neg.digest());
}

TEST(Fingerprint, StringsAreLengthPrefixed) {
  FnvHasher ab_c, a_bc;
  ab_c.mix(std::string_view("ab")).mix(std::string_view("c"));
  a_bc.mix(std::string_view("a")).mix(std::string_view("bc"));
  EXPECT_NE(ab_c.digest(), a_bc.digest());
}

TEST(Fingerprint, Hex64Rendering) {
  EXPECT_EQ(hex64(0), "0000000000000000");
  EXPECT_EQ(hex64(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(hex64(0xffffffffffffffffull), "ffffffffffffffff");
  // The golden files' rendering: fnv1a of empty string.
  EXPECT_EQ(hex64(kFnvOffsetBasis), "14650fb0739d0383");
}

}  // namespace
}  // namespace lpfps::core
