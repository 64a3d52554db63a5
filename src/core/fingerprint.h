// FNV-1a fingerprinting — the shared hashing machinery behind every
// "is this state one we have seen before?" question in the repository.
//
// The golden-equivalence suite pins engine behavior by hashing
// canonical CSV renderings, the admission service (src/admission/)
// stamps every decision with the digest of the candidate task set's
// canonical bytes, and the benches digest their decision streams.  All
// of them reduce byte streams to 64-bit digests the same way: FNV-1a,
// chosen for its trivial incremental form (fold one byte at a time) and
// stable cross-platform output — a digest written into a golden file or
// a bench baseline on one machine compares equal on every other.
//
// Digests are identifiers, not proofs: two different states can collide.
// Callers that must not act on a collision keep the canonical bytes
// alongside the digest and verify on match, or use the digest only as
// an index into an exact comparison (the golden CSV files store the
// hashed text's provenance in git).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace lpfps::core {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Folds `size` bytes into `hash` (FNV-1a).  Chain calls to fingerprint
/// a composite structure; start from kFnvOffsetBasis.
std::uint64_t fnv1a_bytes(const void* data, std::size_t size,
                          std::uint64_t hash = kFnvOffsetBasis);

/// FNV-1a of a text buffer (the golden-equivalence hashes).
std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t hash = kFnvOffsetBasis);

/// Incremental FNV-1a accumulator for heterogeneous records.  Scalars
/// are folded as their in-memory byte patterns (doubles by bit pattern,
/// so +0.0 and -0.0 differ — canonicalize upstream if that matters);
/// strings fold their length first so {"ab","c"} and {"a","bc"} hash
/// differently.
class FnvHasher {
 public:
  FnvHasher& mix_bytes(const void* data, std::size_t size) {
    hash_ = fnv1a_bytes(data, size, hash_);
    return *this;
  }
  FnvHasher& mix(double value) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return mix_bytes(&bits, sizeof(bits));
  }
  FnvHasher& mix(std::int64_t value) { return mix_bytes(&value, sizeof(value)); }
  FnvHasher& mix(std::uint64_t value) { return mix_bytes(&value, sizeof(value)); }
  FnvHasher& mix(std::int32_t value) { return mix_bytes(&value, sizeof(value)); }
  FnvHasher& mix(std::string_view text) {
    mix(static_cast<std::uint64_t>(text.size()));
    return mix_bytes(text.data(), text.size());
  }

  std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffsetBasis;
};

/// `digest` as 16 lowercase hex characters (the golden-file rendering).
std::string hex64(std::uint64_t digest);

}  // namespace lpfps::core
