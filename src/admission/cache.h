// Memoization of schedulability decisions, keyed on task-set
// fingerprints.
//
// Churn workloads revisit task sets: a rejected add is retried, a
// removed task is re-added, an overloaded set oscillates around the
// admission boundary.  Every revisit would otherwise pay a full
// analysis; this cache returns the previously computed decision —
// schedulability, minimum safe level, and the exact response-time
// vector (bit-identical by the incremental-RTA contract, so adopting a
// cached vector is indistinguishable from recomputing it).
//
// Keys reuse the FNV fingerprinting machinery the engine's
// state-identity checks standardized in core/fingerprint.h.  A 64-bit
// digest indexes the table; because digests can collide, every entry
// also stores the canonical key bytes (the schedulability-relevant
// task parameters) and a lookup only hits after an exact byte compare
// — a collision is counted and treated as a miss, never served.
//
// All counters saturate instead of wrapping (saturating_increment):
// a service that runs for months must not let a wrapped counter
// corrupt rate arithmetic downstream.  Counters are accounting, not
// results — they flow into bench JSON and AUDIT meta, and are excluded
// from io::admission_csv_row like the engine's cycle counters.
#pragma once

#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/units.h"

namespace lpfps::admission {

/// Bumps a saturating counter: sticks at max instead of wrapping.
inline void saturating_increment(std::uint64_t& counter) {
  if (counter != std::numeric_limits<std::uint64_t>::max()) ++counter;
}

/// `counter + amount`, saturating at max.
inline void saturating_add(std::uint64_t& counter, std::uint64_t amount) {
  const std::uint64_t room =
      std::numeric_limits<std::uint64_t>::max() - counter;
  counter += amount < room ? amount : room;
}

struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t collisions = 0;  ///< Digest matched, canonical bytes did not.
};

/// The memoized outcome of analyzing one candidate set.
struct CacheEntry {
  bool schedulable = false;
  int min_level = -1;  ///< -1 when unschedulable.
  /// Uniform WCET-scaling headroom at min_level (0 when unschedulable
  /// or when the deciding service ran with sensitivity off).
  double wcet_headroom = 0.0;
  std::vector<std::optional<Time>> response_times;
};

/// Cache capacity override from the LPFPS_ADMISSION_CACHE environment
/// variable, or nullopt when unset, empty or unparsable (the last with
/// one stderr line naming the value).  0 means "cache off".
/// Follows the hoisted-env-read convention of
/// core::cycle_detection_env_enabled(): the function re-reads the
/// environment on every call, and callers hoist one read per unit of
/// work — AdmissionService reads it once at construction, so every
/// request of one service sees the same verdict regardless of when the
/// environment changes mid-run.
std::optional<std::size_t> cache_capacity_from_env();

/// Deterministic bounded LRU: same lookup/insert sequence, same hits,
/// evictions, and counter values — on any thread count, because each
/// service owns its cache exclusively.
class AdmissionCache {
 public:
  /// `capacity == 0` disables storage (every lookup misses).
  explicit AdmissionCache(std::size_t capacity);

  /// Returns the entry for `digest` if present *and* the stored
  /// canonical key equals `key` byte-for-byte; refreshes LRU recency.
  /// Counts a hit, a miss, or a collision-plus-miss.
  const CacheEntry* find(std::uint64_t digest, std::string_view key);

  /// Inserts (or replaces) the entry, evicting the least-recently-used
  /// digest when at capacity.
  void insert(std::uint64_t digest, std::string key, CacheEntry entry);

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  const CacheCounters& counters() const { return counters_; }

 private:
  struct Node {
    std::string key;
    CacheEntry entry;
    std::list<std::uint64_t>::iterator lru_it;
  };

  std::size_t capacity_ = 0;
  std::unordered_map<std::uint64_t, Node> map_;
  std::list<std::uint64_t> lru_;  ///< Front = most recently used.
  CacheCounters counters_;
};

/// One decision cache shared by many concurrent admission services:
/// mutex-striped shards, each an AdmissionCache, selected by mixed
/// digest bits (independent of the unordered_map's own bucketing).
/// The byte-exact canonical-key verification is unchanged — a lookup
/// only hits after the stored key compares equal, so a digest
/// collision still degrades to a counted miss.
///
/// Determinism contract: decisions served from this cache are
/// *bit-identical* to recomputing them (the per-service cache's
/// contract, inherited shard by shard), so sharing the cache across
/// pipeline sessions can change which sessions pay for an analysis but
/// never what any session answers — per-session decision digests stay
/// byte-identical to a serial, private-cache replay.  Hit/miss/eviction
/// *counters*, by contrast, depend on cross-thread interleaving and are
/// only deterministic for single-threaded use; they are accounting, not
/// results, and never reach a decision CSV row.
///
/// Keying caveat: the canonical key encodes the candidate task set
/// only, not the frequency table, scaling model, or sensitivity
/// setting.  A service folds a config token into its shared-cache keys
/// (see AdmissionService), so services with different configs can share
/// one cache without cross-serving each other's decisions.
class SharedAdmissionCache {
 public:
  /// Total `capacity` is split evenly across `shards` (each shard gets
  /// at least one slot unless capacity is 0, which disables storage).
  explicit SharedAdmissionCache(std::size_t capacity,
                                std::size_t shards = 8);

  SharedAdmissionCache(const SharedAdmissionCache&) = delete;
  SharedAdmissionCache& operator=(const SharedAdmissionCache&) = delete;

  /// Copies the entry out under the shard lock (a pointer into a
  /// concurrently mutated shard would dangle).  `collision`, when
  /// non-null, is set iff the digest matched but the canonical bytes
  /// did not.
  std::optional<CacheEntry> find(std::uint64_t digest,
                                 std::string_view key,
                                 bool* collision = nullptr);

  void insert(std::uint64_t digest, std::string key, CacheEntry entry);

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t capacity() const;
  std::size_t size() const;
  /// Counters summed across shards (a consistent-per-shard snapshot;
  /// cross-shard totals can be mid-update while other threads run).
  CacheCounters counters() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    AdmissionCache cache;
    explicit Shard(std::size_t capacity) : cache(capacity) {}
  };

  Shard& shard_for(std::uint64_t digest);

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace lpfps::admission
