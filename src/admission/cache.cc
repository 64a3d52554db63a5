#include "admission/cache.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/check.h"

namespace lpfps::admission {

std::optional<std::size_t> cache_capacity_from_env() {
  const char* value = std::getenv("LPFPS_ADMISSION_CACHE");
  if (value == nullptr || *value == '\0') return std::nullopt;
  // A leading digit keeps strtoull from skipping blanks or wrapping a
  // sign.
  if (std::isdigit(static_cast<unsigned char>(*value)) != 0) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (*end == '\0' && errno != ERANGE &&
        parsed <= std::numeric_limits<std::size_t>::max()) {
      return static_cast<std::size_t>(parsed);
    }
  }
  std::fprintf(stderr,
               "admission: ignoring LPFPS_ADMISSION_CACHE=%s (not a "
               "non-negative integer)\n",
               value);
  return std::nullopt;
}

AdmissionCache::AdmissionCache(std::size_t capacity) : capacity_(capacity) {}

const CacheEntry* AdmissionCache::find(std::uint64_t digest,
                                       std::string_view key) {
  auto it = map_.find(digest);
  if (it == map_.end()) {
    saturating_increment(counters_.misses);
    return nullptr;
  }
  if (it->second.key != key) {
    // Same 64-bit digest, different task set: never serve it.
    saturating_increment(counters_.collisions);
    saturating_increment(counters_.misses);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  saturating_increment(counters_.hits);
  return &it->second.entry;
}

void AdmissionCache::insert(std::uint64_t digest, std::string key,
                            CacheEntry entry) {
  if (capacity_ == 0) return;
  auto it = map_.find(digest);
  if (it != map_.end()) {
    // Replace in place (digest collision overwrites: the canonical key
    // travels with the entry, so a stale occupant can only turn later
    // lookups of the old set into counted misses, never wrong answers).
    it->second.key = std::move(key);
    it->second.entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    saturating_increment(counters_.insertions);
    return;
  }
  if (map_.size() >= capacity_) {
    LPFPS_CHECK(!lru_.empty());
    map_.erase(lru_.back());
    lru_.pop_back();
    saturating_increment(counters_.evictions);
  }
  lru_.push_front(digest);
  map_.emplace(digest,
               Node{std::move(key), std::move(entry), lru_.begin()});
  saturating_increment(counters_.insertions);
}

SharedAdmissionCache::SharedAdmissionCache(std::size_t capacity,
                                           std::size_t shards) {
  LPFPS_CHECK(shards > 0);
  // Even split, rounded up so a nonzero total never silently disables a
  // shard; capacity 0 disables every shard (the AdmissionCache rule).
  const std::size_t per_shard =
      capacity == 0 ? 0 : (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(per_shard));
  }
}

SharedAdmissionCache::Shard& SharedAdmissionCache::shard_for(
    std::uint64_t digest) {
  // Fibonacci-mix the digest before taking shard bits: the low FNV bits
  // also feed the shard map's bucketing, and reusing them raw would
  // correlate shard choice with in-shard placement.
  const std::uint64_t mixed = digest * 0x9e3779b97f4a7c15ull;
  return *shards_[static_cast<std::size_t>(mixed >> 32) % shards_.size()];
}

std::optional<CacheEntry> SharedAdmissionCache::find(std::uint64_t digest,
                                                     std::string_view key,
                                                     bool* collision) {
  Shard& shard = shard_for(digest);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const std::uint64_t collisions_before = shard.cache.counters().collisions;
  const CacheEntry* hit = shard.cache.find(digest, key);
  if (collision != nullptr) {
    *collision = shard.cache.counters().collisions != collisions_before;
  }
  if (hit == nullptr) return std::nullopt;
  return *hit;  // Copy out under the lock.
}

void SharedAdmissionCache::insert(std::uint64_t digest, std::string key,
                                  CacheEntry entry) {
  Shard& shard = shard_for(digest);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.cache.insert(digest, std::move(key), std::move(entry));
}

std::size_t SharedAdmissionCache::capacity() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->cache.capacity();
  return total;
}

std::size_t SharedAdmissionCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->cache.size();
  }
  return total;
}

CacheCounters SharedAdmissionCache::counters() const {
  CacheCounters total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    const CacheCounters& c = shard->cache.counters();
    saturating_add(total.hits, c.hits);
    saturating_add(total.misses, c.misses);
    saturating_add(total.insertions, c.insertions);
    saturating_add(total.evictions, c.evictions);
    saturating_add(total.collisions, c.collisions);
  }
  return total;
}

}  // namespace lpfps::admission
