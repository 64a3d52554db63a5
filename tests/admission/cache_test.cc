// admission/cache.h — LRU behavior, collision safety, and the
// saturating counters that keep month-long services from wrapping.
#include "admission/cache.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace lpfps::admission {
namespace {

CacheEntry entry(bool schedulable, int level) {
  CacheEntry e;
  e.schedulable = schedulable;
  e.min_level = level;
  e.response_times = {Time{1.0}, std::nullopt};
  return e;
}

TEST(SaturatingCounter, IncrementsSaturateAtMax) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t c = kMax - 2;
  saturating_increment(c);
  EXPECT_EQ(c, kMax - 1);
  saturating_increment(c);
  EXPECT_EQ(c, kMax);
  saturating_increment(c);  // Must stick, not wrap to 0.
  EXPECT_EQ(c, kMax);

  std::uint64_t d = kMax - 10;
  saturating_add(d, 7);
  EXPECT_EQ(d, kMax - 3);
  saturating_add(d, 1000);
  EXPECT_EQ(d, kMax);
  saturating_add(d, 1);
  EXPECT_EQ(d, kMax);
}

TEST(AdmissionCache, MissThenHit) {
  AdmissionCache cache(4);
  EXPECT_EQ(cache.find(42, "key-a"), nullptr);
  EXPECT_EQ(cache.counters().misses, 1u);

  cache.insert(42, "key-a", entry(true, 3));
  const CacheEntry* hit = cache.find(42, "key-a");
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->schedulable);
  EXPECT_EQ(hit->min_level, 3);
  ASSERT_EQ(hit->response_times.size(), 2u);
  EXPECT_EQ(hit->response_times[0], Time{1.0});
  EXPECT_FALSE(hit->response_times[1].has_value());
  EXPECT_EQ(cache.counters().hits, 1u);
  EXPECT_EQ(cache.counters().insertions, 1u);
}

TEST(AdmissionCache, CollisionIsCountedAndNeverServed) {
  AdmissionCache cache(4);
  cache.insert(42, "key-a", entry(true, 3));
  // Same digest, different canonical bytes: must be a miss.
  EXPECT_EQ(cache.find(42, "key-b"), nullptr);
  EXPECT_EQ(cache.counters().collisions, 1u);
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.counters().hits, 0u);
}

TEST(AdmissionCache, LruEvictionOrder) {
  AdmissionCache cache(2);
  cache.insert(1, "k1", entry(true, 0));
  cache.insert(2, "k2", entry(true, 1));
  // Touch k1 so k2 becomes the LRU victim.
  ASSERT_NE(cache.find(1, "k1"), nullptr);
  cache.insert(3, "k3", entry(true, 2));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_NE(cache.find(1, "k1"), nullptr);  // Survived.
  EXPECT_EQ(cache.find(2, "k2"), nullptr);  // Evicted.
  EXPECT_NE(cache.find(3, "k3"), nullptr);
}

TEST(AdmissionCache, ReinsertRefreshesInPlace) {
  AdmissionCache cache(2);
  cache.insert(1, "k1", entry(true, 0));
  cache.insert(1, "k1", entry(false, -1));  // Replace, no growth.
  EXPECT_EQ(cache.size(), 1u);
  const CacheEntry* hit = cache.find(1, "k1");
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(hit->schedulable);
  EXPECT_EQ(cache.counters().insertions, 2u);
  EXPECT_EQ(cache.counters().evictions, 0u);
}

TEST(AdmissionCache, ZeroCapacityDisablesStorage) {
  AdmissionCache cache(0);
  cache.insert(1, "k1", entry(true, 0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(1, "k1"), nullptr);
  EXPECT_EQ(cache.counters().misses, 1u);
}

TEST(AdmissionCache, DeterministicReplay) {
  // The exact counter trajectory is part of the determinism contract:
  // two identical op sequences end in identical counters.
  const auto run = [] {
    AdmissionCache cache(3);
    for (int round = 0; round < 5; ++round) {
      for (std::uint64_t d = 0; d < 6; ++d) {
        std::string key = "k0";
        key[1] = static_cast<char>('0' + d);
        if (cache.find(d, key) == nullptr) {
          cache.insert(d, key, entry(true, static_cast<int>(d)));
        }
      }
    }
    return cache.counters();
  };
  const CacheCounters a = run();
  const CacheCounters b = run();
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.insertions, b.insertions);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.collisions, b.collisions);
}

TEST(SharedAdmissionCache, FindCopiesEntriesAcrossShards) {
  SharedAdmissionCache cache(64, 4);
  EXPECT_EQ(cache.shard_count(), 4u);
  // Digests chosen arbitrarily; the mixing step spreads them over
  // shards, and every one must round-trip regardless of which shard
  // it lands in.
  for (std::uint64_t d = 1; d <= 16; ++d) {
    CacheEntry e = entry(true, static_cast<int>(d));
    e.wcet_headroom = 1.0 + 0.25 * static_cast<double>(d);
    cache.insert(d, std::to_string(d), std::move(e));
  }
  for (std::uint64_t d = 1; d <= 16; ++d) {
    const auto hit = cache.find(d, std::to_string(d));
    ASSERT_TRUE(hit.has_value()) << d;
    EXPECT_EQ(hit->min_level, static_cast<int>(d));
    EXPECT_EQ(hit->wcet_headroom, 1.0 + 0.25 * static_cast<double>(d));
  }
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_EQ(cache.counters().hits, 16u);
  EXPECT_EQ(cache.counters().insertions, 16u);
}

TEST(SharedAdmissionCache, CollisionIsFlaggedCountedAndNeverServed) {
  SharedAdmissionCache cache(8, 2);
  cache.insert(42, "key-a", entry(true, 3));
  bool collision = false;
  EXPECT_FALSE(cache.find(42, "key-b", &collision).has_value());
  EXPECT_TRUE(collision);
  collision = true;
  EXPECT_TRUE(cache.find(42, "key-a", &collision).has_value());
  EXPECT_FALSE(collision);
  EXPECT_EQ(cache.counters().collisions, 1u);
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.counters().hits, 1u);
}

TEST(SharedAdmissionCache, ZeroCapacityDisablesStorage) {
  SharedAdmissionCache cache(0, 4);
  cache.insert(1, "k1", entry(true, 0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.find(1, "k1").has_value());
}

TEST(SharedAdmissionCache, CapacitySplitsAcrossShardsAndEvicts) {
  // 4 total slots over 4 shards: one per shard, so a second distinct
  // digest landing on an occupied shard must evict.
  SharedAdmissionCache cache(4, 4);
  EXPECT_EQ(cache.capacity(), 4u);
  for (std::uint64_t d = 0; d < 32; ++d) {
    cache.insert(d, std::to_string(d), entry(true, 0));
  }
  EXPECT_LE(cache.size(), 4u);
  EXPECT_GT(cache.counters().evictions, 0u);
}

TEST(SharedAdmissionCache, ConcurrentMixedUseStaysConsistent) {
  // Not a determinism claim (counters are thread-ordering dependent) —
  // a sanity check that concurrent find/insert on one cache neither
  // crashes nor serves wrong bytes.
  SharedAdmissionCache cache(256, 8);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&cache, w] {
      for (int round = 0; round < 200; ++round) {
        const std::uint64_t d = static_cast<std::uint64_t>(round % 37);
        const std::string key = std::to_string(d);
        const auto hit = cache.find(d, key);
        if (hit.has_value()) {
          // Entries are keyed on d; a served entry must carry d's level.
          EXPECT_EQ(hit->min_level, static_cast<int>(d));
        } else {
          cache.insert(d, key, entry(true, static_cast<int>(d)));
        }
        (void)w;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const CacheCounters totals = cache.counters();
  EXPECT_EQ(totals.hits + totals.misses, 4u * 200u);
  EXPECT_EQ(totals.collisions, 0u);
}

TEST(CacheEnv, CapacityParsesDisablesAndIgnoresGarbage) {
  ::unsetenv("LPFPS_ADMISSION_CACHE");
  EXPECT_FALSE(cache_capacity_from_env().has_value());

  ::setenv("LPFPS_ADMISSION_CACHE", "512", 1);
  ASSERT_TRUE(cache_capacity_from_env().has_value());
  EXPECT_EQ(*cache_capacity_from_env(), 512u);

  ::setenv("LPFPS_ADMISSION_CACHE", "0", 1);
  ASSERT_TRUE(cache_capacity_from_env().has_value());
  EXPECT_EQ(*cache_capacity_from_env(), 0u);

  // Garbage falls back to the default with one stderr line naming the
  // knob and the value.
  for (const char* bad : {"not-a-number", "-3", "-1", " -1", "1k",
                          "99999999999999999999999"}) {
    ::setenv("LPFPS_ADMISSION_CACHE", bad, 1);
    testing::internal::CaptureStderr();
    EXPECT_FALSE(cache_capacity_from_env().has_value()) << bad;
    const std::string warning = testing::internal::GetCapturedStderr();
    EXPECT_NE(
        warning.find(std::string("ignoring LPFPS_ADMISSION_CACHE=") + bad),
        std::string::npos)
        << warning;
  }

  // Empty counts as unset: no warning.
  ::setenv("LPFPS_ADMISSION_CACHE", "", 1);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(cache_capacity_from_env().has_value());
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  ::unsetenv("LPFPS_ADMISSION_CACHE");
}

}  // namespace
}  // namespace lpfps::admission
