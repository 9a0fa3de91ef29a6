#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "kvstore/kvstore.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace marlin {
namespace {

TEST(KvStoreTest, SetGetOverwrite) {
  KvStore store;
  store.Set("a", "1");
  EXPECT_EQ(*store.Get("a"), "1");
  store.Set("a", "2");
  EXPECT_EQ(*store.Get("a"), "2");
}

TEST(KvStoreTest, GetMissingIsNotFound) {
  KvStore store;
  auto result = store.Get("nope");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(KvStoreTest, DelAndExists) {
  KvStore store;
  store.Set("a", "1");
  EXPECT_TRUE(store.Exists("a"));
  EXPECT_TRUE(store.Del("a"));
  EXPECT_FALSE(store.Exists("a"));
  EXPECT_FALSE(store.Del("a"));
}

TEST(KvStoreTest, HashCommands) {
  KvStore store;
  ASSERT_TRUE(store.HSet("vessel:1", "lat", "38.1").ok());
  ASSERT_TRUE(store.HSet("vessel:1", "lon", "24.2").ok());
  ASSERT_TRUE(store.HSet("vessel:1", "lat", "38.5").ok());
  EXPECT_EQ(*store.HGet("vessel:1", "lat"), "38.5");
  EXPECT_EQ(*store.HGet("vessel:1", "lon"), "24.2");
  const auto all = store.HGetAll("vessel:1");
  EXPECT_EQ(all.size(), 2u);
  EXPECT_FALSE(store.HGet("vessel:1", "sog").ok());
  EXPECT_FALSE(store.HGet("vessel:2", "lat").ok());
  EXPECT_TRUE(store.HGetAll("vessel:2").empty());
}

TEST(KvStoreTest, TypeMismatchFailsPrecondition) {
  KvStore store;
  store.Set("s", "string");
  EXPECT_EQ(store.HSet("s", "f", "v").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.HGet("s", "f").status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(store.HSet("h", "f", "v").ok());
  EXPECT_EQ(store.Get("h").status().code(), StatusCode::kFailedPrecondition);
}

TEST(KvStoreTest, SetOverwritesHash) {
  KvStore store;
  ASSERT_TRUE(store.HSet("k", "f", "v").ok());
  store.Set("k", "plain");
  EXPECT_EQ(*store.Get("k"), "plain");
}

TEST(KvStoreTest, TtlExpiryWithSimulatedClock) {
  VirtualClock clock(0);
  KvStore store(&clock);
  store.Set("a", "1");
  EXPECT_TRUE(store.Expire("a", 100));
  EXPECT_TRUE(store.Exists("a"));
  EXPECT_EQ(*store.Ttl("a"), 100);
  clock.AdvanceTo(clock.Now() + 99);
  EXPECT_TRUE(store.Exists("a"));
  clock.AdvanceTo(clock.Now() + 1);
  EXPECT_FALSE(store.Exists("a"));
  EXPECT_FALSE(store.Get("a").ok());
  EXPECT_FALSE(store.Ttl("a").has_value());
}

TEST(KvStoreTest, ExpireMissingKeyFalse) {
  KvStore store;
  EXPECT_FALSE(store.Expire("nope", 100));
}

TEST(KvStoreTest, SetClearsTtl) {
  VirtualClock clock(0);
  KvStore store(&clock);
  store.Set("a", "1");
  store.Expire("a", 100);
  store.Set("a", "2");  // fresh value: TTL cleared
  clock.AdvanceTo(clock.Now() + 200);
  EXPECT_TRUE(store.Exists("a"));
}

TEST(KvStoreTest, TtlNulloptWithoutExpiry) {
  KvStore store;
  store.Set("a", "1");
  EXPECT_FALSE(store.Ttl("a").has_value());
}

TEST(KvStoreTest, SizeCountsLiveKeysOnly) {
  VirtualClock clock(0);
  KvStore store(&clock);
  store.Set("a", "1");
  store.Set("b", "2");
  store.Expire("b", 10);
  EXPECT_EQ(store.Size(), 2u);
  clock.AdvanceTo(clock.Now() + 20);
  EXPECT_EQ(store.Size(), 1u);
}

TEST(KvStoreTest, PurgeExpiredRemovesPhysically) {
  VirtualClock clock(0);
  KvStore store(&clock);
  for (int i = 0; i < 10; ++i) {
    store.Set("k" + std::to_string(i), "v");
    if (i % 2 == 0) store.Expire("k" + std::to_string(i), 10);
  }
  clock.AdvanceTo(clock.Now() + 20);
  EXPECT_EQ(store.PurgeExpired(), 5u);
  EXPECT_EQ(store.Size(), 5u);
}

TEST(KvStoreTest, ScanPrefixSorted) {
  KvStore store;
  store.Set("vessel:3", "c");
  store.Set("vessel:1", "a");
  store.Set("event:9", "x");
  store.Set("vessel:2", "b");
  const auto keys = store.ScanPrefix("vessel:");
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "vessel:1");
  EXPECT_EQ(keys[1], "vessel:2");
  EXPECT_EQ(keys[2], "vessel:3");
  EXPECT_EQ(store.ScanPrefix("").size(), 4u);
  EXPECT_TRUE(store.ScanPrefix("zzz").empty());
}

TEST(KvStoreTest, SnapshotRendersHashes) {
  KvStore store;
  store.Set("plain", "v");
  store.HSet("hash", "a", "1");
  store.HSet("hash", "b", "2");
  const auto snapshot = store.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "hash");
  EXPECT_EQ(snapshot[0].second, "a=1,b=2");
  EXPECT_EQ(snapshot[1].first, "plain");
  EXPECT_EQ(snapshot[1].second, "v");
}

TEST(KvStoreTest, ClearRemovesEverything) {
  KvStore store;
  store.Set("a", "1");
  store.HSet("h", "f", "v");
  store.Clear();
  EXPECT_EQ(store.Size(), 0u);
}

TEST(KvStoreTest, ConcurrentWritersDistinctKeys) {
  KvStore store;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kPerThread; ++i) {
        store.Set("t" + std::to_string(t) + ":" + std::to_string(i),
                  std::to_string(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.Size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST(KvStoreTest, ConcurrentHashFieldWrites) {
  KvStore store;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(store
                        .HSet("shared", "f" + std::to_string(t * 1000 + i),
                              "v")
                        .ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.HGetAll("shared").size(), static_cast<size_t>(kThreads * 500));
}

// ------------------------------------------------------------ TTL edges

TEST(KvStoreTest, DelAtExactExpiryBoundaryReturnsFalse) {
  VirtualClock clock(0);
  KvStore store(&clock);
  store.Set("a", "1");
  store.Expire("a", 100);
  clock.AdvanceTo(100);  // expires_at <= now: the key is dead at the boundary
  EXPECT_FALSE(store.Del("a"));
  // The entry was still physically erased, so a second Del finds nothing.
  EXPECT_FALSE(store.Del("a"));
  // And the dead key can be recreated from scratch.
  store.Set("a", "2");
  EXPECT_TRUE(store.Del("a"));
}

TEST(KvStoreTest, ExistsAtExactExpiryBoundary) {
  VirtualClock clock(0);
  KvStore store(&clock);
  store.Set("a", "1");
  store.Expire("a", 100);
  clock.AdvanceTo(99);
  EXPECT_TRUE(store.Exists("a"));  // one microsecond before the deadline
  clock.AdvanceTo(100);
  EXPECT_FALSE(store.Exists("a"));  // at the deadline: expired, not live
  EXPECT_FALSE(store.Del("a"));     // Del agrees with Exists at the boundary
}

TEST(KvStoreTest, DelOfLiveTtlKeyReturnsTrueAndClearsIt) {
  VirtualClock clock(0);
  KvStore store(&clock);
  store.Set("a", "1");
  store.Expire("a", 100);
  clock.AdvanceTo(99);
  EXPECT_TRUE(store.Del("a"));  // still live: a real deletion
  clock.AdvanceTo(100);
  EXPECT_FALSE(store.Exists("a"));
  EXPECT_FALSE(store.Del("a"));
}

/// A clock that ticks forward on every read — the adversarial schedule for
/// Snapshot: if Snapshot consulted the clock per key (instead of pinning
/// `now` once), keys whose deadline falls between two reads would vanish
/// from the middle of the iteration.
class TickingClock : public Clock {
 public:
  explicit TickingClock(TimeMicros start, TimeMicros step)
      : now_(start), step_(step) {}
  TimeMicros Now() const override {
    return now_.fetch_add(step_, std::memory_order_acq_rel);
  }

 private:
  mutable std::atomic<TimeMicros> now_;
  TimeMicros step_;
};

TEST(KvStoreTest, SnapshotIsAtomicWhileKeysExpireMidIteration) {
  // Seed keys under a paused clock, each with a staggered deadline.
  VirtualClock seed_clock(0);
  KvStore store(&seed_clock);
  constexpr int kKeys = 64;  // >= shard count, so every shard is visited
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "vessel:" + std::to_string(i);
    store.Set(key, std::to_string(i));
    ASSERT_TRUE(store.Expire(key, 1000 + i));
  }

  // Re-home the same entries into a store driven by a ticking clock. Reads
  // land at 0 (Restore), 600 (first Snapshot), 1200 (second Snapshot): the
  // first snapshot pins an instant before ANY deadline (1000..1063), the
  // second an instant after ALL of them.
  TickingClock ticking(0, 600);
  KvStore ticking_store(&ticking, 16);
  ASSERT_TRUE(ticking_store.Restore(store.Dump()).ok());
  auto snapshot = ticking_store.Snapshot();
  // The snapshot pinned one `now` before the first deadline, so ALL keys
  // are present — a per-key clock read would have dropped the tail of the
  // iteration as time marched past the staggered deadlines.
  EXPECT_EQ(snapshot.size(), static_cast<size_t>(kKeys));
  // The very next snapshot pins a later instant: everything is gone.
  auto after = ticking_store.Snapshot();
  EXPECT_TRUE(after.empty());
}

TEST(KvStoreTest, SnapshotExcludesExpiredButKeepsLaterDeadlines) {
  VirtualClock clock(0);
  KvStore store(&clock);
  store.Set("early", "1");
  store.Expire("early", 100);
  store.Set("late", "2");
  store.Expire("late", 200);
  store.Set("forever", "3");
  clock.AdvanceTo(150);
  auto snapshot = store.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "forever");
  EXPECT_EQ(snapshot[1].first, "late");
}

// ------------------------------------------------- multi-field HSET

using FieldValue = KvStore::FieldValue;

TEST(KvStoreTest, MultiFieldHSetCreatesThenOverwrites) {
  KvStore store;
  FieldValue first[] = {{"lat", "38.1"}, {"lon", "24.2"}};
  ASSERT_TRUE(store.HSet("vessel:1", first).ok());
  FieldValue second[] = {{"lat", "38.5"}, {"sog", "12.0"}};
  ASSERT_TRUE(store.HSet("vessel:1", second).ok());
  const std::map<std::string, std::string> expected = {
      {"lat", "38.5"}, {"lon", "24.2"}, {"sog", "12.0"}};
  EXPECT_EQ(store.HGetAll("vessel:1"), expected);
  // A repeated field within one call: the last pair wins, as in Redis.
  FieldValue repeated[] = {{"cog", "1.0"}, {"cog", "2.0"}};
  ASSERT_TRUE(store.HSet("vessel:1", repeated).ok());
  EXPECT_EQ(*store.HGet("vessel:1", "cog"), "2.0");
  // No pairs: rejected, and no key is created.
  EXPECT_EQ(store.HSet("vessel:2", std::span<FieldValue>()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(store.Exists("vessel:2"));
}

TEST(KvStoreTest, MultiFieldHSetOnStringKeyWritesNothing) {
  KvStore store;
  store.Set("s", "string");
  FieldValue fields[] = {{"a", "1"}, {"b", "2"}};
  EXPECT_EQ(store.HSet("s", fields).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(*store.Get("s"), "string");
  EXPECT_EQ(store.HGet("s", "a").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(store.HGetAll("s").empty());
}

TEST(KvStoreTest, MultiFieldHSetRecreatesExpiredKeyEmpty) {
  VirtualClock clock(0);
  KvStore store(&clock);
  FieldValue old_fields[] = {{"stale", "x"}, {"lat", "1.0"}};
  ASSERT_TRUE(store.HSet("h", old_fields).ok());
  ASSERT_TRUE(store.Expire("h", 100));
  store.Set("was_string", "v");
  ASSERT_TRUE(store.Expire("was_string", 100));
  clock.AdvanceTo(100);
  FieldValue new_fields[] = {{"lat", "2.0"}};
  ASSERT_TRUE(store.HSet("h", new_fields).ok());
  const std::map<std::string, std::string> expected = {{"lat", "2.0"}};
  EXPECT_EQ(store.HGetAll("h"), expected);
  EXPECT_FALSE(store.Ttl("h").has_value());
  // An expired string key is gone too: the hash replaces it.
  FieldValue hash_fields[] = {{"f", "1"}};
  ASSERT_TRUE(store.HSet("was_string", hash_fields).ok());
  EXPECT_EQ(*store.HGet("was_string", "f"), "1");
}

TEST(KvStoreTest, HSetCounterCountsPairs) {
  obs::MetricsRegistry registry;
  KvStore store(nullptr, 16, &registry);
  const obs::Counter* hset =
      registry.GetCounter("marlin_kv_ops_total", "", {{"op", "hset"}});
  FieldValue fields[] = {{"a", "1"}, {"b", "2"}, {"c", "3"}};
  ASSERT_TRUE(store.HSet("h", fields).ok());
  EXPECT_EQ(hset->Value(), 3u);
  ASSERT_TRUE(store.HSet("h", "d", "4").ok());
  EXPECT_EQ(hset->Value(), 4u);
}

TEST(KvStoreTest, ConcurrentReaderSeesWholeMultiFieldWrites) {
  KvStore store;
  constexpr int kWrites = 20000;
  std::atomic<bool> done{false};
  std::thread writer([&store, &done] {
    for (int i = 0; i < kWrites; ++i) {
      FieldValue fields[] = {{"a", std::to_string(i)},
                             {"b", std::to_string(i)}};
      ASSERT_TRUE(store.HSet("pair", fields).ok());
    }
    done.store(true);
  });
  int reads = 0, torn = 0;
  while (!done.load()) {
    const auto all = store.HGetAll("pair");
    if (all.empty()) continue;
    ++reads;
    if (all.size() != 2 || all.at("a") != all.at("b")) ++torn;
  }
  writer.join();
  EXPECT_EQ(torn, 0) << "of " << reads << " reads";
  EXPECT_EQ(*store.HGet("pair", "a"), std::to_string(kWrites - 1));
}

}  // namespace
}  // namespace marlin
