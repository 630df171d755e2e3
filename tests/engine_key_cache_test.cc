// Tests for the thread-local key cache in front of the engine's registry:
// string-keyed calls resolve through a direct-mapped per-thread table of
// {engine id, KeyState*} slots. These pin that a cached slot never
// answers for the wrong engine or the wrong key: two live engines with
// the same key names, an engine rebuilt in the same storage, an unknown
// key that is created later, more keys than slots, and concurrent
// creation from several threads (run under TSan in CI).

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/histogram_engine.h"

namespace dynhist::engine {
namespace {

constexpr std::int64_t kDomain = 1'000;

EngineOptions SmallOptions() {
  EngineOptions options;
  options.shards = 2;
  options.batch_size = 4;
  options.shard_buckets = 8;
  options.merged_buckets = 8;
  options.snapshot_every = 0;  // publish manually for determinism
  options.merge_workers = 0;
  return options;
}

std::string KeyName(int i) { return "cache.key." + std::to_string(i); }

TEST(EngineKeyCacheTest, TwoLiveEnginesKeepTheirOwnKeys) {
  HistogramEngine a(SmallOptions());
  HistogramEngine b(SmallOptions());
  constexpr int kKeys = 16;
  // Alternate engines on every call, so each key's slot flips between
  // the two engines' states of the same name.
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < kKeys; ++k) {
      a.Insert(KeyName(k), k);
      b.Insert(KeyName(k), k);
      b.Insert(KeyName(k), k + 1);
    }
  }
  for (int k = 0; k < kKeys; ++k) {
    const std::string name = KeyName(k);
    EXPECT_EQ(a.Stats(name).inserts, 3u) << name;
    EXPECT_EQ(b.Stats(name).inserts, 6u) << name;
    const KeyHandle ha = a.Find(name);
    const KeyHandle hb = b.Find(name);
    ASSERT_TRUE(ha.valid());
    ASSERT_TRUE(hb.valid());
    EXPECT_FALSE(ha == hb) << name;
    EXPECT_EQ(a.Resolve(name), ha);
    EXPECT_EQ(b.Resolve(name), hb);
  }
  a.RefreshAll();
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_NEAR(a.EstimateRange(KeyName(k), 0, kDomain), 3.0, 1e-9);
    // b never published: its reads are the empty view, not a's.
    EXPECT_EQ(b.EstimateRange(KeyName(k), 0, kDomain), 0.0);
  }
  EXPECT_EQ(b.Stats().unknown_queries, static_cast<std::uint64_t>(kKeys));
}

TEST(EngineKeyCacheTest, EngineRebuiltInSameStorageStartsEmpty) {
  constexpr int kKeys = 8;
  std::optional<HistogramEngine> engine;
  engine.emplace(SmallOptions());
  for (int k = 0; k < kKeys; ++k) {
    for (int i = 0; i < 10; ++i) engine->Insert(KeyName(k), i);
  }
  engine->RefreshAll();
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_NEAR(engine->EstimateRange(KeyName(k), 0, kDomain), 10.0, 1e-9);
  }

  // Same storage, same names, same allocation sequence: the new key
  // states may well land at the old addresses the slots still hold.
  engine.emplace(SmallOptions());
  for (int k = 0; k < kKeys; ++k) {
    const std::string name = KeyName(k);
    EXPECT_FALSE(engine->Find(name).valid()) << name;
    EXPECT_EQ(engine->EstimateRange(name, 0, kDomain), 0.0) << name;
    EXPECT_EQ(engine->Stats(name).inserts, 0u) << name;
  }
  EXPECT_EQ(engine->Stats().keys, 0u);

  for (int k = 0; k < kKeys; ++k) engine->Insert(KeyName(k), k);
  for (int k = 0; k < kKeys; ++k) {
    const std::string name = KeyName(k);
    EXPECT_EQ(engine->Stats(name).inserts, 1u) << name;
    EXPECT_EQ(engine->Snapshot(name).epoch(), 0u) << name;
    EXPECT_EQ(engine->EstimateRange(name, 0, kDomain), 0.0) << name;
  }
  engine->RefreshAll();
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_NEAR(engine->EstimateRange(KeyName(k), 0, kDomain), 1.0, 1e-9);
  }
  EXPECT_EQ(engine->Stats().inserts, static_cast<std::uint64_t>(kKeys));
}

TEST(EngineKeyCacheTest, UnknownKeyLookupThenCreation) {
  HistogramEngine engine(SmallOptions());
  constexpr char kKey[] = "late.key";
  EXPECT_EQ(engine.EstimateRange(kKey, 0, kDomain), 0.0);
  EXPECT_FALSE(engine.Find(kKey).valid());
  EXPECT_EQ(engine.Snapshot(kKey).epoch(), 0u);
  EXPECT_EQ(engine.Stats().keys, 0u);

  engine.Insert(kKey, 5);
  const KeyHandle handle = engine.Find(kKey);
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(handle.key(), kKey);
  EXPECT_EQ(engine.Resolve(kKey), handle);
  EXPECT_EQ(engine.Stats(kKey).inserts, 1u);
  engine.RefreshSnapshot(kKey);
  EXPECT_NEAR(engine.EstimateRange(kKey, 0, kDomain), 1.0, 1e-9);
  EXPECT_NEAR(engine.LiveTotalCount(kKey), 1.0, 1e-9);
}

TEST(EngineKeyCacheTest, ManyKeysCollideInSlotsAndStayExact) {
  HistogramEngine engine(SmallOptions());
  constexpr int kKeys = 4'096;
  // Round-robin passes over far more keys than the table has slots, so
  // slots are overwritten by colliding keys between a key's visits.
  for (int pass = 0; pass < 3; ++pass) {
    for (int k = 0; k < kKeys; ++k) {
      if (pass <= k % 3) engine.Insert(KeyName(k), k % kDomain);
    }
  }
  EXPECT_EQ(engine.Stats().keys, static_cast<std::uint64_t>(kKeys));
  std::uint64_t total = 0;
  for (int k = 0; k < kKeys; ++k) {
    const std::string name = KeyName(k);
    const KeyHandle handle = engine.Find(name);
    ASSERT_TRUE(handle.valid()) << name;
    EXPECT_EQ(handle.key(), name);
    const std::uint64_t expected = static_cast<std::uint64_t>(k % 3) + 1;
    EXPECT_EQ(engine.Stats(name).inserts, expected) << name;
    total += expected;
  }
  EXPECT_EQ(engine.Stats().inserts, total);
}

TEST(EngineKeyCacheTest, ConcurrentCreationAndResolutionAgree) {
  EngineOptions options = SmallOptions();
  options.merge_workers = 1;
  HistogramEngine engine(options);
  constexpr int kThreads = 4;
  constexpr int kKeys = 64;
  constexpr int kKeysPerThread = 32;  // thread t: keys [16t, 16t + 32)
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int j = 0; j < kKeysPerThread; ++j) {
          const std::string name = KeyName((16 * t + j) % kKeys);
          engine.Insert(name, j);
          const KeyHandle handle = engine.Find(name);
          ASSERT_TRUE(handle.valid());
          ASSERT_EQ(handle.key(), name);
          ASSERT_EQ(engine.Resolve(name), handle);
          engine.EstimateRange(name, 0, kDomain);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Each key is in the window of exactly two threads.
  EXPECT_EQ(engine.Stats().keys, static_cast<std::uint64_t>(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(engine.Stats(KeyName(k)).inserts,
              static_cast<std::uint64_t>(2 * kRounds))
        << KeyName(k);
  }
}

}  // namespace
}  // namespace dynhist::engine
