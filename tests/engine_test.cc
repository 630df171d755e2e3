#include "src/engine/histogram_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/data/frequency_vector.h"
#include "src/data/update_stream.h"
#include "src/distributed/global_histogram.h"
#include "src/engine/engine_options.h"
#include "src/engine/shard.h"
#include "src/engine/snapshot.h"
#include "src/histogram/compiled_snapshot.h"
#include "src/histogram/dynamic_vopt.h"
#include "src/metrics/ks.h"
#include "src/telemetry/trace_ring.h"
#include "tests/test_util.h"

namespace dynhist::engine {
namespace {

constexpr std::int64_t kDomain = 1'001;
constexpr char kKey[] = "t.a";

std::vector<std::int64_t> ZipfValues(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  const ZipfDistribution zipf(static_cast<std::size_t>(kDomain), 1.0);
  std::vector<std::int64_t> values;
  values.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    values.push_back(static_cast<std::int64_t>(zipf.Sample(rng)));
  }
  return values;
}

EngineOptions TestOptions() {
  EngineOptions options;
  options.shards = 8;
  options.batch_size = 16;
  options.snapshot_every = 0;  // publish manually unless a test opts in
  return options;
}

TEST(HistogramEngineTest, UnknownKeyYieldsEmptyEpochZeroSnapshot) {
  HistogramEngine engine(TestOptions());
  const EngineSnapshot snapshot = engine.Snapshot("nope");
  EXPECT_EQ(snapshot.epoch(), 0u);
  EXPECT_EQ(snapshot.TotalCount(), 0.0);
  EXPECT_EQ(engine.EstimateRange("nope", 0, kDomain), 0.0);
  EXPECT_EQ(engine.EstimateEquals("nope", 5), 0.0);
}

TEST(HistogramEngineTest, SingleThreadSnapshotKsCloseToDirectHistogram) {
  const auto values = ZipfValues(20'000, /*seed=*/11);

  HistogramEngine engine(TestOptions());
  FrequencyVector truth(kDomain);
  DynamicVOptHistogram direct(
      DynamicVOptConfig{.buckets = 64, .policy = DeviationPolicy::kAbsolute});
  for (const std::int64_t v : values) {
    engine.Insert(kKey, v);
    direct.Insert(v);
    truth.Insert(v);
  }

  const EngineSnapshot snapshot = engine.RefreshSnapshot(kKey);
  EXPECT_TRUE(testing::ModelIsValid(snapshot.model()));
  EXPECT_NEAR(snapshot.TotalCount(), 20'000.0, 1.0);

  const double ks_direct = KsStatistic(truth, direct.Model());
  const double ks_engine = KsStatistic(truth, snapshot.model());
  // The merged snapshot must be in the same accuracy class as the
  // single histogram it replaces (the §8 merge is near-lossless).
  EXPECT_LE(ks_engine, ks_direct + 0.05);
  EXPECT_LT(ks_engine, 0.1);
}

TEST(HistogramEngineTest, EstimatesMatchSnapshotModel) {
  HistogramEngine engine(TestOptions());
  for (std::int64_t v = 0; v < 1'000; ++v) engine.Insert(kKey, v % 100);
  const EngineSnapshot snapshot = engine.RefreshSnapshot(kKey);
  EXPECT_DOUBLE_EQ(engine.EstimateRange(kKey, 0, 99),
                   snapshot.EstimateRange(0, 99));
  EXPECT_NEAR(engine.EstimateRange(kKey, 0, 99), 1'000.0, 1.0);
  EXPECT_DOUBLE_EQ(engine.EstimateEquals(kKey, 5),
                   snapshot.EstimateEquals(5));
}

TEST(HistogramEngineTest, HeldSnapshotIsImmutableUnderLaterUpdates) {
  HistogramEngine engine(TestOptions());
  for (const std::int64_t v : ZipfValues(5'000, 3)) engine.Insert(kKey, v);
  const EngineSnapshot held = engine.RefreshSnapshot(kKey);
  const double held_total = held.TotalCount();
  const double held_estimate = held.EstimateRange(0, kDomain - 1);
  const std::uint64_t held_epoch = held.epoch();
  ASSERT_EQ(held_epoch, 1u);

  for (const std::int64_t v : ZipfValues(5'000, 4)) engine.Insert(kKey, v);
  const EngineSnapshot fresh = engine.RefreshSnapshot(kKey);

  EXPECT_EQ(held.epoch(), held_epoch);
  EXPECT_DOUBLE_EQ(held.TotalCount(), held_total);
  EXPECT_DOUBLE_EQ(held.EstimateRange(0, kDomain - 1), held_estimate);
  EXPECT_EQ(fresh.epoch(), 2u);
  EXPECT_NEAR(fresh.TotalCount(), 2.0 * held_total, 1.0);
}

TEST(HistogramEngineTest, AutoPublishFollowsSnapshotCadence) {
  EngineOptions options = TestOptions();
  options.snapshot_every = 1'000;
  HistogramEngine engine(options);
  for (const std::int64_t v : ZipfValues(5'500, 5)) engine.Insert(kKey, v);
  const EngineSnapshot snapshot = engine.Snapshot(kKey);
  EXPECT_GE(snapshot.epoch(), 4u);  // ~5 cadence crossings
  EXPECT_GE(snapshot.TotalCount(), 4'000.0);
  EXPECT_GE(engine.Stats().publishes, 4u);
}

TEST(HistogramEngineTest, InsertBatchMatchesLoopInserts) {
  // From empty, one InsertBatch drains every shard in batch_size chunks,
  // and the loop's last partial batch drains at publish: the two paths
  // coalesce the same chunks and publish the same arena, byte for byte.
  const auto values = ZipfValues(10'000, 6);
  for (const ShardHistogramKind kind :
       {ShardHistogramKind::kDynamicCompressed,
        ShardHistogramKind::kDynamicVOpt, ShardHistogramKind::kDynamicAdo}) {
    for (const int batch_size : {1, 16, 64, 256}) {
      EngineOptions options = TestOptions();
      options.kind = kind;
      options.batch_size = batch_size;
      HistogramEngine loop_engine(options);
      HistogramEngine batch_engine(options);
      for (const std::int64_t v : values) loop_engine.Insert(kKey, v);
      batch_engine.InsertBatch(kKey, values);
      EXPECT_DOUBLE_EQ(loop_engine.LiveTotalCount(kKey),
                       batch_engine.LiveTotalCount(kKey));
      EXPECT_TRUE(loop_engine.RefreshSnapshot(kKey).compiled() ==
                  batch_engine.RefreshSnapshot(kKey).compiled())
          << "kind " << static_cast<int>(kind) << " batch " << batch_size;
    }
  }
}

TEST(HistogramEngineTest, CoalescedBatchesConserveMassAndQuality) {
  // Coalescing changes the maintenance trajectory against the op-by-op
  // replay (batch_size 1) but must conserve mass exactly and stay in the
  // same estimation-quality class.
  const auto values = ZipfValues(20'000, 12);
  EngineOptions coalesced = TestOptions();
  coalesced.batch_size = 256;  // plenty of duplicates per batch at z=1
  EngineOptions op_by_op = coalesced;
  op_by_op.batch_size = 1;

  FrequencyVector truth(kDomain);
  for (const std::int64_t v : values) truth.Insert(v);

  HistogramEngine a(coalesced);
  HistogramEngine b(op_by_op);
  a.InsertBatch(kKey, values);
  b.InsertBatch(kKey, values);
  EXPECT_DOUBLE_EQ(a.LiveTotalCount(kKey), 20'000.0);
  EXPECT_DOUBLE_EQ(b.LiveTotalCount(kKey), 20'000.0);

  const double ks_a = KsStatistic(truth, a.RefreshSnapshot(kKey).model());
  const double ks_b = KsStatistic(truth, b.RefreshSnapshot(kKey).model());
  EXPECT_LT(ks_a, 0.1);
  EXPECT_LE(ks_a, ks_b + 0.05);
}

TEST(HistogramEngineTest, DynamicCompressedKindWorks) {
  EngineOptions options = TestOptions();
  options.kind = ShardHistogramKind::kDynamicCompressed;
  HistogramEngine engine(options);
  FrequencyVector truth(kDomain);
  for (const std::int64_t v : ZipfValues(20'000, 7)) {
    engine.Insert(kKey, v);
    truth.Insert(v);
  }
  const EngineSnapshot snapshot = engine.RefreshSnapshot(kKey);
  EXPECT_NEAR(snapshot.TotalCount(), 20'000.0, 1.0);
  EXPECT_LT(KsStatistic(truth, snapshot.model()), 0.1);
}

// Writers on different shards drain concurrently, and past loading every
// DC update runs a chi-square test, so shard drains must share no hidden
// state (std::lgamma's global `signgam` was one; TSan runs this suite).
TEST(HistogramEngineTest, DynamicCompressedShardsDrainConcurrently) {
  EngineOptions options = TestOptions();
  options.kind = ShardHistogramKind::kDynamicCompressed;
  options.shards = 8;
  HistogramEngine engine(options);
  constexpr int kWriters = 4;
  constexpr std::int64_t kPerWriter = 5'000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&engine, w] {
      // Uniform values: each shard sees far more than shard_buckets
      // distinct values, so every shard leaves loading early.
      Rng rng(static_cast<std::uint64_t>(w) + 101);
      for (std::int64_t i = 0; i < kPerWriter; ++i) {
        engine.Insert(kKey, rng.UniformInt(0, kDomain - 1));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  constexpr double kTotal = kWriters * kPerWriter;
  EXPECT_DOUBLE_EQ(engine.LiveTotalCount(kKey), kTotal);
  EXPECT_NEAR(engine.RefreshSnapshot(kKey).TotalCount(), kTotal, 1.0);
}

TEST(HistogramEngineTest, MultipleKeysAreIndependent) {
  HistogramEngine engine(TestOptions());
  engine.Insert("a", 1);
  engine.Insert("b", 2);
  engine.Insert("b", 3);
  EXPECT_DOUBLE_EQ(engine.LiveTotalCount("a"), 1.0);
  EXPECT_DOUBLE_EQ(engine.LiveTotalCount("b"), 2.0);
  EXPECT_EQ(engine.Stats().keys, 2u);
}

// N writers + M readers; writers also delete ~25% of their own inserts
// (the §7.3.1 mixed workload). Final mass must equal inserted - deleted
// exactly, and no reader may ever observe a torn or invalid snapshot.
TEST(HistogramEngineTest, ConcurrentWritersAndReadersConserveMass) {
  EngineOptions options = TestOptions();
  options.snapshot_every = 2'000;
  HistogramEngine engine(options);

  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr std::int64_t kPerWriter = 10'000;

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> net_mass{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(static_cast<std::uint64_t>(w) + 100);
      const ZipfDistribution zipf(static_cast<std::size_t>(kDomain), 1.0);
      std::vector<std::int64_t> own;  // values this writer has inserted
      std::int64_t net = 0;
      for (std::int64_t i = 0; i < kPerWriter; ++i) {
        const auto v = static_cast<std::int64_t>(zipf.Sample(rng));
        engine.Insert(kKey, v);
        own.push_back(v);
        ++net;
        if (!own.empty() && rng.Bernoulli(0.25)) {
          const std::size_t pick = static_cast<std::size_t>(
              rng.UniformInt(static_cast<std::uint64_t>(own.size())));
          engine.Delete(kKey, own[pick]);
          own[pick] = own.back();
          own.pop_back();
          --net;
        }
      }
      net_mass.fetch_add(net);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(static_cast<std::uint64_t>(r) + 900);
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const EngineSnapshot snapshot = engine.Snapshot(kKey);
        // Epochs never go backwards from a reader's point of view.
        EXPECT_GE(snapshot.epoch(), last_epoch);
        last_epoch = snapshot.epoch();
        EXPECT_TRUE(testing::ModelIsValid(snapshot.model()));
        const std::int64_t lo = rng.UniformInt(0, kDomain - 1);
        const double estimate =
            snapshot.EstimateRange(lo, kDomain - 1);
        EXPECT_GE(estimate, 0.0);
        EXPECT_TRUE(std::isfinite(estimate));
        EXPECT_LE(estimate, snapshot.TotalCount() + 1e-9);
      }
    });
  }

  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Exact conservation through buffers, shards, and concurrent publishes.
  EXPECT_DOUBLE_EQ(engine.LiveTotalCount(kKey),
                   static_cast<double>(net_mass.load()));
  const EngineSnapshot final_snapshot = engine.RefreshSnapshot(kKey);
  EXPECT_NEAR(final_snapshot.TotalCount(),
              static_cast<double>(net_mass.load()), 1.0);
  const auto stats = engine.Stats();
  EXPECT_EQ(stats.inserts, static_cast<std::uint64_t>(kWriters * kPerWriter));
  EXPECT_GE(stats.publishes, 1u);
}

TEST(HistogramEngineTest, BackgroundThreadPublishesWithoutManualRefresh) {
  EngineOptions options = TestOptions();
  options.background_interval_ms = 5;
  HistogramEngine engine(options);
  for (const std::int64_t v : ZipfValues(2'000, 8)) engine.Insert(kKey, v);
  engine.FlushAll();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  // Wait for the full mass, not just a nonzero epoch: on a slow run
  // (sanitizers, loaded CI) the first cadence tick can land mid-insert
  // and publish a partial epoch; later ticks publish the rest.
  while (engine.Snapshot(kKey).TotalCount() < 1'999.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const EngineSnapshot snapshot = engine.Snapshot(kKey);
  EXPECT_GE(snapshot.epoch(), 1u);
  EXPECT_NEAR(snapshot.TotalCount(), 2'000.0, 1.0);
}

// Polls until `key`'s published snapshot holds `mass`, for up to 5 s:
// ticks run on their own clock, so there is no call to wait on.
// Polls `done` every millisecond for up to 5 s.
template <typename Predicate>
bool WaitFor(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

bool WaitForPublishedMass(const HistogramEngine& engine, const char* key,
                          double mass) {
  return WaitFor(
      [&] { return engine.Snapshot(key).TotalCount() >= mass - 0.5; });
}

TEST(HistogramEngineTest, BackgroundTicksPublishThroughWorkers) {
  EngineOptions options = TestOptions();
  options.background_interval_ms = 2;
  HistogramEngine engine(options);
  for (const std::int64_t v : ZipfValues(1'000, 9)) engine.Insert(kKey, v);
  ASSERT_TRUE(WaitForPublishedMass(engine, kKey, 1'000.0));
  engine.StopPublishWorkers();  // a sync point: counters are consistent

  // Every publication ran off the queue; ticks are not cadence trips.
  const EngineStats stats = engine.Stats();
  EXPECT_GE(stats.async_publishes, 1u);
  EXPECT_EQ(stats.publishes, stats.async_publishes);
  EXPECT_EQ(stats.async_publishes + stats.publish_skipped,
            stats.publish_queued);
  EXPECT_EQ(stats.publish_coalesced, 0u);
  const std::vector<telemetry::TraceEvent> events = engine.trace().Events();
  ASSERT_FALSE(events.empty());
  for (const telemetry::TraceEvent& e : events) {
    EXPECT_STREQ(e.trigger, "async");
  }
}

TEST(HistogramEngineTest, BackgroundTicksNotStarvedByBusyQueue) {
  // One merge worker; a hot async key re-enqueues on every insert, so the
  // queue is almost never empty. The cold key publishes by ticks alone,
  // and gets its updates only once the hot key's publishes are flowing.
  EngineOptions options = TestOptions();
  options.background_interval_ms = 2;
  options.merge_workers = 1;
  HistogramEngine engine(options);
  engine.SetKeyOptions("hot", {.snapshot_every = 1, .async_publish = true});

  std::atomic<bool> done{false};
  std::thread hot([&] {
    for (std::int64_t i = 0; !done.load(); ++i) {
      engine.Insert("hot", i % kDomain);
    }
  });
  const bool hot_publishing =
      WaitFor([&] { return engine.Stats("hot").async_publishes >= 1; });
  for (std::int64_t i = 0; i < 500; ++i) engine.Insert("cold", i);
  const bool published = WaitForPublishedMass(engine, "cold", 500.0);
  done.store(true);
  hot.join();
  EXPECT_TRUE(hot_publishing);
  EXPECT_TRUE(published);
}

TEST(HistogramEngineTest, StopPublishWorkersStopsTicks) {
  EngineOptions options = TestOptions();
  options.background_interval_ms = 2;
  HistogramEngine engine(options);
  engine.Insert(kKey, 1);
  ASSERT_TRUE(WaitForPublishedMass(engine, kKey, 1.0));
  engine.StopPublishWorkers();

  const std::uint64_t epoch = engine.Snapshot(kKey).epoch();
  for (const std::int64_t v : ZipfValues(100, 10)) engine.Insert(kKey, v);
  // About 25 tick intervals: none of them may publish.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(engine.Snapshot(kKey).epoch(), epoch);
  EXPECT_EQ(engine.PublishQueueDepth(), 0u);
  // An explicit refresh still publishes inline.
  EXPECT_DOUBLE_EQ(engine.RefreshSnapshot(kKey).TotalCount(), 101.0);
}

TEST(HistogramEngineTest, PublishAttachesCompiledSnapshot) {
  HistogramEngine engine(TestOptions());
  const EngineSnapshot empty = engine.Snapshot(kKey);  // epoch 0
  EXPECT_EQ(empty.compiled(), CompiledSnapshot());
  EXPECT_EQ(empty.compiled().NumPieces(), 0u);
  for (const std::int64_t v : ZipfValues(5'000, 21)) engine.Insert(kKey, v);
  const EngineSnapshot snapshot = engine.RefreshSnapshot(kKey);
  const CompiledSnapshot& compiled = snapshot.compiled();
  EXPECT_EQ(compiled.NumPieces(), snapshot.model().pieces().size());
  EXPECT_EQ(compiled.TotalCount(), snapshot.model().TotalCount());
  // Bit-exact parity between the arena and a fresh compile of the model
  // it serves (compiled_snapshot_test pins the arena to the piece walk).
  const CompiledSnapshot recompiled =
      CompiledSnapshot::Compile(snapshot.model());
  for (std::int64_t lo = 0; lo < kDomain; lo += 37) {
    const std::int64_t hi = std::min<std::int64_t>(kDomain - 1, lo + 113);
    EXPECT_EQ(compiled.EstimateRange(lo, hi),
              recompiled.EstimateRange(lo, hi));
    EXPECT_EQ(snapshot.EstimateRange(lo, hi),
              recompiled.EstimateRange(lo, hi));
  }
}

TEST(HistogramEngineTest, CompiledQueriesSeePublishedEpochsLockFree) {
  // Writers publish continuously while readers hammer EstimateRange; every
  // read must be internally consistent (mass within the published range's
  // total) and the epoch sequence observed by a reader must be monotone.
  EngineOptions options = TestOptions();
  options.snapshot_every = 500;
  HistogramEngine engine(options);
  for (const std::int64_t v : ZipfValues(1'000, 24)) engine.Insert(kKey, v);
  engine.RefreshSnapshot(kKey);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread writer([&] {
    for (const std::int64_t v : ZipfValues(30'000, 25)) {
      engine.Insert(kKey, v);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  std::atomic<bool> ok{true};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<std::uint64_t>(r) + 100);
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const EngineSnapshot snap = engine.Snapshot(kKey);
        if (snap.epoch() < last_epoch) ok.store(false);
        last_epoch = snap.epoch();
        const std::int64_t lo = rng.UniformInt(0, kDomain - 1);
        const std::int64_t hi =
            std::min<std::int64_t>(kDomain - 1, lo + 200);
        const double est = engine.EstimateRange(kKey, lo, hi);
        if (!(est >= 0.0) || est > snap.TotalCount() + 31'500.0) {
          ok.store(false);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_GT(reads.load(), 0u);
  const EngineSnapshot final_snap = engine.RefreshSnapshot(kKey);
  EXPECT_EQ(final_snap.compiled().TotalCount(),
            final_snap.model().TotalCount());
}

TEST(HistogramEngineTest, KeysEnumeratesSortedRegisteredKeys) {
  HistogramEngine engine(TestOptions());
  EXPECT_TRUE(engine.Keys().empty());
  engine.Insert("zeta", 1);
  engine.Insert("alpha", 2);
  engine.Insert("mid", 3);
  const std::vector<std::string> keys = engine.Keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "alpha");
  EXPECT_EQ(keys[1], "mid");
  EXPECT_EQ(keys[2], "zeta");
}

TEST(HistogramEngineTest, PublishExternalServesTheGivenModel) {
  // PublishExternal is the aggregator's entry point: a model produced
  // outside the shard path becomes this key's published snapshot, with
  // the usual epoch bump, compiled arena, and estimate parity.
  HistogramEngine engine(TestOptions());
  const auto model = HistogramModel::FromSimpleBuckets(
      {{0.0, 10.5, 100.0}, {10.5, 40.0, 59.0}});
  const EngineSnapshot published =
      engine.PublishExternal("ext.key", model, /*watermark=*/77);
  EXPECT_EQ(published.epoch(), 1u);
  EXPECT_EQ(published.watermark(), 77u);
  EXPECT_EQ(published.compiled().NumPieces(), model.NumPieces());

  const EngineSnapshot read_back = engine.Snapshot("ext.key");
  EXPECT_EQ(read_back.epoch(), 1u);
  EXPECT_EQ(read_back.model().TotalCount(), model.TotalCount());
  // The engine's query paths serve it, bit-identical to the source.
  const CompiledSnapshot direct = CompiledSnapshot::Compile(model);
  for (std::int64_t lo = 0; lo <= 40; lo += 3) {
    EXPECT_EQ(engine.EstimateRange("ext.key", lo, lo + 11),
              direct.EstimateRange(lo, lo + 11));
  }

  // Epochs keep counting across external publications, and the
  // published-version counter advances (handle readers resync).
  const EngineSnapshot second = engine.PublishExternal(
      "ext.key", HistogramModel::FromSimpleBuckets({{0.0, 5.0, 7.0}}),
      /*watermark=*/78);
  EXPECT_EQ(second.epoch(), 2u);
  EXPECT_EQ(engine.Snapshot("ext.key").watermark(), 78u);
  EXPECT_EQ(engine.EstimateRange("ext.key", 0, 4), 7.0);
}

TEST(HistogramEngineTest, PublishExternalFlattensBucketGrouping) {
  // A snapshot holds only its compiled arena, so a model with multi-piece
  // and singular buckets is served with exactly its pieces and estimates;
  // the bucket grouping is flattened to one single-piece bucket per piece.
  HistogramEngine engine(TestOptions());
  const HistogramModel model({{0.0, 4.5, 9.0},
                              {4.5, 10.0, 3.0},
                              {10.0, 11.0, 7.0},
                              {20.0, 26.5, 12.0}},
                             {{0, 2, false}, {2, 1, true}, {3, 1, false}});
  const EngineSnapshot snap =
      engine.PublishExternal("grouped", model, /*watermark=*/5);
  const HistogramModel served = engine.Snapshot("grouped").model();
  EXPECT_EQ(served.pieces(), model.pieces());
  EXPECT_EQ(served.NumBuckets(), model.NumPieces());
  EXPECT_EQ(snap.TotalCount(), model.TotalCount());
  const CompiledSnapshot want_arena = CompiledSnapshot::Compile(model);
  const CompiledSnapshot served_arena = CompiledSnapshot::Compile(served);
  for (std::int64_t lo = -2; lo <= 28; ++lo) {
    for (const std::int64_t width : {0, 3, 11}) {
      const double want = want_arena.EstimateRange(lo, lo + width);
      EXPECT_EQ(engine.EstimateRange("grouped", lo, lo + width), want);
      EXPECT_EQ(served_arena.EstimateRange(lo, lo + width), want);
    }
  }
}

TEST(HistogramEngineTest, SnapshotModelIsTheMergerOutputForEveryBackend) {
  // model() rebuilds the published pieces from the arena; they must be
  // the merger's output bit for bit, and TotalCount() the rebuilt total.
  // Two replicas are fed the same op sequence: with one shard every op
  // reaches shard 0 in arrival order. A lone EngineShard replays the
  // engine's batches; a plain histogram fed op by op replays an engine at
  // batch_size 1. The stream mixes inserts, deletes and feedback with
  // runs of repeated identical predicates.
  for (const ShardHistogramKind kind :
       {ShardHistogramKind::kDynamicCompressed,
        ShardHistogramKind::kDynamicVOpt, ShardHistogramKind::kDynamicAdo,
        ShardHistogramKind::kStFeedback}) {
    EngineOptions options = TestOptions();
    options.shards = 1;
    options.kind = kind;
    EngineOptions op_by_op_options = options;
    op_by_op_options.batch_size = 1;
    HistogramEngine engine(options);
    HistogramEngine op_by_op_engine(op_by_op_options);
    EngineShard replica(options);
    const std::unique_ptr<Histogram> plain = MakeShardHistogram(options);
    const auto apply = [&](const UpdateOp& op) {
      testing::ApplyToEngine(engine, kKey, op);
      testing::ApplyToEngine(op_by_op_engine, kKey, op);
      replica.Push(op);
      switch (op.kind) {
        case UpdateOp::Kind::kInsert:
          plain->Insert(op.value);
          break;
        case UpdateOp::Kind::kDelete:
          plain->Delete(op.value, 1);
          break;
        case UpdateOp::Kind::kFeedback:
          plain->ApplyFeedback(op.value, op.hi, op.actual);
          break;
      }
    };
    const auto values = ZipfValues(4'000, 31);
    for (const std::int64_t v : values) apply(UpdateOp::Insert(v));
    Rng rng(8);
    for (int i = 0; i < 200; ++i) {
      // Every fourth step deletes a live value; the others observe a
      // predicate, repeated up to 4 times in a row.
      if (i % 4 == 3) {
        apply(UpdateOp::Delete(values[static_cast<std::size_t>(i)]));
        continue;
      }
      const std::int64_t lo = rng.UniformInt(0, kDomain - 50);
      const std::int64_t hi = lo + rng.UniformInt(0, 49);
      const double actual = static_cast<double>(rng.UniformInt(0, 300));
      const std::int64_t repeats = rng.UniformInt(1, 4);
      for (std::int64_t r = 0; r < repeats; ++r) {
        apply(UpdateOp::Feedback(lo, hi, actual));
      }
    }
    const EngineSnapshot snap = engine.RefreshSnapshot(kKey);
    distributed::SnapshotMerger merger;
    const HistogramModel want =
        merger.MergeAndReduce({replica.ExportModel()}, options.merged_buckets);
    const HistogramModel got = snap.model();
    ASSERT_FALSE(got.Empty()) << static_cast<int>(kind);
    EXPECT_EQ(got.pieces(), want.pieces()) << static_cast<int>(kind);
    EXPECT_EQ(snap.TotalCount(), got.TotalCount()) << static_cast<int>(kind);
    EXPECT_EQ(snap.TotalCount(), want.TotalCount()) << static_cast<int>(kind);

    const HistogramModel want_op_by_op =
        merger.MergeAndReduce({plain->Model()}, options.merged_buckets);
    EXPECT_EQ(op_by_op_engine.RefreshSnapshot(kKey).model().pieces(),
              want_op_by_op.pieces())
        << static_cast<int>(kind);
  }
}

TEST(HistogramEngineTest, PublishExternalCoexistsWithKeyHandles) {
  // A handle resolved before an external publication must observe it.
  HistogramEngine engine(TestOptions());
  const KeyHandle handle = engine.Resolve("ext.handle");
  EXPECT_EQ(engine.EstimateRange(handle, 0, 100), 0.0);
  engine.PublishExternal(
      "ext.handle",
      HistogramModel::FromSimpleBuckets({{0.0, 50.0, 500.0}}), 1);
  EXPECT_EQ(engine.EstimateRange(handle, 0, 100), 500.0);
}

}  // namespace
}  // namespace dynhist::engine
