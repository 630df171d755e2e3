// Tests for the epoch-pinned reader fast path: KeyHandle resolution, the
// snapshot leases in the thread-local reader table (hit/miss accounting,
// revalidation on publish, slots shared by colliding keys, epochs never
// ahead of the visible snapshot), the batch query API, and the unified
// unknown/no-snapshot fallback.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/engine/histogram_engine.h"
#include "src/histogram/compiled_snapshot.h"

namespace dynhist::engine {
namespace {

constexpr std::int64_t kDomain = 1'001;
constexpr char kKey[] = "t.a";

EngineOptions TestOptions() {
  EngineOptions options;
  options.shards = 4;
  options.batch_size = 16;
  options.snapshot_every = 0;  // publish manually for determinism
  return options;
}

TEST(EngineHandleTest, ResolveReturnsStableValidHandle) {
  HistogramEngine engine(TestOptions());
  const KeyHandle none;
  EXPECT_FALSE(none.valid());
  EXPECT_EQ(none.key(), "");

  const KeyHandle h = engine.Resolve(kKey);
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(h.key(), kKey);
  EXPECT_EQ(h.epoch(), 0u);
  // Resolving the same key again yields the same underlying state.
  EXPECT_EQ(engine.Resolve(kKey), h);
  // Resolve creates: the key now exists with zero traffic.
  EXPECT_EQ(engine.Stats(kKey).keys, 1u);
}

// The acceptance probe for "zero shared_ptr ops in steady state": lease
// misses track publications observed, not queries. Single-threaded, so
// the counts are exact.
TEST(EngineHandleTest, LeaseMissesCountPublishesObservedNotQueries) {
  internal::ReleaseThreadLeases();
  HistogramEngine engine(TestOptions());
  for (int i = 0; i < 1'000; ++i) engine.Insert(kKey, i % kDomain);
  engine.RefreshSnapshot(kKey);  // publish #1
  const KeyHandle h = engine.Resolve(kKey);

  for (int q = 0; q < 100; ++q) engine.EstimateRange(h, 0, kDomain);
  engine.RefreshSnapshot(kKey);  // publish #2
  for (int q = 0; q < 100; ++q) engine.EstimateEquals(h, 7);

  const EngineStats st = engine.Stats(h);
  EXPECT_EQ(st.publishes, 2u);
  EXPECT_EQ(st.queries, 200u);
  // One miss per publication observed (the first, against the cold slot,
  // observed publish #1; the 101st observed publish #2) — every other
  // revalidation is a hit on the cached pointer.
  EXPECT_EQ(st.lease_misses, st.publishes);
  EXPECT_EQ(st.lease_hits, st.queries - st.lease_misses);
}

// A post-publish read on the publishing thread can never be served a
// pre-publish snapshot: the epoch is stored after the pointer swap, so
// the very next revalidation re-acquires.
TEST(EngineHandleTest, LeaseRevalidatesImmediatelyOnPublish) {
  internal::ReleaseThreadLeases();
  HistogramEngine engine(TestOptions());
  const KeyHandle h = engine.Resolve(kKey);

  for (int i = 0; i < 100; ++i) engine.Insert(kKey, 5);
  engine.RefreshSnapshot(kKey);
  EXPECT_EQ(engine.EstimateRange(h, 0, kDomain), 100.0);
  EXPECT_EQ(engine.LeasedSnapshot(h).epoch(), 1u);

  for (int i = 0; i < 50; ++i) engine.Insert(kKey, 9);
  engine.RefreshSnapshot(kKey);
  // No interleaving reader warmed the lease; the first post-publish read
  // must already reflect the new epoch's mass.
  EXPECT_EQ(engine.EstimateRange(h, 0, kDomain), 150.0);
  EXPECT_EQ(engine.LeasedSnapshot(h).epoch(), 2u);
}

// Handles stay valid across publishes, RefreshAll, and option flips, and
// answer bit-identically to the string-keyed path at every epoch.
TEST(EngineHandleTest, HandleSurvivesPublishesAndRefreshAll) {
  HistogramEngine engine(TestOptions());
  const KeyHandle h = engine.Resolve(kKey);
  engine.SetKeyOptions(h, {.merged_buckets = 32});
  EXPECT_EQ(engine.EffectiveOptions(h).merged_buckets, 32);

  Rng rng(7);
  for (int epoch = 1; epoch <= 10; ++epoch) {
    for (int i = 0; i < 2'000; ++i) {
      engine.Insert(kKey, static_cast<std::int64_t>(
                              rng.UniformInt(0, kDomain - 1)));
    }
    if (epoch % 2 == 0) {
      engine.RefreshAll();
    } else {
      engine.RefreshSnapshot(kKey);
    }
    for (int q = 0; q < 32; ++q) {
      const auto lo =
          static_cast<std::int64_t>(rng.UniformInt(0, kDomain - 1));
      const auto hi = std::min<std::int64_t>(kDomain - 1, lo + 100);
      EXPECT_EQ(engine.EstimateRange(h, lo, hi),
                engine.EstimateRange(kKey, lo, hi));
    }
  }
  EXPECT_EQ(h.epoch(), 10u);
}

// Round-robin over 4,096 keys, eight times the reader table's slots, so
// colliding keys keep taking each other's slot between visits: every
// handle read still answers from that key's published snapshot, each
// handle's leased epochs are monotone, and every read is counted as
// exactly one lease hit or miss.
TEST(EngineHandleTest, ManyKeysThroughHandlesStayExactAndMonotone) {
  internal::ReleaseThreadLeases();
  HistogramEngine engine(TestOptions());
  constexpr std::size_t kKeys = 4'096;
  std::vector<KeyHandle> handles;
  std::vector<std::uint64_t> last_epoch(kKeys, 0);
  for (std::size_t k = 0; k < kKeys; ++k) {
    handles.push_back(engine.Resolve("key." + std::to_string(k)));
  }

  constexpr int kRounds = 4;
  std::uint64_t reads = 0;
  for (int round = 0; round < kRounds; ++round) {
    // A third of the keys gain mass and publish before each round, so
    // leases go stale while their slots are shared.
    for (std::size_t k = 0; k < kKeys; ++k) {
      if ((k + static_cast<std::size_t>(round)) % 3 != 0) continue;
      const auto value = static_cast<std::int64_t>(k % kDomain);
      for (std::size_t i = 0; i <= k % 5; ++i) {
        engine.Insert(handles[k].key(), value);
      }
      engine.RefreshSnapshot(handles[k].key());
    }
    for (std::size_t k = 0; k < kKeys; ++k) {
      const EngineSnapshot published = engine.Snapshot(handles[k].key());
      const auto value = static_cast<std::int64_t>(k % kDomain);
      ASSERT_EQ(engine.EstimateRange(handles[k], 0, kDomain),
                published.EstimateRange(0, kDomain))
          << "key " << k << " round " << round;
      ASSERT_EQ(engine.EstimateEquals(handles[k], value),
                published.EstimateEquals(value))
          << "key " << k << " round " << round;
      const std::uint64_t epoch = engine.LeasedSnapshot(handles[k]).epoch();
      ASSERT_EQ(epoch, published.epoch()) << "key " << k;
      ASSERT_GE(epoch, last_epoch[k]) << "key " << k;
      last_epoch[k] = epoch;
      reads += 3;
    }
  }

  EngineStats total;
  for (const KeyHandle& h : handles) {
    const EngineStats st = engine.Stats(h);
    total.lease_hits += st.lease_hits;
    total.lease_misses += st.lease_misses;
  }
  EXPECT_EQ(total.lease_hits + total.lease_misses, reads);
  EXPECT_GT(total.lease_misses, 0u);
}

// A handle's epoch is never ahead of the snapshot a later read can see:
// the publication stores the epoch only after swapping the pointer. One
// publisher and several readers; each reader reads h.epoch() first and
// then requires the leased, the string-keyed and the scalar-estimate
// views to be at least that new.
TEST(EngineHandleTest, HandleEpochNeverAheadOfVisibleSnapshot) {
  HistogramEngine engine(TestOptions());
  const KeyHandle h = engine.Resolve(kKey);
  constexpr int kReaders = 3;
  constexpr int kEpochs = 200;

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t e = h.epoch();
        if (engine.LeasedSnapshot(h).epoch() < e) ++violations;
        if (engine.Snapshot(kKey).epoch() < e) ++violations;
        // Epoch e holds e * 10 tuples: a read at or after it sees them.
        if (engine.EstimateRange(h, 0, kDomain) <
            static_cast<double>(e) * 10.0 - 0.5) {
          ++violations;
        }
      }
    });
  }

  for (int e = 0; e < kEpochs; ++e) {
    for (int i = 0; i < 10; ++i) engine.Insert(kKey, (e * 10 + i) % kDomain);
    engine.RefreshSnapshot(kKey);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(h.epoch(), static_cast<std::uint64_t>(kEpochs));
}

// One read path: every engine read is answered by the published arena,
// bit-identical to the model it was compiled from. Per backend, the
// oracle is snapshot.model().EstimateRange, and string, handle, batch,
// leased, held-snapshot, epoch-0 and externally published reads must all
// equal it exactly. Batch counters settle once per span, not per query.
TEST(EngineHandleTest, EveryReadPathMatchesThePublishedModel) {
  for (const ShardHistogramKind kind :
       {ShardHistogramKind::kDynamicCompressed,
        ShardHistogramKind::kDynamicVOpt, ShardHistogramKind::kDynamicAdo,
        ShardHistogramKind::kStFeedback}) {
    SCOPED_TRACE(static_cast<int>(kind));
    EngineOptions options = TestOptions();
    options.kind = kind;
    HistogramEngine engine(options);
    const KeyHandle h = engine.Resolve(kKey);
    Rng rng(21);
    std::vector<RangeQuery> queries;
    for (int q = 0; q < 256; ++q) {
      const auto lo =
          static_cast<std::int64_t>(rng.UniformInt(0, kDomain - 1));
      queries.push_back(
          {lo, std::min<std::int64_t>(kDomain - 1, lo + 200)});
    }

    // Epoch 0: the shared empty view answers 0 everywhere, on every path.
    const EngineSnapshot empty = engine.Snapshot(kKey);
    ASSERT_EQ(empty.epoch(), 0u);
    EXPECT_EQ(empty.compiled().NumPieces(), 0u);
    const CompiledSnapshot empty_oracle =
        CompiledSnapshot::Compile(empty.model());
    for (const RangeQuery& q : queries) {
      const double oracle = empty_oracle.EstimateRange(q.lo, q.hi);
      EXPECT_EQ(engine.EstimateRange(kKey, q.lo, q.hi), oracle);
      EXPECT_EQ(engine.EstimateRange(h, q.lo, q.hi), oracle);
      EXPECT_EQ(empty.EstimateRange(q.lo, q.hi), oracle);
    }

    for (int i = 0; i < 20'000; ++i) {
      engine.Insert(kKey, static_cast<std::int64_t>(
                              rng.UniformInt(0, kDomain - 1)));
    }
    for (int i = 0; i < 200; ++i) {  // trains STF; no-op elsewhere
      const auto lo =
          static_cast<std::int64_t>(rng.UniformInt(0, kDomain - 1));
      const std::int64_t hi = std::min<std::int64_t>(kDomain - 1, lo + 50);
      engine.RecordFeedback(h, lo, hi,
                            static_cast<double>(rng.UniformInt(0, 2'000)));
    }
    const EngineSnapshot snap = engine.RefreshSnapshot(kKey);
    ASSERT_GT(snap.TotalCount(), 0.0);
    const EngineSnapshot leased = engine.LeasedSnapshot(h);
    ASSERT_EQ(leased.epoch(), snap.epoch());
    engine.PublishExternal("ext", snap.model());
    const KeyHandle ext = engine.Resolve("ext");

    const EngineStats before = engine.Stats(h);
    const std::vector<double> batch = engine.EstimateRangeBatch(h, queries);
    EXPECT_EQ(engine.Stats(h).queries, before.queries + queries.size());
    const std::vector<double> ext_batch =
        engine.EstimateRangeBatch(ext, queries);
    const CompiledSnapshot snap_oracle =
        CompiledSnapshot::Compile(snap.model());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const auto [lo, hi] = queries[q];
      const double oracle = snap_oracle.EstimateRange(lo, hi);
      EXPECT_EQ(engine.EstimateRange(kKey, lo, hi), oracle) << q;
      EXPECT_EQ(engine.EstimateRange(h, lo, hi), oracle) << q;
      EXPECT_EQ(batch[q], oracle) << q;
      EXPECT_EQ(snap.EstimateRange(lo, hi), oracle) << q;
      EXPECT_EQ(leased.EstimateRange(lo, hi), oracle) << q;
      EXPECT_EQ(engine.EstimateRange("ext", lo, hi), oracle) << q;
      EXPECT_EQ(ext_batch[q], oracle) << q;
      const double point = snap_oracle.EstimateRange(lo, lo);
      EXPECT_EQ(engine.EstimateEquals(kKey, lo), point) << q;
      EXPECT_EQ(engine.EstimateEquals(h, lo), point) << q;
    }
    // Empty span: no lease touch, no counters.
    const std::uint64_t settled = engine.Stats(h).queries;
    engine.EstimateRangeBatch(h, nullptr, 0, nullptr);
    EXPECT_EQ(engine.Stats(h).queries, settled);
    EXPECT_EQ(engine.Stats().fallback_queries, 0u);
  }
}

// The regression pinned by the satellite fix: an unknown key and a known
// key with no published snapshot used to take different fallback paths;
// both now answer 0.0 and count in unknown_queries, and nothing is
// charged to the key until a snapshot actually serves.
TEST(EngineHandleTest, UnknownAndUnpublishedFallbacksUnified) {
  HistogramEngine engine(TestOptions());
  EXPECT_EQ(engine.EstimateRange("ghost", 0, 10), 0.0);  // unknown key
  engine.Insert("real", 5);                  // known key, never published
  EXPECT_EQ(engine.EstimateRange("real", 0, 10), 0.0);
  const KeyHandle h = engine.Resolve("real");
  EXPECT_EQ(engine.EstimateRange(h, 0, 10), 0.0);
  std::vector<RangeQuery> span(3, RangeQuery{0, 10});
  for (const double r : engine.EstimateRangeBatch(h, span)) {
    EXPECT_EQ(r, 0.0);
  }

  EngineStats st = engine.Stats();
  EXPECT_EQ(st.unknown_queries, 6u);  // 1 ghost + 2 scalar + 3 batch
  EXPECT_EQ(st.queries, 6u);          // global count includes them...
  EXPECT_EQ(engine.Stats("real").queries, 0u);  // ...the key's does not

  engine.RefreshSnapshot("real");
  EXPECT_EQ(engine.EstimateRange(h, 0, 10), 1.0);
  EXPECT_EQ(engine.Stats("real").queries, 1u);
  EXPECT_EQ(engine.Stats().unknown_queries, 6u);  // frozen once served
}

// N readers through cached handles against a publishing writer: each
// reader's observed epoch sequence is monotone (the lease is never ahead
// of, and never regresses behind, what the thread already saw), while
// estimates keep serving lock-free.
TEST(EngineHandleTest, ConcurrentReadersObserveMonotoneEpochs) {
  EngineOptions options = TestOptions();
  HistogramEngine engine(options);
  const KeyHandle h = engine.Resolve(kKey);
  constexpr int kReaders = 3;
  constexpr int kEpochs = 40;

  std::atomic<bool> stop{false};
  std::atomic<bool> regressed{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      double sink = 0.0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t epoch = engine.LeasedSnapshot(h).epoch();
        if (epoch < last) regressed.store(true);
        last = epoch;
        sink += engine.EstimateRange(h, 0, kDomain);
      }
      if (sink < 0.0) std::abort();  // keep the reads observable
    });
  }

  Rng rng(3);
  for (int e = 0; e < kEpochs; ++e) {
    for (int i = 0; i < 500; ++i) {
      engine.Insert(kKey, static_cast<std::int64_t>(
                              rng.UniformInt(0, kDomain - 1)));
    }
    engine.RefreshSnapshot(kKey);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(regressed.load());
  EXPECT_EQ(engine.Snapshot(kKey).epoch(),
            static_cast<std::uint64_t>(kEpochs));
  // The writer thread's own lease observed every publish it performed
  // between queries; across all threads, misses can never exceed the
  // revalidations that had a new version to observe.
  const EngineStats st = engine.Stats(h);
  EXPECT_GT(st.lease_hits, 0u);
  EXPECT_LE(st.lease_misses,
            static_cast<std::uint64_t>(kEpochs) * (kReaders + 1) +
                kReaders + 1);
}

// The lease metrics ride the standard exposition: per-key hit/miss
// counters and the lease-staleness gauge (publications no reader lease
// has observed yet).
TEST(EngineHandleTest, LeaseMetricsExposed) {
  internal::ReleaseThreadLeases();
  HistogramEngine engine(TestOptions());
  for (int i = 0; i < 64; ++i) engine.Insert("k", i);
  engine.RefreshSnapshot("k");
  const KeyHandle h = engine.Resolve("k");
  for (int q = 0; q < 10; ++q) engine.EstimateRange(h, 0, kDomain);

  std::string text;
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(text.find("dynhist_key_snapshot_lease_hits_total{key=\"k\"} 9"),
            std::string::npos);
  EXPECT_NE(
      text.find("dynhist_key_snapshot_lease_misses_total{key=\"k\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("dynhist_snapshot_lease_hits_total 9"),
            std::string::npos);
  EXPECT_NE(text.find("dynhist_snapshot_lease_misses_total 1"),
            std::string::npos);
  // Reader is current: staleness 0. A publish nobody has read: 1.
  EXPECT_NE(
      text.find("dynhist_key_lease_staleness_versions{key=\"k\"} 0"),
      std::string::npos);
  engine.RefreshSnapshot("k");
  text.clear();
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(
      text.find("dynhist_key_lease_staleness_versions{key=\"k\"} 1"),
      std::string::npos);
  engine.EstimateRange(h, 0, 1);  // revalidates; fleet is current again
  text.clear();
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(
      text.find("dynhist_key_lease_staleness_versions{key=\"k\"} 0"),
      std::string::npos);
}

// PublishExternal enters the same publish tail as shard-path refreshes,
// so the whole KeyHandle/lease lifecycle must be indistinguishable: a
// handle resolved before the key ever had a snapshot observes each
// external version, each publication advances the epoch exactly once
// (staleness 0 -> 1 -> 0 around an unread publish), and the
// revalidation shows up as one lease miss followed by pure hits.
TEST(EngineHandleTest, ExternalPublicationsDriveLeaseLifecycle) {
  internal::ReleaseThreadLeases();
  HistogramEngine engine(TestOptions());

  // Pre-resolved handle on a key with no snapshot yet: empty fallback.
  const KeyHandle h = engine.Resolve("ext");
  EXPECT_EQ(h.epoch(), 0u);
  EXPECT_EQ(engine.EstimateRange(h, 0, 100), 0.0);

  const EngineSnapshot first = engine.PublishExternal(
      "ext", HistogramModel::FromSimpleBuckets({{0.0, 50.0, 500.0}}),
      /*watermark=*/7);
  EXPECT_EQ(first.epoch(), 1u);

  // Unread publication: the staleness gauge reports one version the
  // reader fleet has not observed.
  std::string text;
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(
      text.find("dynhist_key_lease_staleness_versions{key=\"ext\"} 1"),
      std::string::npos);

  // The stale pre-resolved handle revalidates (one miss) and serves the
  // external model; repeated reads are lease hits, staleness drops to 0.
  const EngineStats before = engine.Stats(h);
  EXPECT_EQ(engine.EstimateRange(h, 0, 100), 500.0);
  for (int q = 0; q < 5; ++q) engine.EstimateRange(h, 0, 100);
  const EngineStats after = engine.Stats(h);
  EXPECT_EQ(after.lease_misses - before.lease_misses, 1u);
  EXPECT_EQ(after.lease_hits - before.lease_hits, 5u);
  text.clear();
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(
      text.find("dynhist_key_lease_staleness_versions{key=\"ext\"} 0"),
      std::string::npos);

  // Next external version: epoch and watermark advance, the same handle
  // flips to the new model on its next read, and the gauge round-trips
  // 0 -> 1 -> 0 again.
  const EngineSnapshot second = engine.PublishExternal(
      "ext", HistogramModel::FromSimpleBuckets({{0.0, 25.0, 40.0}}),
      /*watermark=*/9);
  EXPECT_EQ(second.epoch(), 2u);
  EXPECT_EQ(engine.Snapshot("ext").watermark(), 9u);
  text.clear();
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(
      text.find("dynhist_key_lease_staleness_versions{key=\"ext\"} 1"),
      std::string::npos);
  EXPECT_EQ(engine.EstimateRange(h, 0, 100), 40.0);
  text.clear();
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(
      text.find("dynhist_key_lease_staleness_versions{key=\"ext\"} 0"),
      std::string::npos);
}

}  // namespace
}  // namespace dynhist::engine
