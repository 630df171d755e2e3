// Micro-benchmark: concurrent engine ingest and query throughput.
//
// Three phases, each swept over a thread count of 1..16:
//   1. ingest — T writer threads split a Zipfian insert stream and push it
//      through HistogramEngine; reported as updates/sec. Run twice: with
//      the configured shard/batch layout and with a deliberately serial
//      layout (1 shard, batch 1, i.e. one global mutex) as the contention
//      baseline.
//   2. query — T reader threads issue random range estimates against the
//      published snapshot; reported as queries/sec.
//   3. accuracy — the engine's merged snapshot vs a directly-maintained
//      DADO histogram on the same stream, both scored by KS distance
//      against the exact FrequencyVector (the merge pipeline must not
//      cost accuracy).
//
// Flags: the shared bench flags (--quick, --points=N, --json) plus the
// engine's shard count via --shards=N (default 8).
//
// A fourth phase measures per-operation ingest latency around
// snapshot_every boundaries, sync vs async publish (64-bucket, 8-shard
// config, single writer): in sync mode the boundary op pays the full
// flush+Superimpose+ReduceWithSsbm merge inline; in async mode it only
// enqueues a publish request. The phase FAILS the run (nonzero exit) if
// async boundary p99 is not at least 5x lower — this is the PR-4
// acceptance gate, enforced on every scripts/check.sh run.
//
// A fifth phase gates instrumentation overhead: single-writer ingest
// with telemetry recording enabled vs disabled
// (EngineOptions::enable_telemetry), best-of-3 interleaved runs. The
// phase FAILS the run if telemetry costs more than 5% of ingest
// throughput — the telemetry-subsystem acceptance gate.
//
// A sixth phase gates the compiled query path: the same preloaded,
// published snapshot is queried three ways — through PieceWalkReplica (a
// bench-local, step-for-step copy of the engine's pre-arena string read
// path, walking the pieces with tests/piece_walk_reference.h), through
// the engine and its CompiledSnapshot arena, and against a held
// snapshot's arena directly (no registry lookup, the pure query-path
// cost). Queries are timed in batches of 64 (per-query cost is below the
// clock's own overhead) and the batch distribution yields the query p99.
// The phase FAILS the run if the arena is not >= 5x the piece-walk
// baseline — the compiled-query acceptance gate.
//
// A seventh phase gates the epoch-pinned reader fast path: the same
// published snapshot queried by 1/2/4 reader threads through three
// mechanisms — the string-keyed front door (registry find + shared_ptr
// acquire per call, the PR-7 cost), a resolved KeyHandle driving
// EstimateRangeBatch in spans of 64 (a lease in the thread-local reader
// table), and the raw arena on a held snapshot (the floor). The phase
// FAILS the run if the single-reader cached-handle rate is not >= 0.85x
// the raw arena or >= 3x the string-keyed path, or if the per-key
// lease-miss counter disagrees with the publications-observed
// accounting (each reader thread must re-acquire the shared_ptr exactly
// once for the one publication it can observe — the steady state
// performs no refcount traffic at all). These are the PR-8 acceptance
// gates.
//
// An ungated many-key lease row follows: one handle reader over 512 keys
// picked by Zipf(1.0) popularity, every key republished between passes,
// reporting the reader's q/s and its lease hit ratio (how well the
// thread-local reader table holds a hot set of that size).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "tests/piece_walk_reference.h"

namespace dynhist::bench {
namespace {

using engine::EngineOptions;
using engine::HistogramEngine;

constexpr std::int64_t kDomain = 5'001;
constexpr char kKey[] = "bench.attribute";

std::vector<std::int64_t> MakeZipfValues(std::int64_t n, double z,
                                         std::uint64_t seed) {
  Rng rng(seed);
  const ZipfDistribution zipf(static_cast<std::size_t>(kDomain), z);
  // Scatter ranks over the domain so frequency is not monotone in value.
  std::vector<std::int64_t> rank_to_value(kDomain);
  for (std::int64_t v = 0; v < kDomain; ++v) rank_to_value[v] = v;
  for (std::int64_t v = kDomain - 1; v > 0; --v) {
    std::swap(rank_to_value[v],
              rank_to_value[rng.UniformInt(static_cast<std::uint64_t>(v) + 1)]);
  }
  std::vector<std::int64_t> values;
  values.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    values.push_back(rank_to_value[zipf.Sample(rng)]);
  }
  return values;
}

double SecondsSince(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Pushes `values` through a fresh engine with `threads` writers; returns
/// updates per second.
double MeasureIngest(const EngineOptions& options,
                     const std::vector<std::int64_t>& values, int threads) {
  HistogramEngine engine(options);
  const std::size_t per_thread = values.size() / static_cast<std::size_t>(threads);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> writers;
  writers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    const std::size_t begin = static_cast<std::size_t>(t) * per_thread;
    const std::size_t end =
        t + 1 == threads ? values.size() : begin + per_thread;
    writers.emplace_back([&, begin, end] {
      for (std::size_t i = begin; i < end; ++i) {
        engine.Insert(kKey, values[i]);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  engine.FlushAll();
  const double seconds = SecondsSince(start);
  return static_cast<double>(values.size()) / seconds;
}

/// Per-op ingest latencies of one single-writer run: the overall p99 and
/// the p99/max of the boundary ops — the inserts that actually tripped
/// the snapshot_every cadence (see MeasureIngestLatency).
struct LatencyProfile {
  double overall_p99_ns = 0.0;
  double boundary_p99_ns = 0.0;
  double boundary_max_ns = 0.0;
};

double PercentileNs(std::vector<double>& sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sample.size() - 1) + 0.5);
  return sample[std::min(rank, sample.size() - 1)];
}

// Cadence trips observed so far: a sync trip publishes inline
// (publishes), an async trip enqueues or coalesces. The async counter
// must NOT include publishes — the worker bumps that concurrently, and
// the unlucky insert during which a merge *finished* (usually one the
// worker preempted on this 1-core box) would be misflagged as a boundary
// op. With a single writer each counter advances exactly when an insert
// trips the cadence in its mode.
std::uint64_t TripCount(const HistogramEngine& engine, bool async) {
  const auto stats = engine.Stats();
  return async ? stats.publish_queued + stats.publish_coalesced
               : stats.publishes;
}

LatencyProfile MeasureIngestLatency(const EngineOptions& options,
                                    const std::vector<std::int64_t>& values) {
  HistogramEngine engine(options);
  std::vector<double> latency_ns(values.size());
  // Boundary ops are identified exactly, not by index arithmetic: in
  // async mode the trip positions drift off the snapshot_every stride
  // (the publish watermark is read mid-merge and can overshoot the trip
  // count), so a fixed stride would sample ordinary inserts and miss a
  // slow enqueue path entirely. The TripCount probe costs the same few
  // atomic loads on every op of both runs, so the comparison stays fair.
  std::vector<std::uint8_t> tripped(values.size(), 0);
  std::uint64_t trips_before = TripCount(engine, options.async_publish);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    engine.Insert(kKey, values[i]);
    latency_ns[i] = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    const std::uint64_t trips_after =
        TripCount(engine, options.async_publish);
    tripped[i] = trips_after != trips_before;
    trips_before = trips_after;
  }
  engine.DrainPublishes();

  std::vector<double> boundary, overall = latency_ns;
  for (std::size_t i = 0; i < latency_ns.size(); ++i) {
    if (tripped[i]) boundary.push_back(latency_ns[i]);
  }
  LatencyProfile profile;
  profile.overall_p99_ns = PercentileNs(overall, 0.99);
  profile.boundary_p99_ns = PercentileNs(boundary, 0.99);
  profile.boundary_max_ns = boundary.empty() ? 0.0 : boundary.back();
  return profile;
}

/// Issues `queries_per_thread` random range estimates from each of
/// `threads` readers against a pre-loaded engine; returns queries/sec.
double MeasureQueries(HistogramEngine& engine, int threads,
                      std::int64_t queries_per_thread) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> readers;
  std::vector<double> sinks(static_cast<std::size_t>(threads), 0.0);
  readers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      double sink = 0.0;
      for (std::int64_t q = 0; q < queries_per_thread; ++q) {
        const std::int64_t lo = rng.UniformInt(0, kDomain - 1);
        const std::int64_t hi =
            std::min<std::int64_t>(kDomain - 1, lo + rng.UniformInt(0, 500));
        sink += engine.EstimateRange(kKey, lo, hi);
      }
      sinks[static_cast<std::size_t>(t)] = sink;  // defeat dead-code elim
    });
  }
  for (std::thread& r : readers) r.join();
  const double seconds = SecondsSince(start);
  return static_cast<double>(queries_per_thread) *
         static_cast<double>(threads) / seconds;
}

/// Random range endpoints for the single-threaded query-path phases,
/// pre-generated so the timed loops run nothing but estimation.
struct QueryPlan {
  std::vector<std::int64_t> lo, hi;

  explicit QueryPlan(std::int64_t queries) {
    Rng rng(99);
    lo.reserve(static_cast<std::size_t>(queries));
    hi.reserve(static_cast<std::size_t>(queries));
    for (std::int64_t q = 0; q < queries; ++q) {
      const std::int64_t l = rng.UniformInt(0, kDomain - 1);
      lo.push_back(l);
      hi.push_back(
          std::min<std::int64_t>(kDomain - 1, l + rng.UniformInt(0, 500)));
    }
  }
};

/// Runs `plan` through `estimate` in batches of 64 queries per clock
/// read (a single estimate is cheaper than the clock), returns queries
/// per second and, via `p99_ns`, the p99 of the per-query batch means.
template <typename EstimateFn>
double MeasurePlannedQueries(const QueryPlan& plan,
                             const EstimateFn& estimate, double* p99_ns) {
  constexpr std::size_t kBatch = 64;
  const std::size_t batches = plan.lo.size() / kBatch;
  std::vector<double> batch_query_ns(batches, 0.0);
  double sink = 0.0;
  double total_ns = 0.0;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t base = b * kBatch;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t q = base; q < base + kBatch; ++q) {
      sink += estimate(plan.lo[q], plan.hi[q]);
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    batch_query_ns[b] = ns / static_cast<double>(kBatch);
    total_ns += ns;
  }
  if (sink < 0.0) std::printf("# sink %f\n", sink);  // defeat elision
  if (p99_ns != nullptr) *p99_ns = PercentileNs(batch_query_ns, 0.99);
  return static_cast<double>(batches * kBatch) / (total_ns / 1e9);
}

/// Baseline of the compiled-query gate: the engine's string-keyed read
/// path as it was before every snapshot carried a compiled arena,
/// replicated step for step — transparent registry find under a
/// shared_mutex, acquire load of the key's atomic<shared_ptr> model,
/// the per-key query counter, the every-1024th latency sample, the
/// model's piece walk, and the fallback-query counter. The engine itself
/// holds only compiled arenas, so the gate's baseline (and its walk,
/// built once from the published arena's model) lives here; the call stays
/// out of line, like the library call it stands in for. The walk itself
/// is reference::PieceWalk, the estimator the arena replaced.
class PieceWalkReplica {
 public:
  PieceWalkReplica(std::string_view key,
                   const engine::EngineSnapshot& snapshot) {
    auto entry = std::make_unique<Entry>();
    entry->published.store(
        std::make_shared<const reference::PieceWalk>(snapshot.model()));
    registry_.emplace(std::string(key), std::move(entry));
  }

  [[gnu::noinline]] double EstimateRange(std::string_view key,
                                         std::int64_t lo,
                                         std::int64_t hi) const {
    Entry* entry = nullptr;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      const auto it = registry_.find(key);
      if (it != registry_.end()) entry = it->second.get();
    }
    if (entry == nullptr) return 0.0;
    const std::shared_ptr<const reference::PieceWalk> published =
        entry->published.load(std::memory_order_acquire);
    if (published == nullptr) return 0.0;
    const std::uint64_t qn =
        entry->queries.fetch_add(1, std::memory_order_release);
    const bool sample = sample_latency_ && (qn & 1023u) == 0u;
    const auto t0 = sample ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point();
    const double result = published->EstimateRange(lo, hi);
    if (sample) {
      latency_ns_.Record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
    entry->fallback_queries.fetch_add(1, std::memory_order_release);
    return result;
  }

 private:
  struct Entry {
    std::atomic<std::shared_ptr<const reference::PieceWalk>> published;
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> fallback_queries{0};
  };
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Entry>, StringHash,
                     std::equal_to<>>
      registry_;
  const bool sample_latency_ = true;
  mutable telemetry::LogHistogram latency_ns_{
      telemetry::LogBucketer::PowersOfTwo()};
};

/// Runs `reader` (a per-thread functor returning its accumulated sink)
/// on `threads` fresh threads, each issuing `queries_per_thread`
/// estimates; returns aggregate queries per second. Threads are spawned
/// per call so every run starts with a cold thread-local reader table —
/// the handle series pays its one re-acquire per thread inside the
/// timed region, same as a freshly connected reader would.
template <typename ReaderFn>
double MeasureReaderThreads(int threads, std::int64_t queries_per_thread,
                            const ReaderFn& reader) {
  std::vector<double> sinks(static_cast<std::size_t>(threads), 0.0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> readers;
  readers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    readers.emplace_back(
        [&, t] { sinks[static_cast<std::size_t>(t)] = reader(); });
  }
  for (std::thread& r : readers) r.join();
  const double seconds = SecondsSince(start);
  if (sinks[0] < 0.0) std::printf("# sink %f\n", sinks[0]);
  return static_cast<double>(queries_per_thread) *
         static_cast<double>(threads) / seconds;
}

/// The many-key lease row: one handle reader over `keys` keys picked by
/// Zipf(1.0) popularity, `passes` passes of `reads` single estimates, and
/// one publication of every key before each pass, so each pass starts
/// with every lease stale. Each pass runs on a fresh reader thread (a
/// warm table would not help: every leased epoch moved).
struct ZipfLeaseResult {
  double qps = 0.0;        ///< reader queries per second (reader time only)
  double hit_ratio = 0.0;  ///< lease hits / lease revalidations
};

ZipfLeaseResult MeasureZipfLeases(const EngineOptions& options,
                                  std::size_t keys, int passes,
                                  std::size_t reads) {
  HistogramEngine engine(options);
  std::vector<engine::KeyHandle> handles;
  Rng rng(29);
  for (std::size_t k = 0; k < keys; ++k) {
    const std::string name = "zipf.key." + std::to_string(k);
    std::vector<std::int64_t> values(256);
    for (std::int64_t& v : values) {
      v = static_cast<std::int64_t>(rng.UniformInt(kDomain));
    }
    engine.InsertBatch(name, values);
    handles.push_back(engine.Resolve(name));
  }
  const ZipfDistribution popularity(keys, 1.0);
  struct Read {
    std::size_t key;
    std::int64_t lo;
    std::int64_t hi;
  };
  std::vector<Read> plan(reads);
  for (Read& read : plan) {
    read.key = popularity.Sample(rng);
    read.lo = static_cast<std::int64_t>(rng.UniformInt(kDomain));
    read.hi = std::min<std::int64_t>(kDomain - 1, read.lo + 200);
  }
  const auto reader = [&] {
    double sink = 0.0;
    for (const Read& read : plan) {
      sink += engine.EstimateRange(handles[read.key], read.lo, read.hi);
    }
    return sink;
  };
  double seconds = 0.0;
  for (int pass = 0; pass < passes; ++pass) {
    for (const engine::KeyHandle& handle : handles) {
      engine.Insert(handle.key(),
                    static_cast<std::int64_t>(rng.UniformInt(kDomain)));
      engine.RefreshSnapshot(handle.key());
    }
    const auto count = static_cast<std::int64_t>(reads);
    seconds += static_cast<double>(count) /
               MeasureReaderThreads(1, count, reader);
  }
  std::uint64_t hits = 0, misses = 0;
  for (const engine::KeyHandle& handle : handles) {
    const engine::EngineStats st = engine.Stats(handle);
    hits += st.lease_hits;
    misses += st.lease_misses;
  }
  ZipfLeaseResult result;
  result.qps = static_cast<double>(reads) * passes / seconds;
  result.hit_ratio =
      static_cast<double>(hits) / static_cast<double>(hits + misses);
  return result;
}

}  // namespace
}  // namespace dynhist::bench

int main(int argc, char** argv) {
  using namespace dynhist;
  using namespace dynhist::bench;

  // Peel off the bench-local --shards flag before the shared parser sees
  // (and warns about) it.
  int shards = 8;
  std::vector<char*> shared_args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--shards=", 0) == 0) {
      shards = std::stoi(arg.substr(9));
    } else {
      shared_args.push_back(argv[i]);
    }
  }
  Options options = Options::FromArgs(
      static_cast<int>(shared_args.size()), shared_args.data());

  const std::vector<double> thread_counts =
      options.quick ? std::vector<double>{1, 2, 8}
                    : std::vector<double>{1, 2, 4, 8, 16};
  // The ingest table also has 3- and 4-writer rows (ungated): on a
  // 4-core machine 8 writers and more oversubscribe the cores, so the
  // scaling up to 4 writers needs rows of its own.
  const std::vector<double> writer_counts =
      options.quick ? std::vector<double>{1, 2, 3, 4, 8}
                    : std::vector<double>{1, 2, 3, 4, 8, 16};
  const std::vector<std::int64_t> values =
      MakeZipfValues(options.points, 1.0, /*seed=*/17);

  EngineOptions sharded;
  sharded.shards = shards;
  sharded.batch_size = 64;
  sharded.snapshot_every = options.points / 4;
  EngineOptions serial = sharded;
  serial.shards = 1;
  serial.batch_size = 1;

  std::printf("# micro_engine_throughput: %lld updates, domain %lld, "
              "%d shards, batch %d\n",
              static_cast<long long>(options.points),
              static_cast<long long>(kDomain), sharded.shards,
              sharded.batch_size);
  std::printf("%-10s%18s%18s\n", "threads", "sharded up/s", "serial up/s");
  std::vector<double> sharded_ups, serial_ups;
  for (const double t : writer_counts) {
    const int threads = static_cast<int>(t);
    sharded_ups.push_back(MeasureIngest(sharded, values, threads));
    serial_ups.push_back(MeasureIngest(serial, values, threads));
    std::printf("%-10d%18.0f%18.0f\n", threads, sharded_ups.back(),
                serial_ups.back());
    std::fflush(stdout);
  }
  EmitJsonSeries("micro_engine_throughput", "updates_per_sec_sharded",
                 writer_counts, sharded_ups);
  EmitJsonSeries("micro_engine_throughput", "updates_per_sec_serial",
                 writer_counts, serial_ups);

  // Instrumentation overhead: identical single-writer ingest with
  // telemetry recording on vs off. Interleaved best-of-3 per mode: the
  // best run is each mode's attainable rate with this container's noise
  // floored out, so the ratio isolates the recording sites (per-op
  // counter increments plus batch-granular histogram records) rather
  // than scheduler jitter.
  EngineOptions tel_on = sharded;
  EngineOptions tel_off = sharded;
  tel_off.enable_telemetry = false;
  double best_on = 0.0;
  double best_off = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    best_off = std::max(best_off, MeasureIngest(tel_off, values, 1));
    best_on = std::max(best_on, MeasureIngest(tel_on, values, 1));
  }
  const double overhead_pct =
      best_off > 0.0 ? 100.0 * (1.0 - best_on / best_off) : 0.0;
  std::printf("\ntelemetry overhead (1 writer, best of 3): on %.0f up/s, "
              "off %.0f up/s, overhead %.1f%%\n",
              best_on, best_off, overhead_pct);
  EmitJsonSeries("micro_engine_throughput", "updates_per_sec_telemetry_on",
                 {0}, {best_on});
  EmitJsonSeries("micro_engine_throughput", "updates_per_sec_telemetry_off",
                 {0}, {best_off});
  EmitJsonSeries("micro_engine_throughput", "telemetry_overhead_pct", {0},
                 {overhead_pct});
  bool telemetry_gate_ok = true;
  if (overhead_pct > 5.0) {
    std::printf("FAIL: telemetry must cost <= 5%% of ingest throughput "
                "(got %.1f%%)\n",
                overhead_pct);
    telemetry_gate_ok = false;
  }

  // Ingest latency at snapshot_every boundaries: sync publish pays the
  // merge on the writer thread; async publish enqueues and returns. Two
  // async flavors are measured:
  //   - manual-pump (merge_workers=0, queue drained untimed after the
  //     run): the writer-visible publication cost in isolation — the
  //     number a spare core would deliver, and the one the >=5x gate
  //     enforces (it measures the pipeline, not this container);
  //   - live worker (merge_workers=1), reported ungated: on this 1-core
  //     container the condvar wake usually preempts the writer at the
  //     boundary (the fresh worker has the lower vruntime) and the
  //     boundary op pays most of the merge anyway, so the series mostly
  //     documents the scheduler, not the engine.
  EngineOptions sync_lat = sharded;
  sync_lat.snapshot_every =
      std::max<std::int64_t>(64, options.points / 128);
  EngineOptions async_lat = sync_lat;
  async_lat.async_publish = true;
  async_lat.merge_workers = 0;
  EngineOptions async_worker_lat = async_lat;
  async_worker_lat.merge_workers = 1;
  const LatencyProfile sync_profile =
      MeasureIngestLatency(sync_lat, values);
  const LatencyProfile async_profile =
      MeasureIngestLatency(async_lat, values);
  const LatencyProfile worker_profile =
      MeasureIngestLatency(async_worker_lat, values);
  const double boundary_speedup =
      async_profile.boundary_p99_ns > 0.0
          ? sync_profile.boundary_p99_ns / async_profile.boundary_p99_ns
          : 0.0;
  std::printf("\ningest latency (1 writer, snapshot_every=%lld):\n",
              static_cast<long long>(sync_lat.snapshot_every));
  std::printf("%-22s%16s%16s%16s\n", "", "sync", "async",
              "async+worker");
  std::printf("%-22s%15.0fns%15.0fns%15.0fns\n", "overall p99",
              sync_profile.overall_p99_ns, async_profile.overall_p99_ns,
              worker_profile.overall_p99_ns);
  std::printf("%-22s%15.0fns%15.0fns%15.0fns\n", "boundary p99",
              sync_profile.boundary_p99_ns, async_profile.boundary_p99_ns,
              worker_profile.boundary_p99_ns);
  std::printf("%-22s%15.0fns%15.0fns%15.0fns\n", "boundary max",
              sync_profile.boundary_max_ns, async_profile.boundary_max_ns,
              worker_profile.boundary_max_ns);
  std::printf("boundary p99 speedup (sync/async enqueue path): %.1fx\n",
              boundary_speedup);
  EmitJsonSeries("micro_engine_throughput", "boundary_p99_ns_sync", {0},
                 {sync_profile.boundary_p99_ns});
  EmitJsonSeries("micro_engine_throughput", "boundary_p99_ns_async", {0},
                 {async_profile.boundary_p99_ns});
  EmitJsonSeries("micro_engine_throughput", "boundary_p99_ns_async_worker",
                 {0}, {worker_profile.boundary_p99_ns});
  EmitJsonSeries("micro_engine_throughput", "overall_p99_ns_sync", {0},
                 {sync_profile.overall_p99_ns});
  EmitJsonSeries("micro_engine_throughput", "overall_p99_ns_async", {0},
                 {async_profile.overall_p99_ns});
  EmitJsonSeries("micro_engine_throughput", "boundary_p99_speedup", {0},
                 {boundary_speedup});
  bool latency_gate_ok = true;
  if (boundary_speedup < 5.0) {
    std::printf("FAIL: async publish must cut boundary p99 latency >= 5x "
                "(got %.1fx)\n",
                boundary_speedup);
    latency_gate_ok = false;
  }

  // Query throughput against one pre-loaded, published engine.
  HistogramEngine engine(sharded);
  engine.InsertBatch(kKey, values);
  engine.RefreshSnapshot(kKey);
  const std::int64_t queries_per_thread = options.quick ? 20'000 : 100'000;
  std::printf("\n%-10s%18s\n", "threads", "queries/s");
  std::vector<double> qps;
  for (const double t : thread_counts) {
    qps.push_back(MeasureQueries(engine, static_cast<int>(t),
                                 queries_per_thread));
    std::printf("%-10d%18.0f\n", static_cast<int>(t), qps.back());
    std::fflush(stdout);
  }
  EmitJsonSeries("micro_engine_throughput", "queries_per_sec", thread_counts,
                 qps);

  // Compiled query path: the same published model queried through the
  // piece walk (PieceWalkReplica — the pre-arena baseline) and through
  // the CompiledSnapshot arena, engine-path and snapshot-held.
  const engine::EngineSnapshot held = engine.Snapshot(kKey);
  const PieceWalkReplica walk_path(kKey, held);
  const std::int64_t plan_queries = options.quick ? 512 * 1024 : 2'048 * 1024;
  const QueryPlan plan(plan_queries);

  // Best-of-3 interleaved, the same discipline as the telemetry gate: on
  // a noisy 1-core container each mode's best run is its attainable rate,
  // so the ratio compares the code paths rather than scheduler luck. The
  // reported p99 is the one from each mode's best run.
  double walk_p99 = 0.0, engine_p99 = 0.0, arena_p99 = 0.0;
  double walk_qps = 0.0, compiled_engine_qps = 0.0, arena_qps = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    double p99 = 0.0;
    const double walk = MeasurePlannedQueries(
        plan,
        [&](std::int64_t lo, std::int64_t hi) {
          return walk_path.EstimateRange(kKey, lo, hi);
        },
        &p99);
    if (walk > walk_qps) { walk_qps = walk; walk_p99 = p99; }
    const double eng = MeasurePlannedQueries(
        plan,
        [&](std::int64_t lo, std::int64_t hi) {
          return engine.EstimateRange(kKey, lo, hi);
        },
        &p99);
    if (eng > compiled_engine_qps) { compiled_engine_qps = eng; engine_p99 = p99; }
    const double arena = MeasurePlannedQueries(
        plan,
        [&](std::int64_t lo, std::int64_t hi) {
          return held.EstimateRange(lo, hi);
        },
        &p99);
    if (arena > arena_qps) { arena_qps = arena; arena_p99 = p99; }
  }
  const double query_speedup = walk_qps > 0.0 ? arena_qps / walk_qps : 0.0;
  const double engine_path_speedup =
      walk_qps > 0.0 ? compiled_engine_qps / walk_qps : 0.0;
  std::printf("\nquery path (1 thread, %lld planned queries, batches of "
              "64, best of 3):\n",
              static_cast<long long>(plan_queries));
  std::printf("%-28s%14s%14s\n", "", "queries/s", "p99 ns/query");
  std::printf("%-28s%14.0f%14.1f\n", "engine, piece walk", walk_qps,
              walk_p99);
  std::printf("%-28s%14.0f%14.1f\n", "engine, compiled arena",
              compiled_engine_qps, engine_p99);
  std::printf("%-28s%14.0f%14.1f\n", "held snapshot, arena", arena_qps,
              arena_p99);
  std::printf("query speedup: arena/walk %.1fx, engine-path/walk %.1fx\n",
              query_speedup, engine_path_speedup);
  EmitJsonSeries("micro_engine_throughput", "queries_per_sec_piece_walk",
                 {0}, {walk_qps});
  EmitJsonSeries("micro_engine_throughput",
                 "queries_per_sec_compiled_engine", {0},
                 {compiled_engine_qps});
  EmitJsonSeries("micro_engine_throughput",
                 "queries_per_sec_compiled_snapshot", {0}, {arena_qps});
  EmitJsonSeries("micro_engine_throughput", "query_p99_ns_piece_walk", {0},
                 {walk_p99});
  EmitJsonSeries("micro_engine_throughput", "query_p99_ns_compiled_engine",
                 {0}, {engine_p99});
  EmitJsonSeries("micro_engine_throughput",
                 "query_p99_ns_compiled_snapshot", {0}, {arena_p99});
  EmitJsonSeries("micro_engine_throughput", "query_speedup", {0},
                 {query_speedup});
  EmitJsonSeries("micro_engine_throughput", "query_speedup_engine_path",
                 {0}, {engine_path_speedup});
  bool query_gate_ok = true;
  if (query_speedup < 5.0) {
    std::printf("FAIL: compiled snapshot queries must be >= 5x the "
                "piece-walk engine path (got %.1fx)\n",
                query_speedup);
    query_gate_ok = false;
  }

  // Epoch-pinned reader fast path: the same published snapshot queried
  // through the string-keyed front door, through a resolved KeyHandle in
  // EstimateRangeBatch spans of 64 (one lease revalidation and one
  // counter settle per span), and against the held snapshot's arena (the
  // floor the lease path chases). Single-reader numbers are best-of-3
  // interleaved and gated; 2- and 4-reader runs extend each series to
  // show the scaling shape (on this 1-core container that is timeslicing,
  // not parallelism — the interesting signal is that the handle path does
  // not degrade, having no shared cache line to bounce).
  constexpr std::size_t kSpan = 64;
  std::vector<engine::RangeQuery> spans(plan.lo.size());
  for (std::size_t q = 0; q < plan.lo.size(); ++q) {
    spans[q] = {plan.lo[q], plan.hi[q]};
  }
  const engine::KeyHandle handle = engine.Resolve(kKey);
  const std::int64_t span_queries =
      static_cast<std::int64_t>(spans.size() / kSpan * kSpan);
  int handle_reader_threads = 0;  // drives the lease-accounting gate
  const auto string_reader = [&] {
    double sink = 0.0;
    for (std::size_t q = 0; q < static_cast<std::size_t>(span_queries);
         ++q) {
      sink += engine.EstimateRange(kKey, plan.lo[q], plan.hi[q]);
    }
    return sink;
  };
  const auto handle_reader = [&] {
    double sink = 0.0;
    double out[kSpan];
    for (std::size_t base = 0; base + kSpan <= spans.size();
         base += kSpan) {
      engine.EstimateRangeBatch(handle, spans.data() + base, kSpan, out);
      for (std::size_t i = 0; i < kSpan; ++i) sink += out[i];
    }
    return sink;
  };
  const auto arena_reader = [&] {
    double sink = 0.0;
    for (std::size_t q = 0; q < static_cast<std::size_t>(span_queries);
         ++q) {
      sink += held.EstimateRange(plan.lo[q], plan.hi[q]);
    }
    return sink;
  };
  const std::uint64_t lease_misses_before = engine.Stats(handle).lease_misses;
  double string_qps1 = 0.0, handle_qps1 = 0.0, arena_qps1 = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    string_qps1 = std::max(
        string_qps1, MeasureReaderThreads(1, span_queries, string_reader));
    handle_qps1 = std::max(
        handle_qps1, MeasureReaderThreads(1, span_queries, handle_reader));
    ++handle_reader_threads;
    arena_qps1 = std::max(
        arena_qps1, MeasureReaderThreads(1, span_queries, arena_reader));
  }
  std::vector<double> reader_threads = {1, 2, 4};
  std::vector<double> string_qps = {string_qps1};
  std::vector<double> handle_qps = {handle_qps1};
  std::vector<double> arena_qps_series = {arena_qps1};
  for (const int threads : {2, 4}) {
    string_qps.push_back(
        MeasureReaderThreads(threads, span_queries, string_reader));
    handle_qps.push_back(
        MeasureReaderThreads(threads, span_queries, handle_reader));
    handle_reader_threads += threads;
    arena_qps_series.push_back(
        MeasureReaderThreads(threads, span_queries, arena_reader));
  }
  const double handle_vs_arena =
      arena_qps1 > 0.0 ? handle_qps1 / arena_qps1 : 0.0;
  const double handle_vs_string =
      string_qps1 > 0.0 ? handle_qps1 / string_qps1 : 0.0;
  std::printf("\nreader fast path (%lld planned queries/thread, handle "
              "spans of %zu):\n",
              static_cast<long long>(span_queries), kSpan);
  std::printf("%-10s%18s%18s%18s\n", "threads", "string-key q/s",
              "cached-handle q/s", "raw arena q/s");
  for (std::size_t i = 0; i < reader_threads.size(); ++i) {
    std::printf("%-10d%18.0f%18.0f%18.0f\n",
                static_cast<int>(reader_threads[i]), string_qps[i],
                handle_qps[i], arena_qps_series[i]);
  }
  std::printf("cached handle vs raw arena %.2fx, vs string key %.1fx "
              "(1 reader)\n",
              handle_vs_arena, handle_vs_string);
  EmitJsonSeries("micro_engine_throughput", "reader_qps_string_key",
                 reader_threads, string_qps);
  EmitJsonSeries("micro_engine_throughput", "reader_qps_cached_handle",
                 reader_threads, handle_qps);
  EmitJsonSeries("micro_engine_throughput", "reader_qps_raw_arena",
                 reader_threads, arena_qps_series);
  EmitJsonSeries("micro_engine_throughput", "handle_vs_arena_ratio", {0},
                 {handle_vs_arena});
  EmitJsonSeries("micro_engine_throughput", "handle_vs_string_speedup", {0},
                 {handle_vs_string});
  bool handle_gate_ok = true;
  if (handle_vs_arena < 0.85) {
    std::printf("FAIL: cached-handle batch queries must reach >= 0.85x "
                "the raw arena (got %.2fx)\n",
                handle_vs_arena);
    handle_gate_ok = false;
  }
  if (handle_vs_string < 3.0) {
    std::printf("FAIL: cached-handle batch queries must be >= 3x the "
                "string-keyed path (got %.1fx)\n",
                handle_vs_string);
    handle_gate_ok = false;
  }
  // Steady-state accounting: the key has published exactly once, so each
  // handle reader thread re-acquires the shared_ptr exactly once (its
  // cold slot observing that publication) and every later span is a
  // lease hit — misses track publications observed, not queries.
  const std::uint64_t lease_misses =
      engine.Stats(handle).lease_misses - lease_misses_before;
  std::printf("lease misses %llu across %d handle reader threads "
              "(1 publication each)\n",
              static_cast<unsigned long long>(lease_misses),
              handle_reader_threads);
  EmitJsonSeries("micro_engine_throughput", "lease_misses_per_run", {0},
                 {static_cast<double>(lease_misses)});
  if (lease_misses != static_cast<std::uint64_t>(handle_reader_threads)) {
    std::printf("FAIL: lease misses must equal publications observed "
                "(expected %d, got %llu)\n",
                handle_reader_threads,
                static_cast<unsigned long long>(lease_misses));
    handle_gate_ok = false;
  }

  // Many-key lease row (ungated): reported, not judged.
  constexpr std::size_t kZipfKeys = 512;
  constexpr std::size_t kZipfReads = 65'536;
  const int zipf_passes = options.quick ? 4 : 16;
  const ZipfLeaseResult zipf =
      MeasureZipfLeases(sharded, kZipfKeys, zipf_passes, kZipfReads);
  std::printf("\nmany-key leases (1 handle reader, %zu Zipf(1.0) keys, "
              "every key republished before each of %d passes of %zu "
              "reads): %.0f q/s, lease hit ratio %.3f\n",
              kZipfKeys, zipf_passes, kZipfReads, zipf.qps, zipf.hit_ratio);
  EmitJsonSeries("micro_engine_throughput", "zipf_lease_qps", {0},
                 {zipf.qps});
  EmitJsonSeries("micro_engine_throughput", "zipf_lease_hit_ratio", {0},
                 {zipf.hit_ratio});

  // Accuracy: engine snapshot vs directly-maintained DADO, same stream.
  FrequencyVector truth(kDomain);
  DynamicVOptHistogram direct(
      DynamicVOptConfig{.buckets = 64, .policy = DeviationPolicy::kAbsolute});
  for (const std::int64_t v : values) {
    truth.Insert(v);
    direct.Insert(v);
  }
  const double ks_direct = KsStatistic(truth, direct.Model());
  const double ks_engine =
      KsStatistic(truth, engine.RefreshSnapshot(kKey).model());
  std::printf("\nKS vs truth: direct DADO %.6f, engine snapshot %.6f\n",
              ks_direct, ks_engine);
  EmitJsonSeries("micro_engine_throughput", "ks_direct", {0}, {ks_direct});
  EmitJsonSeries("micro_engine_throughput", "ks_engine", {0}, {ks_engine});
  return latency_gate_ok && telemetry_gate_ok && query_gate_ok &&
                 handle_gate_ok
             ? 0
             : 1;
}
