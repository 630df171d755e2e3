// Micro-benchmark: snapshot-merge (publish) cost vs attribute domain size,
// plus the coalesced-batch ingest win.
//
// Phase 1 — publish latency. An 8-shard DC fleet absorbs a uniform stream
// over domains 1e4 .. 1e7, then the two merge pipelines run over the same
// shard models:
//   pieces — piece-sweep Superimpose + streaming slice SSBM reduction
//            (SnapshotMerger, the engine's default publish path);
//   cells  — legacy range-scan Superimpose + per-integer-cell SSBM
//            reduction (the paper-literal §8 construction, kept in
//            tests/merge_reference.h as the parity reference).
// The pieces path must be domain-independent (flat latency across the
// sweep) and >= 10x faster than the legacy path at domain 1e6, while
// agreeing with it on total mass (1e-9 relative) and shape (KS <= 1e-9;
// DC borders are integer-aligned, where cell rasterization is exact).
// The bench exits nonzero if any of that fails, so check.sh catches merge-
// pipeline regressions.
//
// Phase 2 — ingest throughput with batch coalescing on vs off, single
// writer, Zipf(1) stream (duplicate-heavy), swept over batch sizes.
//
// Flags: the shared bench flags (--quick, --points=N, --json).

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/distributed/global_histogram.h"
#include "tests/merge_reference.h"

namespace dynhist::bench {
namespace {

using distributed::SnapshotMerger;
using engine::EngineOptions;
using engine::HistogramEngine;
using reference::ReduceCellsWithSsbm;
using reference::SuperimposeLegacy;

constexpr int kShards = 8;
constexpr std::int64_t kShardBuckets = 64;
constexpr std::int64_t kMergedBuckets = 64;

// splitmix64 finalizer (the engine's value-to-shard hash).
std::uint64_t MixValue(std::int64_t value) {
  auto z = static_cast<std::uint64_t>(value) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The engine's shard fleet in miniature: DC histograms (integer-aligned
// borders, so the cell grid can represent the composite exactly) fed a
// uniform stream over [0, domain).
std::vector<HistogramModel> BuildShardModels(std::int64_t domain,
                                             std::int64_t points,
                                             std::uint64_t seed) {
  std::vector<std::unique_ptr<Histogram>> shards;
  for (int s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<DynamicCompressedHistogram>(
        DynamicCompressedConfig{.buckets = kShardBuckets, .alpha_min = 1e-6}));
  }
  Rng rng(seed);
  for (std::int64_t i = 0; i < points; ++i) {
    const std::int64_t v = rng.UniformInt(0, domain - 1);
    shards[MixValue(v) % kShards]->Insert(v);
  }
  std::vector<HistogramModel> models;
  models.reserve(shards.size());
  for (const auto& shard : shards) models.push_back(shard->Model());
  return models;
}

// Times one publish flavor; runs until `min_seconds` or `max_reps`.
template <typename Fn>
double MicrosPerCall(const Fn& fn, double min_seconds, int max_reps) {
  const auto start = std::chrono::steady_clock::now();
  int reps = 0;
  do {
    fn();
    ++reps;
  } while (reps < max_reps && SecondsSince(start) < min_seconds);
  return SecondsSince(start) / static_cast<double>(reps) * 1e6;
}

double RelativeDiff(double a, double b) {
  return std::fabs(a - b) / (1.0 + std::fabs(b));
}

// Single-writer ingest throughput at one batch size.
double MeasureIngest(const std::vector<std::int64_t>& values, int batch_size,
                     bool coalesce) {
  EngineOptions options;
  options.shards = kShards;
  options.batch_size = batch_size;
  options.snapshot_every = 0;  // isolate ingest
  options.coalesce_batches = coalesce;
  HistogramEngine engine(options);
  const auto start = std::chrono::steady_clock::now();
  for (const std::int64_t v : values) engine.Insert("bench.attr", v);
  engine.FlushAll();
  return static_cast<double>(values.size()) / SecondsSince(start);
}

}  // namespace
}  // namespace dynhist::bench

int main(int argc, char** argv) {
  using namespace dynhist;
  using namespace dynhist::bench;

  const Options options = Options::FromArgs(argc, argv);
  bool ok = true;

  // ---- Phase 1: publish latency vs domain size -------------------------
  const std::vector<double> domains =
      options.quick ? std::vector<double>{1e4, 1e5, 1e6}
                    : std::vector<double>{1e4, 1e5, 1e6, 1e7};
  // The legacy path materializes one SSBM entry per covered integer cell;
  // past ~1e6 cells that is GBs of merge state, so it is measured only up
  // to 1e6 (which is where the acceptance criterion sits anyway).
  const double legacy_cap = 1e6;
  const std::int64_t points = options.quick ? 20'000 : 100'000;

  std::printf("# micro_merge_pipeline: %d DC shards x %lld buckets, "
              "%lld points, merged budget %lld\n",
              kShards, static_cast<long long>(kShardBuckets),
              static_cast<long long>(points),
              static_cast<long long>(kMergedBuckets));
  std::printf("%-12s%16s%16s%12s%14s%12s\n", "domain", "pieces [us]",
              "cells [us]", "speedup", "mass rel", "KS");

  std::vector<double> pieces_us, cells_us, cells_domains, speedups;
  double speedup_at_1e6 = 0.0;
  for (const double domain : domains) {
    const auto models = BuildShardModels(static_cast<std::int64_t>(domain),
                                         points, /*seed=*/29);
    SnapshotMerger merger;
    HistogramModel pieces_reduced;
    const double us_pieces = MicrosPerCall(
        [&] {
          pieces_reduced = merger.MergeAndReduce(models, kMergedBuckets);
        },
        /*min_seconds=*/0.2, /*max_reps=*/2'000);
    pieces_us.push_back(us_pieces);

    if (domain <= legacy_cap) {
      HistogramModel cells_reduced;
      const double us_cells = MicrosPerCall(
          [&] {
            cells_reduced = ReduceCellsWithSsbm(SuperimposeLegacy(models),
                                                kMergedBuckets);
          },
          /*min_seconds=*/0.2, /*max_reps=*/50);
      cells_us.push_back(us_cells);
      cells_domains.push_back(domain);
      const double speedup = us_cells / us_pieces;
      speedups.push_back(speedup);
      if (domain == 1e6) speedup_at_1e6 = speedup;

      const double mass_rel = RelativeDiff(pieces_reduced.TotalCount(),
                                           cells_reduced.TotalCount());
      const double ks = KsBetweenModels(pieces_reduced, cells_reduced);
      std::printf("%-12.0f%16.1f%16.1f%12.1f%14.2e%12.2e\n", domain,
                  us_pieces, us_cells, speedup, mass_rel, ks);
      if (mass_rel > 1e-9) {
        std::printf("FAIL: mass parity %.3e > 1e-9 at domain %.0f\n",
                    mass_rel, domain);
        ok = false;
      }
      if (ks > 1e-9) {
        std::printf("FAIL: KS parity %.3e > 1e-9 at domain %.0f\n", ks,
                    domain);
        ok = false;
      }
    } else {
      std::printf("%-12.0f%16.1f%16s%12s%14s%12s\n", domain, us_pieces,
                  "(skipped)", "-", "-", "-");
    }
    std::fflush(stdout);
  }
  EmitJsonSeries("micro_merge_pipeline", "publish_us_pieces", domains,
                 pieces_us);
  EmitJsonSeries("micro_merge_pipeline", "publish_us_cells", cells_domains,
                 cells_us);
  EmitJsonSeries("micro_merge_pipeline", "publish_speedup", cells_domains,
                 speedups);

  if (speedup_at_1e6 < 10.0) {
    std::printf("FAIL: speedup %.1fx < 10x at domain 1e6\n", speedup_at_1e6);
    ok = false;
  } else {
    std::printf("publish speedup at domain 1e6: %.0fx (>= 10x required)\n",
                speedup_at_1e6);
  }
  // Domain independence: the pieces path may not grow with the domain the
  // way the cell path does; allow generous noise.
  if (pieces_us.back() > 20.0 * pieces_us.front()) {
    std::printf("FAIL: pieces publish grew %.1fx from domain %.0f to %.0f\n",
                pieces_us.back() / pieces_us.front(), domains.front(),
                domains.back());
    ok = false;
  }

  // ---- Phase 2: coalesced-batch ingest --------------------------------
  const std::vector<double> batch_sizes =
      options.quick ? std::vector<double>{64, 256}
                    : std::vector<double>{64, 256, 1024};
  std::vector<std::int64_t> values;
  {
    Rng rng(31);
    const ZipfDistribution zipf(5'001, 1.0);
    values.reserve(static_cast<std::size_t>(points));
    for (std::int64_t i = 0; i < points; ++i) {
      values.push_back(static_cast<std::int64_t>(zipf.Sample(rng)));
    }
  }
  std::printf("\n%-12s%18s%18s%12s\n", "batch", "coalesced up/s",
              "faithful up/s", "speedup");
  std::vector<double> on_ups, off_ups;
  for (const double b : batch_sizes) {
    const int batch = static_cast<int>(b);
    const double on = MeasureIngest(values, batch, /*coalesce=*/true);
    const double off = MeasureIngest(values, batch, /*coalesce=*/false);
    on_ups.push_back(on);
    off_ups.push_back(off);
    std::printf("%-12d%18.0f%18.0f%12.2f\n", batch, on, off, on / off);
    std::fflush(stdout);
  }
  EmitJsonSeries("micro_merge_pipeline", "ingest_ups_coalesced", batch_sizes,
                 on_ups);
  EmitJsonSeries("micro_merge_pipeline", "ingest_ups_faithful", batch_sizes,
                 off_ups);

  std::printf(ok ? "micro_merge_pipeline: PASS\n"
                 : "micro_merge_pipeline: FAIL\n");
  return ok ? 0 : 1;
}
