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
// Phase 2 — slice-input BuildSsbm alone (the reduction step of every
// publish) on random slices at 512, 900 and 4,000 slices down to the
// merged budget: cost per call and per slice. Report only, no gate: the
// indexed heap is O(log n) per slice, so the per-slice cost grows slowly
// with n by design.
//
// Phase 3 — ingest throughput of coalesced batches, single writer, Zipf(1)
// stream (duplicate-heavy), swept over batch sizes, against the op-by-op
// replay (batch_size 1: every update applied alone). Report only, no gate.
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

// `n` ascending random slices: widths 1-3, some gaps, fractional counts.
std::vector<HistogramModel::Piece> RandomSlices(std::size_t n,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<HistogramModel::Piece> slices;
  slices.reserve(n);
  double x = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.2)) x += 1.0;
    const auto width = static_cast<double>(1 + rng.UniformInt(3));
    slices.push_back({x, x + width, rng.UniformDouble(0.0, 100.0)});
    x += width;
  }
  return slices;
}

double RelativeDiff(double a, double b) {
  return std::fabs(a - b) / (1.0 + std::fabs(b));
}

// Single-writer ingest throughput at one batch size.
double MeasureIngest(const std::vector<std::int64_t>& values, int batch_size) {
  EngineOptions options;
  options.shards = kShards;
  options.batch_size = batch_size;
  options.snapshot_every = 0;  // isolate ingest
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

  // ---- Phase 2: BuildSsbm per slice (report only) ----------------------
  const std::vector<double> slice_counts = {512, 900, 4'000};
  std::printf("\n%-12s%16s%16s\n", "slices", "BuildSsbm [us]", "ns/slice");
  std::vector<double> ssbm_us, ssbm_ns_per_slice;
  for (const double n : slice_counts) {
    const auto slices =
        RandomSlices(static_cast<std::size_t>(n), /*seed=*/37);
    HistogramModel reduced;
    const double us = MicrosPerCall(
        [&] { reduced = BuildSsbm(slices, kMergedBuckets); },
        /*min_seconds=*/options.quick ? 0.05 : 0.2, /*max_reps=*/2'000);
    ssbm_us.push_back(us);
    ssbm_ns_per_slice.push_back(us * 1e3 / n);
    std::printf("%-12.0f%16.1f%16.1f\n", n, us, us * 1e3 / n);
    std::fflush(stdout);
  }
  EmitJsonSeries("micro_merge_pipeline", "ssbm_us", slice_counts, ssbm_us);
  EmitJsonSeries("micro_merge_pipeline", "ssbm_ns_per_slice", slice_counts,
                 ssbm_ns_per_slice);

  // ---- Phase 3: coalesced-batch ingest --------------------------------
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
  const double op_by_op = MeasureIngest(values, /*batch_size=*/1);
  std::printf("\n%-14s%16s%14s\n", "batch", "ingest up/s", "vs op-by-op");
  std::printf("%-14s%16.0f%14.2f\n", "1 (op-by-op)", op_by_op, 1.0);
  std::vector<double> coalesced_ups;
  for (const double b : batch_sizes) {
    const int batch = static_cast<int>(b);
    const double ups = MeasureIngest(values, batch);
    coalesced_ups.push_back(ups);
    std::printf("%-14d%16.0f%14.2f\n", batch, ups, ups / op_by_op);
    std::fflush(stdout);
  }
  EmitJsonSeries("micro_merge_pipeline", "ingest_ups_coalesced", batch_sizes,
                 coalesced_ups);
  EmitJsonSeries("micro_merge_pipeline", "ingest_ups_op_by_op_batch1", {1.0},
                 {op_by_op});

  std::printf(ok ? "micro_merge_pipeline: PASS\n"
                 : "micro_merge_pipeline: FAIL\n");
  return ok ? 0 : 1;
}
