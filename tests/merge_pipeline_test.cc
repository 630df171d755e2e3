// Parity suite for the domain-independent snapshot-merge pipeline: the
// piece-sweep Superimpose must reproduce the legacy range-scan
// superposition, and the streaming (piece-slice) SSBM reduction must
// reproduce the legacy per-integer-cell reduction wherever the cell grid
// can represent the composite — across DC/DVO/DADO shard mixes, gaps, and
// adversarial border overlaps.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/distributed/global_histogram.h"
#include "src/histogram/dynamic_compressed.h"
#include "src/histogram/dynamic_vopt.h"
#include "src/histogram/histogram.h"
#include "src/histogram/ssbm.h"
#include "src/metrics/ks.h"
#include "tests/merge_reference.h"
#include "tests/test_util.h"

namespace dynhist::distributed {
namespace {

using Piece = HistogramModel::Piece;
using reference::ReduceCellsWithSsbm;
using reference::SuperimposeLegacy;

// Replays a Zipf(z) insert stream (optionally with interleaved deletes of
// previously inserted values) into `histogram` and returns its model.
HistogramModel ReplayModel(Histogram& histogram, std::int64_t domain,
                           std::int64_t points, double z, double delete_prob,
                           std::uint64_t seed) {
  Rng rng(seed);
  const ZipfDistribution zipf(static_cast<std::size_t>(domain), z);
  std::vector<std::int64_t> live;
  for (std::int64_t i = 0; i < points; ++i) {
    const auto v = static_cast<std::int64_t>(zipf.Sample(rng));
    histogram.Insert(v);
    live.push_back(v);
    if (!live.empty() && delete_prob > 0.0 && rng.Bernoulli(delete_prob)) {
      const auto pick = static_cast<std::size_t>(
          rng.UniformInt(static_cast<std::uint64_t>(live.size())));
      histogram.Delete(live[pick], 1);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  return histogram.Model();
}

// A mixed fleet of shard models: DC, DVO, and DADO instances fed disjoint
// seeds over a common domain — the engine's publish input in miniature.
std::vector<HistogramModel> MixedShardModels(std::int64_t domain,
                                             std::int64_t points_per_shard,
                                             double delete_prob,
                                             std::uint64_t seed) {
  std::vector<HistogramModel> models;
  for (int i = 0; i < 2; ++i) {
    DynamicCompressedHistogram dc(
        DynamicCompressedConfig{.buckets = 32, .alpha_min = 1e-6});
    models.push_back(ReplayModel(dc, domain, points_per_shard, 1.0,
                                 delete_prob, seed + 10 * static_cast<std::uint64_t>(i)));
    DynamicVOptHistogram dvo(DynamicVOptConfig{
        .buckets = 32, .policy = DeviationPolicy::kSquared, .sub_buckets = 2});
    models.push_back(ReplayModel(dvo, domain, points_per_shard, 0.5,
                                 delete_prob, seed + 10 * static_cast<std::uint64_t>(i) + 1));
    DynamicVOptHistogram dado(DynamicVOptConfig{
        .buckets = 32, .policy = DeviationPolicy::kAbsolute, .sub_buckets = 2});
    models.push_back(ReplayModel(dado, domain, points_per_shard, 1.5,
                                 delete_prob, seed + 10 * static_cast<std::uint64_t>(i) + 2));
  }
  return models;
}

// DC-only fleet: every border integer-aligned, so cell rasterization is
// exact and the two reduction flavors must coincide.
std::vector<HistogramModel> DcShardModels(std::int64_t domain,
                                          std::int64_t points_per_shard,
                                          double delete_prob,
                                          std::uint64_t seed) {
  std::vector<HistogramModel> models;
  for (int i = 0; i < 5; ++i) {
    DynamicCompressedHistogram dc(
        DynamicCompressedConfig{.buckets = 32, .alpha_min = 1e-6});
    models.push_back(ReplayModel(dc, domain, points_per_shard, 1.0,
                                 delete_prob,
                                 seed + static_cast<std::uint64_t>(i)));
  }
  return models;
}

void ExpectSuperimposeParity(const std::vector<HistogramModel>& models) {
  const HistogramModel sweep = Superimpose(models);
  const HistogramModel legacy = SuperimposeLegacy(models);
  ASSERT_FALSE(sweep.Empty());
  EXPECT_TRUE(testing::ModelIsValid(sweep));
  EXPECT_NEAR(sweep.TotalCount(), legacy.TotalCount(),
              1e-9 * (1.0 + legacy.TotalCount()));
  EXPECT_LT(KsBetweenModels(sweep, legacy), 1e-9);
  // Spot-probe the CDF at and between every legacy border.
  for (const Piece& p : legacy.pieces()) {
    EXPECT_NEAR(sweep.CdfMass(p.left), legacy.CdfMass(p.left),
                1e-9 * (1.0 + legacy.TotalCount()));
    const double mid = 0.5 * (p.left + p.right);
    EXPECT_NEAR(sweep.CdfMass(mid), legacy.CdfMass(mid),
                1e-9 * (1.0 + legacy.TotalCount()));
  }
}

TEST(PieceSweepSuperimposeTest, MatchesLegacyOnMixedShardFleet) {
  ExpectSuperimposeParity(MixedShardModels(2'001, 4'000, 0.0, 7));
}

TEST(PieceSweepSuperimposeTest, MatchesLegacyUnderDeletes) {
  ExpectSuperimposeParity(MixedShardModels(2'001, 4'000, 0.25, 19));
}

TEST(PieceSweepSuperimposeTest, MatchesLegacyOnDcFleet) {
  ExpectSuperimposeParity(DcShardModels(5'001, 4'000, 0.1, 3));
}

TEST(PieceSweepSuperimposeTest, AdversarialBorderOverlaps) {
  // Shared borders, nested pieces, fractional borders, zero-count pieces,
  // and disjoint supports, all in one fleet.
  const auto a = HistogramModel::FromSimpleBuckets(
      {{0.0, 10.0, 5.0}, {10.0, 20.0, 0.0}, {20.0, 30.0, 7.0}});
  const auto b = HistogramModel::FromSimpleBuckets(
      {{5.0, 10.0, 3.0}, {10.0, 12.5, 2.0}, {12.5, 30.0, 1.0}});
  const auto c = HistogramModel::FromSimpleBuckets({{7.25, 7.75, 4.0}});
  const auto d = HistogramModel::FromSimpleBuckets(
      {{40.0, 50.0, 6.0}});  // disjoint, leaves a [30, 40) gap
  const std::vector<HistogramModel> models = {a, b, c, d};
  ExpectSuperimposeParity(models);

  const HistogramModel sweep = Superimpose(models);
  // Sum-of-CDFs losslessness at adversarial probe points.
  for (const double x : {0.0, 5.0, 7.25, 7.5, 7.75, 10.0, 12.5, 15.0, 20.0,
                         29.999, 30.0, 35.0, 40.0, 45.0, 50.0}) {
    double want = 0.0;
    for (const HistogramModel& m : models) want += m.CdfMass(x);
    EXPECT_NEAR(sweep.CdfMass(x), want, 1e-9) << "x=" << x;
  }
  // The [30, 40) region is covered by no input: it must stay a gap.
  bool has_gap_piece = false;
  for (const Piece& p : sweep.pieces()) {
    if (p.left >= 30.0 && p.right <= 40.0) has_gap_piece = true;
  }
  EXPECT_FALSE(has_gap_piece);
}

TEST(PieceSweepSuperimposeTest, KeepsZeroMassCoveredRanges) {
  // An input piece with zero count is still covered support: the sweep
  // keeps it (the legacy path silently dropped it, shrinking MinBorder/
  // MaxBorder). The CDF is unaffected either way.
  const auto a = HistogramModel::FromSimpleBuckets(
      {{0.0, 10.0, 0.0}, {10.0, 20.0, 5.0}, {20.0, 30.0, 0.0}});
  const HistogramModel sweep = Superimpose({a});
  const HistogramModel legacy = SuperimposeLegacy({a});
  EXPECT_DOUBLE_EQ(sweep.MinBorder(), 0.0);
  EXPECT_DOUBLE_EQ(sweep.MaxBorder(), 30.0);
  EXPECT_DOUBLE_EQ(legacy.MinBorder(), 10.0);  // legacy shrinks support
  EXPECT_DOUBLE_EQ(legacy.MaxBorder(), 20.0);
  EXPECT_DOUBLE_EQ(sweep.TotalCount(), 5.0);
  EXPECT_LT(KsBetweenModels(sweep, legacy), 1e-12);
}

TEST(PieceSweepSuperimposeTest, EmptyAndSingleInputs) {
  EXPECT_TRUE(Superimpose({}).Empty());
  EXPECT_TRUE(Superimpose({HistogramModel()}).Empty());
  const auto a = HistogramModel::FromSimpleBuckets({{3.0, 8.0, 2.5}});
  const HistogramModel u = Superimpose({HistogramModel(), a});
  EXPECT_DOUBLE_EQ(u.TotalCount(), 2.5);
  EXPECT_LT(KsBetweenModels(u, a), 1e-12);
}

TEST(PieceSweepSuperimposeTest, DegenerateInputsPinnedAcrossThePipeline) {
  // PR 9 regression pins: a site fleet that has published nothing yet
  // (or whose engines are all empty) flows through the whole merge
  // pipeline — superposition, both reductions, the merger — and
  // must come out as a well-formed empty model, never an abort. The
  // aggregator leans on this when frames race ahead of data.
  EXPECT_TRUE(Superimpose({HistogramModel(), HistogramModel()}).Empty());
  EXPECT_TRUE(SuperimposeLegacy({}).Empty());
  EXPECT_TRUE(
      SuperimposeLegacy({HistogramModel(), HistogramModel()}).Empty());

  // Reducing an empty composite is a no-op in both reductions.
  EXPECT_TRUE(ReduceWithSsbm(HistogramModel(), 64).Empty());
  EXPECT_TRUE(ReduceCellsWithSsbm(HistogramModel(), 64).Empty());

  // The stateful merger (the aggregator's actual entry point).
  SnapshotMerger merger;
  EXPECT_TRUE(merger.Superimpose({}).Empty());
  EXPECT_TRUE(merger.MergeAndReduce({}, 64).Empty());
  EXPECT_TRUE(ReduceCellsWithSsbm(merger.Superimpose({}), 64).Empty());
  EXPECT_TRUE(
      merger.MergeAndReduce({HistogramModel(), HistogramModel()}, 64).Empty());
  // A merger that just saw empties still merges real input correctly.
  const auto a = HistogramModel::FromSimpleBuckets({{3.0, 8.0, 2.5}});
  const HistogramModel u =
      merger.MergeAndReduce({HistogramModel(), a}, 64);
  EXPECT_DOUBLE_EQ(u.TotalCount(), 2.5);
  EXPECT_LT(KsBetweenModels(u, a), 1e-12);
}

TEST(StreamingReduceTest, PiecesMatchCellsBitForBitOnCellAlignedFleet) {
  const auto models = DcShardModels(2'001, 4'000, 0.1, 11);
  const HistogramModel composite = Superimpose(models);
  for (const std::int64_t buckets : {8, 16, 32, 64}) {
    const HistogramModel pieces = ReduceWithSsbm(composite, buckets);
    const HistogramModel cells = ReduceCellsWithSsbm(composite, buckets);
    EXPECT_NEAR(pieces.TotalCount(), cells.TotalCount(),
                1e-9 * (1.0 + cells.TotalCount()));
    EXPECT_LT(KsBetweenModels(pieces, cells), 1e-9) << buckets << " buckets";
    EXPECT_LE(pieces.NumBuckets(), static_cast<std::size_t>(buckets));
  }
}

TEST(StreamingReduceTest, PiecesTrackCellsQualityOnMixedFleet) {
  // DVO/DADO sub-bucket fragments can carry fractional borders the integer
  // cell grid cannot represent, so the two reductions legitimately differ
  // there — but both must stay in the same quality class relative to the
  // lossless composite (the piece path is the more faithful of the two:
  // rasterization redistributes mass within cells before reducing).
  const auto models = MixedShardModels(2'001, 4'000, 0.1, 23);
  const HistogramModel composite = Superimpose(models);
  for (const std::int64_t buckets : {16, 64}) {
    const HistogramModel pieces = ReduceWithSsbm(composite, buckets);
    const HistogramModel cells = ReduceCellsWithSsbm(composite, buckets);
    EXPECT_NEAR(pieces.TotalCount(), cells.TotalCount(),
                1e-6 * (1.0 + cells.TotalCount()));
    const double ks_pieces = KsBetweenModels(pieces, composite);
    const double ks_cells = KsBetweenModels(cells, composite);
    EXPECT_LE(ks_pieces, ks_cells + 0.01) << buckets << " buckets";
  }
}

TEST(StreamingReduceTest, BudgetAbovePieceCountIsExact) {
  const auto a = HistogramModel::FromSimpleBuckets(
      {{0.0, 4.0, 8.0}, {4.0, 6.0, 1.0}, {9.0, 12.0, 6.0}});
  const HistogramModel reduced = ReduceWithSsbm(a, 16);
  EXPECT_LT(KsBetweenModels(reduced, a), 1e-12);
  EXPECT_DOUBLE_EQ(reduced.TotalCount(), a.TotalCount());
}

TEST(StreamingReduceTest, DropsZeroMassPieces) {
  // Zero-density support kept by Superimpose is empty space to SSBM (the
  // cell path always filtered it); the reduced support is the nonzero
  // support under both reductions.
  const auto a = HistogramModel::FromSimpleBuckets(
      {{0.0, 10.0, 0.0}, {10.0, 20.0, 5.0}, {20.0, 30.0, 0.0}});
  const HistogramModel pieces = ReduceWithSsbm(a, 4);
  const HistogramModel cells = ReduceCellsWithSsbm(a, 4);
  EXPECT_DOUBLE_EQ(pieces.MinBorder(), 10.0);
  EXPECT_DOUBLE_EQ(pieces.MaxBorder(), 20.0);
  EXPECT_LT(KsBetweenModels(pieces, cells), 1e-9);
}

TEST(SnapshotMergerTest, ReusedMergerMatchesFreeFunctions) {
  SnapshotMerger merger;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto models = MixedShardModels(1'001, 2'000, 0.2, seed);
    const HistogramModel composite = merger.Superimpose(models);
    EXPECT_LT(KsBetweenModels(composite, Superimpose(models)), 1e-12);
    const HistogramModel reduced = merger.MergeAndReduce(models, 32);
    const HistogramModel want = ReduceWithSsbm(Superimpose(models), 32);
    EXPECT_NEAR(reduced.TotalCount(), want.TotalCount(), 1e-9);
    EXPECT_LT(KsBetweenModels(reduced, want), 1e-12);
    // buckets <= 0 publishes the composite unreduced.
    const HistogramModel unreduced = merger.MergeAndReduce(models, 0);
    EXPECT_LT(KsBetweenModels(unreduced, composite), 1e-12);
  }
}

TEST(SliceSsbmTest, UnitSlicesReproducePerValueSsbmExactly) {
  // The ValueFreq overload now routes through the slice core; feeding the
  // equivalent unit slices by hand must give identical buckets.
  Rng rng(5);
  std::vector<ValueFreq> entries;
  std::int64_t v = 0;
  for (int i = 0; i < 300; ++i) {
    v += 1 + static_cast<std::int64_t>(rng.UniformInt(4));
    entries.push_back({v, static_cast<double>(1 + rng.UniformInt(50))});
  }
  std::vector<Piece> slices;
  for (const ValueFreq& e : entries) {
    const double left = static_cast<double>(e.value);
    slices.push_back({left, left + 1.0, e.freq});
  }
  for (const auto policy :
       {DeviationPolicy::kSquared, DeviationPolicy::kAbsolute}) {
    SsbmOptions options;
    options.policy = policy;
    const HistogramModel a = BuildSsbm(entries, 24, options);
    const HistogramModel b = BuildSsbm(slices, 24, options);
    ASSERT_EQ(a.NumBuckets(), b.NumBuckets());
    ASSERT_EQ(a.NumPieces(), b.NumPieces());
    for (std::size_t i = 0; i < a.pieces().size(); ++i) {
      EXPECT_EQ(a.pieces()[i], b.pieces()[i]);
    }
  }
}

}  // namespace
}  // namespace dynhist::distributed
