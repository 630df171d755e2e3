// CompiledSnapshot parity and primitive tests.
//
// The compiled arena's contract is bit-identical answers to the model's
// piece walk (compiled_snapshot.h, "Parity contract"); the suite pins
// every comparison to <= 1e-12 and, where the claim is load-bearing
// (fractional borders, gaps), to exact equality. The branch-free
// upper_bound primitives are checked directly against std::upper_bound,
// duplicates included, on both the scalar and the runtime-dispatched
// (possibly AVX2) entry points.

#include "src/histogram/compiled_snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/distributed/frame.h"
#include "src/histogram/dynamic_compressed.h"
#include "src/histogram/dynamic_vopt.h"
#include "src/histogram/model.h"

namespace dynhist {
namespace {

using compiled_internal::UpperBound;
using compiled_internal::UpperBound2;
using compiled_internal::UpperBoundScalar;

std::size_t StdUpperBound(const std::vector<double>& a, double x) {
  return static_cast<std::size_t>(
      std::upper_bound(a.begin(), a.end(), x) - a.begin());
}

TEST(UpperBoundPrimitive, MatchesStdOnRandomArraysWithDuplicates) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n =
        1 + static_cast<std::size_t>(rng.UniformInt(std::uint64_t{40}));
    std::vector<double> a(n);
    double acc = rng.UniformDouble(-50.0, 50.0);
    for (std::size_t i = 0; i < n; ++i) {
      // Step 0 with probability ~1/3 => runs of duplicates.
      if (!rng.Bernoulli(1.0 / 3.0)) acc += rng.UniformDouble(0.0, 3.0);
      a[i] = acc;
    }
    std::vector<double> probes;
    for (const double v : a) {
      probes.push_back(v);  // exact border hits
      probes.push_back(std::nextafter(v, -1e300));
      probes.push_back(std::nextafter(v, 1e300));
    }
    probes.push_back(a.front() - 10.0);
    probes.push_back(a.back() + 10.0);
    for (int p = 0; p < 20; ++p) {
      probes.push_back(rng.UniformDouble(a.front() - 2.0, a.back() + 2.0));
    }
    for (const double x : probes) {
      const std::size_t want = StdUpperBound(a, x);
      EXPECT_EQ(UpperBoundScalar(a.data(), n, x), want) << "n=" << n;
      EXPECT_EQ(UpperBound(a.data(), n, x), want) << "n=" << n;
    }
    // The fused dual search agrees with two single searches, in both
    // argument orders.
    for (std::size_t i = 0; i + 1 < probes.size(); i += 2) {
      std::size_t i1 = 0, i2 = 0;
      UpperBound2(a.data(), n, probes[i], probes[i + 1], &i1, &i2);
      EXPECT_EQ(i1, StdUpperBound(a, probes[i]));
      EXPECT_EQ(i2, StdUpperBound(a, probes[i + 1]));
    }
  }
}

// Exhaustive parity of one model vs its compiled form over integer probes
// covering the support and a margin past both ends. Exact equality: the
// arena replays the model's arithmetic operation for operation.
void ExpectExactParity(const HistogramModel& model, std::int64_t lo_probe,
                       std::int64_t hi_probe) {
  const CompiledSnapshot compiled = CompiledSnapshot::Compile(model);
  EXPECT_EQ(compiled.TotalCount(), model.TotalCount());
  EXPECT_EQ(compiled.NumPieces(), model.pieces().size());
  for (std::int64_t v = lo_probe; v <= hi_probe; ++v) {
    const double x = static_cast<double>(v) + 0.25;  // interior of cells
    EXPECT_EQ(compiled.CdfMass(static_cast<double>(v)),
              model.CdfMass(static_cast<double>(v)))
        << "CdfMass at " << v;
    EXPECT_EQ(compiled.CdfMass(x), model.CdfMass(x))
        << "CdfMass at " << x;
    EXPECT_EQ(compiled.EstimatePoint(v), model.EstimatePoint(v))
        << "point " << v;
  }
  Rng rng(42);
  for (int q = 0; q < 500; ++q) {
    const std::int64_t a = rng.UniformInt(lo_probe, hi_probe);
    const std::int64_t b = rng.UniformInt(lo_probe, hi_probe);
    const std::int64_t lo = std::min(a, b), hi = std::max(a, b);
    const double got = compiled.EstimateRange(lo, hi);
    const double want = model.EstimateRange(lo, hi);
    EXPECT_EQ(got, want) << "range [" << lo << ", " << hi << "]";
    EXPECT_NEAR(got, want, 1e-12);  // the ISSUE-level contract, redundantly
  }
}

TEST(CompiledSnapshotParity, DynamicCompressed) {
  DynamicCompressedHistogram h(DynamicCompressedConfig{32, 1e-6});
  Rng rng(11);
  const ZipfDistribution zipf(2000, 0.9);
  for (int i = 0; i < 30000; ++i) {
    h.Insert(static_cast<std::int64_t>(zipf.Sample(rng)));
  }
  ExpectExactParity(h.Model(), -5, 2005);
}

TEST(CompiledSnapshotParity, DynamicVOptSquared) {
  DynamicVOptHistogram h(
      DynamicVOptConfig{32, DeviationPolicy::kSquared, 2});
  Rng rng(12);
  const ZipfDistribution zipf(2000, 1.2);
  for (int i = 0; i < 30000; ++i) {
    h.Insert(static_cast<std::int64_t>(zipf.Sample(rng)));
  }
  for (int i = 0; i < 5000; ++i) {
    h.Delete(static_cast<std::int64_t>(zipf.Sample(rng)), 1);
  }
  ExpectExactParity(h.Model(), -5, 2005);
}

TEST(CompiledSnapshotParity, DynamicAdo) {
  DynamicVOptHistogram h(
      DynamicVOptConfig{48, DeviationPolicy::kAbsolute, 2});
  Rng rng(13);
  const ZipfDistribution zipf(2000, 0.5);
  for (int i = 0; i < 30000; ++i) {
    h.Insert(static_cast<std::int64_t>(zipf.Sample(rng)));
  }
  ExpectExactParity(h.Model(), -5, 2005);
}

// DVO split/merge and SSBM reduction both produce borders at arbitrary
// fractional positions. Build a model with deliberately awkward borders
// (thirds, sevenths, subnormal-adjacent widths) and gaps, and require
// exact equality everywhere — this is where a reimplementation that
// normalized widths or reassociated the interpolation would diverge.
TEST(CompiledSnapshotParity, AdversarialFractionalBordersAndGaps) {
  std::vector<HistogramModel::Piece> pieces = {
      {0.0, 1.0 / 3.0, 4.5},
      {1.0 / 3.0, 2.0 / 7.0 + 0.5, 11.25},
      // gap: (2/7 + 0.5, 3.1)
      {3.1, 3.1000000001, 2.0},  // near-degenerate width
      {7.0, 10.0 + 1.0 / 9.0, 0.75},
      {10.0 + 1.0 / 9.0, 1000.25, 123456.789},
  };
  const HistogramModel model =
      HistogramModel::FromSimpleBuckets(std::move(pieces));
  const CompiledSnapshot compiled = CompiledSnapshot::Compile(model);
  Rng rng(99);
  for (int q = 0; q < 5000; ++q) {
    const double x = rng.UniformDouble(-2.0, 1004.0);
    EXPECT_EQ(compiled.CdfMass(x), model.CdfMass(x)) << "x=" << x;
  }
  // Probes inside the gap and exactly on every border.
  for (const auto& p : model.pieces()) {
    EXPECT_EQ(compiled.CdfMass(p.left), model.CdfMass(p.left));
    EXPECT_EQ(compiled.CdfMass(p.right), model.CdfMass(p.right));
  }
  EXPECT_EQ(compiled.CdfMass(1.0), model.CdfMass(1.0));  // inside the gap
  EXPECT_EQ(compiled.TotalCount(), model.TotalCount());
}

TEST(CompiledSnapshot, ZeroMassCoveredRangesAnswerZero) {
  const HistogramModel model = HistogramModel::FromSimpleBuckets(
      {{0.0, 10.0, 0.0}, {10.0, 20.0, 5.0}, {20.0, 30.0, 0.0}});
  const CompiledSnapshot compiled = CompiledSnapshot::Compile(model);
  EXPECT_EQ(compiled.EstimateRange(0, 8), 0.0);
  EXPECT_EQ(compiled.EstimateRange(21, 29), 0.0);
  EXPECT_EQ(compiled.EstimateRange(0, 29), 5.0);
  EXPECT_EQ(compiled.EstimateRange(0, 29), model.EstimateRange(0, 29));
  EXPECT_EQ(compiled.CdfMass(25.0), model.CdfMass(25.0));
}

TEST(CompiledSnapshot, EmptyModelCompilesAndAnswersZero) {
  const CompiledSnapshot compiled =
      CompiledSnapshot::Compile(HistogramModel());
  EXPECT_EQ(compiled.NumPieces(), 0u);
  EXPECT_EQ(compiled.TotalCount(), 0.0);
  EXPECT_EQ(compiled.CdfMass(123.0), 0.0);
  EXPECT_EQ(compiled.EstimateRange(-1000, 1000), 0.0);
  EXPECT_EQ(compiled.EstimatePoint(0), 0.0);
  EXPECT_TRUE(compiled.ToModel().Empty());
}

TEST(CompiledSnapshot, DefaultConstructedIsTheEmptyArena) {
  // There is no "absent" arena: a default-constructed one is exactly the
  // compiled empty model — same bytes, same answers, same frame.
  const CompiledSnapshot empty;
  const CompiledSnapshot compiled =
      CompiledSnapshot::Compile(HistogramModel());
  EXPECT_EQ(empty, compiled);
  EXPECT_EQ(empty.NumPieces(), 0u);
  EXPECT_EQ(empty.TotalCount(), 0.0);
  EXPECT_EQ(empty.CdfMass(5.0), 0.0);
  EXPECT_EQ(empty.EstimateRange(0, 10), 0.0);
  ASSERT_NE(empty.rows(), nullptr);
  const CompiledSnapshot::Row sentinel = empty.rows()[0];
  EXPECT_EQ(sentinel.left, 0.0);
  EXPECT_EQ(sentinel.count, 0.0);
  EXPECT_EQ(sentinel.width, 1.0);
  EXPECT_EQ(sentinel.prefix, 0.0);
  distributed::FrameHeader header;
  header.key = "k";
  EXPECT_EQ(distributed::EncodeFrame(header, empty),
            distributed::EncodeFrame(header, HistogramModel()));
}

TEST(CompiledSnapshot, ToModelRebuildsPiecesBitForBit) {
  // Fractional borders, a gap, a zero-count piece, and multi-piece and
  // singular buckets: the rebuilt model has the same pieces, one
  // single-piece bucket each, and the same total.
  const HistogramModel model(
      {{0.0, 1.0, 3.0}, {1.0, 2.5, 0.0}, {4.125, 7.0, 11.0}, {7.0, 8.0, 2.0}},
      {{0, 2, false}, {2, 1, false}, {3, 1, true}});
  const HistogramModel rebuilt = CompiledSnapshot::Compile(model).ToModel();
  EXPECT_EQ(rebuilt.pieces(), model.pieces());
  ASSERT_EQ(rebuilt.NumBuckets(), model.NumPieces());
  for (std::size_t b = 0; b < rebuilt.NumBuckets(); ++b) {
    EXPECT_EQ(rebuilt.buckets()[b].num_pieces, 1u);
    EXPECT_FALSE(rebuilt.buckets()[b].singular);
  }
  EXPECT_EQ(rebuilt.TotalCount(), model.TotalCount());
  EXPECT_EQ(CompiledSnapshot::Compile(rebuilt),
            CompiledSnapshot::Compile(model));
}

TEST(CompiledSnapshot, OutOfSupportAndInvertedRanges) {
  const HistogramModel model =
      HistogramModel::FromSimpleBuckets({{100.0, 200.0, 50.0}});
  const CompiledSnapshot compiled = CompiledSnapshot::Compile(model);
  EXPECT_EQ(compiled.EstimateRange(0, 99), model.EstimateRange(0, 99));
  EXPECT_EQ(compiled.EstimateRange(0, 99), 0.0);
  EXPECT_EQ(compiled.EstimateRange(200, 500),
            model.EstimateRange(200, 500));
  EXPECT_EQ(compiled.EstimateRange(-50, 400), 50.0);
  EXPECT_EQ(compiled.EstimateRange(10, 5), 0.0);  // hi < lo
  // Far past the sentinel: a total-mass read.
  EXPECT_EQ(compiled.CdfMass(1e18), model.TotalCount());
  EXPECT_EQ(compiled.CdfMass(-1e18), 0.0);
}

TEST(CompiledSnapshot, CopyAndMovePreserveAnswers) {
  const HistogramModel model = HistogramModel::FromSimpleBuckets(
      {{0.0, 2.5, 7.0}, {2.5, 9.0, 3.0}});
  CompiledSnapshot original = CompiledSnapshot::Compile(model);
  const double want = original.EstimateRange(1, 8);

  CompiledSnapshot copy(original);
  EXPECT_EQ(copy, original);
  EXPECT_EQ(copy.EstimateRange(1, 8), want);
  EXPECT_NE(copy.borders(), original.borders());  // distinct arenas

  CompiledSnapshot assigned;
  assigned = copy;
  EXPECT_EQ(assigned.EstimateRange(1, 8), want);

  CompiledSnapshot moved(std::move(original));
  EXPECT_EQ(moved, copy);
  EXPECT_EQ(moved.EstimateRange(1, 8), want);

  assigned = std::move(moved);
  EXPECT_EQ(assigned.EstimateRange(1, 8), want);
}

TEST(CompiledSnapshot, ArenaViewsExposeLayout) {
  const HistogramModel model = HistogramModel::FromSimpleBuckets(
      {{0.0, 1.0, 2.0}, {1.0, 4.0, 6.0}, {4.0, 5.0, 1.0}});
  const CompiledSnapshot compiled = CompiledSnapshot::Compile(model);
  ASSERT_EQ(compiled.NumPieces(), 3u);
  const double* rights = compiled.borders();
  const CompiledSnapshot::Row* rows = compiled.rows();
  ASSERT_NE(rights, nullptr);
  EXPECT_EQ(rights[0], 1.0);
  EXPECT_EQ(rights[1], 4.0);
  EXPECT_EQ(rights[2], 5.0);
  EXPECT_EQ(rows[0].prefix, 0.0);
  EXPECT_EQ(rows[1].prefix, 2.0);
  EXPECT_EQ(rows[2].prefix, 8.0);
  EXPECT_EQ(rows[3].prefix, 9.0);  // sentinel carries the total
  EXPECT_EQ(rows[3].count, 0.0);
  EXPECT_EQ(compiled.TotalCount(), 9.0);
  // 64-byte alignment of the arena start (the borders array).
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(rights) % 64, 0u);
}

TEST(CompiledSnapshot, SimdDispatchReportsAndAgrees) {
  // Whichever leg cpuid picked, it must agree with the scalar one (the
  // random-array test above already exercises both via UpperBound; this
  // pins the dispatch itself on a large array that forces the AVX2
  // descent-to-window path when active).
  SCOPED_TRACE(compiled_internal::SimdActive() ? "avx2" : "scalar");
  Rng rng(5);
  std::vector<double> a(1000);
  double acc = 0.0;
  for (auto& v : a) v = (acc += rng.UniformDouble(0.0, 1.0));
  for (int q = 0; q < 2000; ++q) {
    const double x = rng.UniformDouble(-1.0, acc + 1.0);
    EXPECT_EQ(UpperBound(a.data(), a.size(), x),
              UpperBoundScalar(a.data(), a.size(), x));
  }
}

}  // namespace
}  // namespace dynhist
