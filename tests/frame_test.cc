// Frame codec suite: round-trip fidelity and decode paranoia.
//
// The decoder fronts untrusted network bytes for a model type whose
// constructor aborts on invariant violations, so the negative half of
// this suite is the safety argument: truncation at every prefix
// length, every single-bit flip of a valid frame, and field-targeted
// corruptions (with the checksum re-sealed so validation — not the
// checksum — must catch them) all must come back as typed errors, and
// a kOk decode must reconstruct the model bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/data/frequency_vector.h"
#include "src/distributed/frame.h"
#include "src/histogram/compiled_snapshot.h"
#include "src/histogram/dynamic_compressed.h"
#include "src/histogram/dynamic_vopt.h"
#include "src/histogram/histogram.h"
#include "src/histogram/model.h"
#include "src/metrics/ks.h"

namespace dynhist::distributed {
namespace {

using Piece = HistogramModel::Piece;

FrameHeader TestHeader() {
  FrameHeader h;
  h.site_id = 7;
  h.key = "orders.amount";
  h.epoch = 42;
  h.watermark = 123456789;
  return h;
}

// A realistic model: DC histogram over a Zipf stream, fractional
// borders and all.
HistogramModel SampleModel() {
  Rng rng(11);
  const ZipfDistribution zipf(2000, 1.0);
  DynamicCompressedHistogram dc(
      DynamicCompressedConfig{.buckets = 32, .alpha_min = 1e-6});
  for (int i = 0; i < 20000; ++i) {
    dc.Insert(static_cast<std::int64_t>(zipf.Sample(rng)));
  }
  return dc.Model();
}

// Flips bit `bit` of byte `index`.
std::string FlipBit(std::string frame, std::size_t index, int bit) {
  frame[index] = static_cast<char>(
      static_cast<unsigned char>(frame[index]) ^ (1u << bit));
  return frame;
}

// Overwrites the f64 at `offset` and re-seals the frame, so structural
// validation (not the checksum) has to reject it.
std::string PatchF64(std::string frame, std::size_t offset, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    frame[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((bits >> (8 * i)) & 0xff);
  }
  frame_internal::PatchChecksum(&frame);
  return frame;
}

TEST(FrameCodecTest, RoundTripsModelBitForBit) {
  const HistogramModel model = SampleModel();
  ASSERT_GT(model.NumPieces(), 10u);
  const FrameHeader header = TestHeader();
  const std::string frame = EncodeFrame(header, model);
  EXPECT_EQ(frame.size(), FrameBytesFor(header.key.size(),
                                        model.NumPieces()));

  DecodedFrame decoded;
  ASSERT_EQ(DecodeFrame(frame, &decoded), FrameError::kOk);
  EXPECT_EQ(decoded.header.site_id, header.site_id);
  EXPECT_EQ(decoded.header.key, header.key);
  EXPECT_EQ(decoded.header.epoch, header.epoch);
  EXPECT_EQ(decoded.header.watermark, header.watermark);
  ASSERT_EQ(decoded.pieces.size(), model.NumPieces());
  for (std::size_t i = 0; i < decoded.pieces.size(); ++i) {
    EXPECT_EQ(decoded.pieces[i], model.pieces()[i]) << "piece " << i;
  }
  // Exact == on the doubles: the codec must be bit-transparent.
  const HistogramModel rebuilt = decoded.ToModel();
  EXPECT_EQ(rebuilt.TotalCount(), model.TotalCount());
  for (std::int64_t lo = 0; lo < 2000; lo += 97) {
    EXPECT_EQ(rebuilt.EstimateRange(lo, lo + 150),
              model.EstimateRange(lo, lo + 150));
  }
  // Re-encoding the decoded frame reproduces the wire bytes.
  EXPECT_EQ(EncodeFrame(decoded.header, rebuilt), frame);
}

TEST(FrameCodecTest, ModelAndCompiledOverloadsAgreeByteForByte) {
  const HistogramModel model = SampleModel();
  const CompiledSnapshot compiled = CompiledSnapshot::Compile(model);
  EXPECT_EQ(EncodeFrame(TestHeader(), model),
            EncodeFrame(TestHeader(), compiled));
}

// A persisted snapshot is a frame: a live DADO model (sub-bucket
// fragments, fractional borders) reloads piece for piece and estimates
// identically.
TEST(FrameCodecTest, RoundTripsLiveDadoSnapshot) {
  DynamicVOptHistogram h({.buckets = 32,
                          .policy = DeviationPolicy::kAbsolute});
  FrequencyVector truth(1'000);
  Rng rng(5);
  for (int i = 0; i < 20'000; ++i) {
    const auto v = rng.UniformInt(0, 999);
    h.Insert(v);
    truth.Insert(v);
  }
  const HistogramModel model = h.Model();
  DecodedFrame decoded;
  ASSERT_EQ(DecodeFrame(EncodeFrame(TestHeader(), model), &decoded),
            FrameError::kOk);
  const HistogramModel reloaded = decoded.ToModel();
  ASSERT_EQ(reloaded.NumPieces(), model.NumPieces());
  for (std::size_t i = 0; i < model.NumPieces(); ++i) {
    EXPECT_EQ(reloaded.pieces()[i], model.pieces()[i]) << "piece " << i;
  }
  EXPECT_DOUBLE_EQ(KsStatistic(truth, model), KsStatistic(truth, reloaded));
}

TEST(FrameCodecTest, EmptyModelRoundTrips) {
  const std::string frame = EncodeFrame(TestHeader(), HistogramModel());
  DecodedFrame decoded;
  ASSERT_EQ(DecodeFrame(frame, &decoded), FrameError::kOk);
  EXPECT_TRUE(decoded.pieces.empty());
  EXPECT_EQ(decoded.total, 0.0);
  EXPECT_TRUE(decoded.ToModel().Empty());
  // A default-constructed CompiledSnapshot is the empty arena, so it
  // encodes as the same empty frame.
  EXPECT_EQ(EncodeFrame(TestHeader(), CompiledSnapshot()), frame);
}

TEST(FrameCodecTest, RejectsTruncationAtEveryLength) {
  const std::string frame = EncodeFrame(TestHeader(), SampleModel());
  DecodedFrame decoded;
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const FrameError err = DecodeFrame(frame.substr(0, len), &decoded);
    EXPECT_NE(err, FrameError::kOk) << "accepted a " << len
                                    << "-byte prefix";
  }
}

TEST(FrameCodecTest, RejectsEverySingleBitFlip) {
  // Small model keeps this dense scan fast; every one of the
  // frame-size * 8 possible single-bit corruptions must be rejected
  // (the checksum covers every body byte; flips in the length fields
  // are caught by the size arithmetic, flips in the checksum itself by
  // the mismatch).
  const HistogramModel model = HistogramModel::FromSimpleBuckets(
      {{0.0, 1.5, 3.0}, {1.5, 4.0, 2.0}, {7.0, 9.25, 5.0}});
  const std::string frame = EncodeFrame(TestHeader(), model);
  DecodedFrame decoded;
  ASSERT_EQ(DecodeFrame(frame, &decoded), FrameError::kOk);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      EXPECT_NE(DecodeFrame(FlipBit(frame, i, bit), &decoded),
                FrameError::kOk)
          << "accepted flip of byte " << i << " bit " << bit;
    }
  }
}

TEST(FrameCodecTest, RejectsRandomBitFlipsOfRealisticFrame) {
  // Fuzz-style pass over the large frame: random (byte, bit) flips.
  const std::string frame = EncodeFrame(TestHeader(), SampleModel());
  Rng rng(5);
  DecodedFrame decoded;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto index = static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(frame.size()) - 1));
    const int bit = static_cast<int>(rng.UniformInt(0, 7));
    EXPECT_NE(DecodeFrame(FlipBit(frame, index, bit), &decoded),
              FrameError::kOk)
        << "accepted flip of byte " << index << " bit " << bit;
  }
}

TEST(FrameCodecTest, TypedErrorsForTargetedCorruption) {
  const HistogramModel model = HistogramModel::FromSimpleBuckets(
      {{0.0, 2.0, 4.0}, {2.0, 5.0, 6.0}});
  const FrameHeader header = TestHeader();
  const std::string frame = EncodeFrame(header, model);
  const std::size_t k = header.key.size();
  const std::size_t borders_at = kFrameHeaderBytes + k;
  const std::size_t rows_at = borders_at + 2 * 8;
  DecodedFrame decoded;

  // Bad magic / version (re-sealed so only the magic check can fire).
  {
    std::string f = frame;
    f[0] = 'X';
    frame_internal::PatchChecksum(&f);
    EXPECT_EQ(DecodeFrame(f, &decoded), FrameError::kBadMagic);
    f = frame;
    f[3] = '9';
    frame_internal::PatchChecksum(&f);
    EXPECT_EQ(DecodeFrame(f, &decoded), FrameError::kBadVersion);
  }
  // Checksum flip alone.
  {
    std::string f = frame;
    f[f.size() - 1] = static_cast<char>(f[f.size() - 1] ^ 1);
    EXPECT_EQ(DecodeFrame(f, &decoded), FrameError::kBadChecksum);
  }
  // Non-ascending borders: swap the two borders, fix rows' widths to
  // match so only the ordering check can object... widths then break
  // first; patch border 1 below border 0 directly.
  EXPECT_EQ(DecodeFrame(PatchF64(frame, borders_at + 8, 1.0), &decoded),
            FrameError::kBadBorders);
  // Width that disagrees with right - left.
  EXPECT_EQ(DecodeFrame(PatchF64(frame, rows_at + 16, 2.5), &decoded),
            FrameError::kBadBorders);
  // Negative count.
  EXPECT_EQ(DecodeFrame(PatchF64(frame, rows_at + 8, -4.0), &decoded),
            FrameError::kBadCount);
  // NaN count.
  EXPECT_EQ(DecodeFrame(PatchF64(frame, rows_at + 8,
                                 std::numeric_limits<double>::quiet_NaN()),
                        &decoded),
            FrameError::kBadCount);
  // Broken prefix chain (second row's prefix).
  EXPECT_EQ(DecodeFrame(PatchF64(frame, rows_at + 32 + 24, 3.75),
                        &decoded),
            FrameError::kBadPrefix);
  // Broken sentinel (its width must be exactly 1).
  EXPECT_EQ(DecodeFrame(PatchF64(frame, rows_at + 64 + 16, 2.0),
                        &decoded),
            FrameError::kBadSentinel);
  // Header total that disagrees with the summed mass.
  EXPECT_EQ(DecodeFrame(PatchF64(frame, 32, 11.0), &decoded),
            FrameError::kBadTotal);
  // Trailing garbage.
  EXPECT_EQ(DecodeFrame(frame + "x", &decoded),
            FrameError::kTrailingGarbage);
}

TEST(FrameCodecTest, RejectsOversizedDeclaredSizesBeforeAllocating) {
  // A frame whose header declares a huge piece count but whose actual
  // byte count is tiny: the decoder must reject on length arithmetic
  // without reserving anything proportional to the declared count.
  std::string f = EncodeFrame(TestHeader(), HistogramModel());
  // piece count field lives at offset 12.
  f[12] = static_cast<char>(0xff);
  f[13] = static_cast<char>(0xff);
  f[14] = static_cast<char>(0xff);
  f[15] = static_cast<char>(0x7f);
  frame_internal::PatchChecksum(&f);
  DecodedFrame decoded;
  EXPECT_EQ(DecodeFrame(f, &decoded), FrameError::kBadLength);
  // Same for the key length.
  f = EncodeFrame(TestHeader(), HistogramModel());
  f[8] = static_cast<char>(0xff);
  f[9] = static_cast<char>(0xff);
  f[10] = 0;
  f[11] = 0;
  frame_internal::PatchChecksum(&f);
  EXPECT_EQ(DecodeFrame(f, &decoded), FrameError::kBadLength);
}

TEST(FrameCodecTest, ErrorNamesAreStable) {
  EXPECT_STREQ(FrameErrorName(FrameError::kOk), "ok");
  EXPECT_STREQ(FrameErrorName(FrameError::kBadChecksum), "bad_checksum");
  EXPECT_STREQ(FrameErrorName(FrameError::kBadBorders), "bad_borders");
}

TEST(FrameCodecTest, WatermarkAndEpochPatchingForSyntheticStreams) {
  // The bench synthesizes fresh-watermark streams from one payload;
  // patch + re-seal must decode with the new header values.
  std::string f = EncodeFrame(TestHeader(), SampleModel());
  frame_internal::PatchEpoch(&f, 999);
  frame_internal::PatchWatermark(&f, 424242);
  DecodedFrame decoded;
  EXPECT_EQ(DecodeFrame(f, &decoded), FrameError::kBadChecksum);
  frame_internal::PatchChecksum(&f);
  ASSERT_EQ(DecodeFrame(f, &decoded), FrameError::kOk);
  EXPECT_EQ(decoded.header.epoch, 999u);
  EXPECT_EQ(decoded.header.watermark, 424242u);
}

}  // namespace
}  // namespace dynhist::distributed
