// Frame-decode mutation fuzzing: the volume half of the decode-paranoia
// argument (tests/frame_test.cc holds the targeted half). A seeded
// mutation engine derives >10k corrupted frames from valid seeds —
// truncations, splices of unrelated frames, length-field fuzzing at the
// key-length/piece-count offsets, duplicated interior sections, byte
// stomps and bit flips — and every mutant must either be the unchanged
// original (and round-trip bit for bit) or come back as a typed
// FrameError. The decoder must never abort and never accept a frame
// whose bytes it cannot reproduce: completing the corpus at 100%
// rejection IS the acceptance gate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/distributed/frame.h"
#include "src/histogram/dynamic_compressed.h"
#include "src/histogram/model.h"
#include "src/histogram/st_feedback.h"

namespace dynhist::distributed {
namespace {

// Seed corpus: frames that differ in key length, piece count, and mass
// shape, so every mutation class has structurally distinct material.
std::vector<std::string> SeedFrames() {
  std::vector<std::string> seeds;

  FrameHeader header;
  header.site_id = 3;
  header.key = "k";
  header.epoch = 1;
  header.watermark = 10;
  seeds.push_back(EncodeFrame(header, HistogramModel()));  // empty model

  Rng rng(17);
  const ZipfDistribution zipf(2'000, 1.0);
  DynamicCompressedHistogram dc(
      DynamicCompressedConfig{.buckets = 32, .alpha_min = 1e-6});
  for (int i = 0; i < 20'000; ++i) {
    dc.Insert(static_cast<std::int64_t>(zipf.Sample(rng)));
  }
  header.key = "orders.amount";
  header.epoch = 42;
  header.watermark = 123'456;
  seeds.push_back(EncodeFrame(header, dc.Model()));

  // A feedback-trained model: fractional masses from the damped update.
  StFeedbackConfig config;
  config.buckets = 64;
  config.domain_lo = 0;
  config.domain_hi = 1'999;
  StFeedbackHistogram stf(config);
  for (int i = 0; i < 2'000; ++i) {
    const auto center = static_cast<std::int64_t>(zipf.Sample(rng));
    const std::int64_t lo = std::max<std::int64_t>(0, center - 20);
    const std::int64_t hi = std::min<std::int64_t>(1'999, center + 20);
    stf.ApplyFeedback(lo, hi, static_cast<double>(rng.UniformInt(0, 5'000)));
  }
  header.key = std::string(300, 'x') + ".long.key";
  header.epoch = 7;
  header.watermark = 99;
  seeds.push_back(EncodeFrame(header, stf.Model()));

  return seeds;
}

enum class Mutation {
  kTruncate,
  kSplice,
  kLengthField,
  kDuplicateSection,
  kByteStomp,
  kBitFlip,
};

constexpr Mutation kMutations[] = {
    Mutation::kTruncate,       Mutation::kSplice, Mutation::kLengthField,
    Mutation::kDuplicateSection, Mutation::kByteStomp, Mutation::kBitFlip,
};

const char* MutationName(Mutation m) {
  switch (m) {
    case Mutation::kTruncate:
      return "truncate";
    case Mutation::kSplice:
      return "splice";
    case Mutation::kLengthField:
      return "length_field";
    case Mutation::kDuplicateSection:
      return "duplicate_section";
    case Mutation::kByteStomp:
      return "byte_stomp";
    case Mutation::kBitFlip:
      return "bit_flip";
  }
  return "?";
}

void WriteU32(std::string* frame, std::size_t offset, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*frame)[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

std::string Mutate(Mutation mutation, const std::string& base,
                   const std::string& donor, Rng& rng) {
  std::string frame = base;
  switch (mutation) {
    case Mutation::kTruncate:
      frame.resize(static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(frame.size()) - 1)));
      break;
    case Mutation::kSplice: {
      // Head of one frame, tail of another — lengths independent, so the
      // result exercises both short and long disagreements.
      const auto head = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(frame.size())));
      const auto tail_start = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(donor.size())));
      frame = frame.substr(0, head) + donor.substr(tail_start);
      break;
    }
    case Mutation::kLengthField: {
      // The attacker-controlled size fields: key length at offset 8,
      // piece count at offset 12. Mix huge, boundary, and off-by-small
      // values; the checksum is re-sealed so the length/geometry checks
      // (not FNV) must reject.
      const std::size_t offset = rng.Bernoulli(0.5) ? 8 : 12;
      std::uint32_t current;
      std::memcpy(&current, frame.data() + offset, 4);
      std::uint32_t fuzzed = 0;
      switch (rng.UniformInt(0, 3)) {
        case 0:
          fuzzed = 0xFFFFFFFFu;
          break;
        case 1:
          fuzzed = static_cast<std::uint32_t>(
              rng.UniformInt(0, std::int64_t{1} << 32));
          break;
        case 2:
          fuzzed = current + static_cast<std::uint32_t>(rng.UniformInt(1, 8));
          break;
        default:
          fuzzed = current > 0 ? current - 1 : 1;
          break;
      }
      WriteU32(&frame, offset, fuzzed);
      frame_internal::PatchChecksum(&frame);
      break;
    }
    case Mutation::kDuplicateSection: {
      const auto start = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(frame.size()) - 1));
      const auto len = static_cast<std::size_t>(rng.UniformInt(
          1, std::min<std::int64_t>(
                 64, static_cast<std::int64_t>(frame.size() - start))));
      frame.insert(start, frame.substr(start, len));
      break;
    }
    case Mutation::kByteStomp: {
      const auto count = static_cast<std::size_t>(rng.UniformInt(1, 8));
      for (std::size_t i = 0; i < count; ++i) {
        const auto at = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(frame.size()) - 1));
        frame[at] = static_cast<char>(rng.UniformInt(0, 255));
      }
      break;
    }
    case Mutation::kBitFlip: {
      const auto at = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(frame.size()) - 1));
      frame[at] = static_cast<char>(static_cast<unsigned char>(frame[at]) ^
                                    (1u << rng.UniformInt(0, 7)));
      break;
    }
  }
  return frame;
}

TEST(FrameFuzzTest, TenThousandMutantsAllRejectOrRoundTrip) {
  const std::vector<std::string> seeds = SeedFrames();
  Rng rng(0xF0A11E5);

  constexpr int kMutants = 12'000;
  int corrupting = 0;
  int rejected = 0;
  int identity = 0;
  std::map<std::string, int> by_error;
  std::map<std::string, int> by_mutation;

  for (int i = 0; i < kMutants; ++i) {
    const std::string& base =
        seeds[static_cast<std::size_t>(i) % seeds.size()];
    const std::string& donor =
        seeds[static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(seeds.size()) - 1))];
    const Mutation mutation =
        kMutations[rng.UniformInt(0, std::int64_t{5})];
    const std::string mutant = Mutate(mutation, base, donor, rng);
    ++by_mutation[MutationName(mutation)];

    DecodedFrame decoded;
    const FrameError error = DecodeFrame(mutant, &decoded);

    if (mutant == base) {
      // kByteStomp can stomp a byte with its own value; that's not a
      // corruption, and the original must still decode and round-trip.
      ++identity;
      ASSERT_EQ(error, FrameError::kOk) << MutationName(mutation);
      ASSERT_EQ(EncodeFrame(decoded.header,
                            HistogramModel::FromSimpleBuckets(decoded.pieces)),
                mutant);
      continue;
    }
    ++corrupting;
    if (error != FrameError::kOk) {
      ++rejected;
      ++by_error[FrameErrorName(error)];
    } else {
      // The astronomically unlikely valid mutant: acceptable only if the
      // decoder can reproduce the exact bytes it accepted.
      ADD_FAILURE() << "mutant " << i << " (" << MutationName(mutation)
                    << ", " << mutant.size() << " bytes vs base "
                    << base.size() << ") decoded kOk";
    }
  }

  // The gate: every corrupting mutant rejected, with a typed reason.
  EXPECT_EQ(rejected, corrupting);
  EXPECT_GE(corrupting, 10'000) << "corpus too small to count as the gate";

  // The corpus must actually exercise the distinct rejection paths, not
  // funnel everything into one check.
  EXPECT_GE(by_error.size(), 3u);
  EXPECT_GT(by_error["bad_checksum"], 0);
  EXPECT_GT(by_error["truncated"] + by_error["bad_length"], 0);
  for (const auto& [name, count] : by_mutation) {
    EXPECT_GT(count, 0) << name;
  }
}

// The decoder's contract is symmetric: what it accepts it can re-emit
// byte for byte. Run the seeds through decode -> encode -> decode to pin
// that the fuzz gate's round-trip arm is not vacuous.
TEST(FrameFuzzTest, SeedCorpusRoundTripsBitForBit) {
  for (const std::string& frame : SeedFrames()) {
    DecodedFrame decoded;
    ASSERT_EQ(DecodeFrame(frame, &decoded), FrameError::kOk);
    FrameHeader header = decoded.header;
    const std::string reencoded = EncodeFrame(
        header, HistogramModel::FromSimpleBuckets(decoded.pieces));
    EXPECT_EQ(reencoded, frame);
    DecodedFrame again;
    ASSERT_EQ(DecodeFrame(reencoded, &again), FrameError::kOk);
    EXPECT_EQ(again.header.key, decoded.header.key);
    EXPECT_EQ(again.pieces.size(), decoded.pieces.size());
  }
}

}  // namespace
}  // namespace dynhist::distributed
