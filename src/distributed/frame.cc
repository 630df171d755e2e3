#include "src/distributed/frame.h"

#include <bit>
#include <cmath>
#include <cstring>

namespace dynhist::distributed {
namespace {

// Explicit little-endian primitives: byte shifts, not memcpy of host
// representation, so frames are host-order-independent.
void PutU32(std::string* out, std::uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

void PutU64(std::string* out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  PutU32(out, static_cast<std::uint32_t>(v >> 32));
}

void PutF64(std::string* out, double v) {
  PutU64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint32_t GetU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t GetU64(const char* p) {
  return static_cast<std::uint64_t>(GetU32(p)) |
         (static_cast<std::uint64_t>(GetU32(p + 4)) << 32);
}

double GetF64(const char* p) { return std::bit_cast<double>(GetU64(p)); }

void PokeU64(std::string* frame, std::size_t offset, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*frame)[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

constexpr char kMagic[4] = {'D', 'H', 'F', '1'};
constexpr std::size_t kEpochOffset = 16;
constexpr std::size_t kWatermarkOffset = 24;

}  // namespace

namespace frame_internal {

std::uint64_t Fnv1a64(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void PatchChecksum(std::string* frame) {
  if (frame->size() < kFrameHeaderBytes + kFrameTrailerBytes) return;
  const std::size_t body = frame->size() - kFrameTrailerBytes;
  PokeU64(frame, body, Fnv1a64(frame->data(), body));
}

void PatchEpoch(std::string* frame, std::uint64_t epoch) {
  if (frame->size() < kFrameHeaderBytes) return;
  PokeU64(frame, kEpochOffset, epoch);
}

void PatchWatermark(std::string* frame, std::uint64_t watermark) {
  if (frame->size() < kFrameHeaderBytes) return;
  PokeU64(frame, kWatermarkOffset, watermark);
}

}  // namespace frame_internal

const char* FrameErrorName(FrameError error) {
  switch (error) {
    case FrameError::kOk: return "ok";
    case FrameError::kTruncated: return "truncated";
    case FrameError::kBadMagic: return "bad_magic";
    case FrameError::kBadVersion: return "bad_version";
    case FrameError::kBadLength: return "bad_length";
    case FrameError::kTrailingGarbage: return "trailing_garbage";
    case FrameError::kBadChecksum: return "bad_checksum";
    case FrameError::kBadBorders: return "bad_borders";
    case FrameError::kBadCount: return "bad_count";
    case FrameError::kBadPrefix: return "bad_prefix";
    case FrameError::kBadSentinel: return "bad_sentinel";
    case FrameError::kBadTotal: return "bad_total";
  }
  return "unknown";
}

HistogramModel DecodedFrame::ToModel() const {
  return HistogramModel::FromSimpleBuckets(pieces);
}

std::string EncodeFrame(const FrameHeader& header,
                        const HistogramModel& model) {
  return EncodeFrame(header, CompiledSnapshot::Compile(model));
}

std::string EncodeFrame(const FrameHeader& header,
                        const CompiledSnapshot& snapshot) {
  const std::size_t n = snapshot.NumPieces();
  std::string out;
  out.reserve(FrameBytesFor(header.key.size(), n));
  out.append(kMagic, 4);
  PutU32(&out, header.site_id);
  PutU32(&out, static_cast<std::uint32_t>(header.key.size()));
  PutU32(&out, static_cast<std::uint32_t>(n));
  PutU64(&out, header.epoch);
  PutU64(&out, header.watermark);
  PutF64(&out, snapshot.TotalCount());
  out.append(header.key);
  const double* borders = snapshot.borders();
  const CompiledSnapshot::Row* rows = snapshot.rows();
  for (std::size_t i = 0; i < n; ++i) PutF64(&out, borders[i]);
  for (std::size_t i = 0; i <= n; ++i) {
    PutF64(&out, rows[i].left);
    PutF64(&out, rows[i].count);
    PutF64(&out, rows[i].width);
    PutF64(&out, rows[i].prefix);
  }
  PutU64(&out, frame_internal::Fnv1a64(out.data(), out.size()));
  return out;
}

FrameError DecodeFrame(std::string_view bytes, DecodedFrame* out) {
  // Length and checksum gates come first: nothing is trusted — not even
  // the declared sizes — until the byte count works out, and nothing is
  // interpreted until the checksum over the whole body matches.
  if (bytes.size() < kFrameHeaderBytes + kFrameTrailerBytes) {
    return FrameError::kTruncated;
  }
  const char* p = bytes.data();
  if (std::memcmp(p, kMagic, 3) != 0) return FrameError::kBadMagic;
  if (p[3] != kMagic[3]) return FrameError::kBadVersion;
  const std::uint32_t key_len = GetU32(p + 8);
  const std::uint32_t n = GetU32(p + 12);
  if (key_len > kMaxFrameKeyBytes || n > kMaxFramePieces) {
    return FrameError::kBadLength;
  }
  const std::size_t expected = FrameBytesFor(key_len, n);
  if (bytes.size() < expected) return FrameError::kBadLength;
  if (bytes.size() > expected) return FrameError::kTrailingGarbage;
  const std::size_t body = expected - kFrameTrailerBytes;
  if (frame_internal::Fnv1a64(p, body) != GetU64(p + body)) {
    return FrameError::kBadChecksum;
  }

  out->header.site_id = GetU32(p + 4);
  out->header.epoch = GetU64(p + kEpochOffset);
  out->header.watermark = GetU64(p + kWatermarkOffset);
  const double total = GetF64(p + 32);
  out->header.key.assign(p + kFrameHeaderBytes, key_len);
  const char* borders = p + kFrameHeaderBytes + key_len;
  const char* rows = borders + std::size_t{n} * 8;

  // Structural validation, strict enough that HistogramModel's
  // DH_CHECKed constructor invariants (sorted, non-overlapping within
  // its 1e-9 tolerance, positive widths, non-negative counts) are
  // implied — a decoded frame can always become a model without risk of
  // aborting on wire data.
  out->pieces.clear();
  out->pieces.reserve(n);
  double acc = 0.0;
  double prev_right = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const double right = GetF64(borders + std::size_t{i} * 8);
    const char* row = rows + std::size_t{i} * 32;
    const double left = GetF64(row);
    const double count = GetF64(row + 8);
    const double width = GetF64(row + 16);
    const double prefix = GetF64(row + 24);
    if (!std::isfinite(left) || !std::isfinite(right)) {
      return FrameError::kBadBorders;
    }
    if (i > 0 && !(right > prev_right && left >= prev_right - 1e-9)) {
      return FrameError::kBadBorders;
    }
    // Width must be the exact subtraction the arena stores, and positive
    // (NaN fails both comparisons).
    if (!(width > 0.0) || width != right - left) {
      return FrameError::kBadBorders;
    }
    if (!std::isfinite(count) || !(count >= 0.0)) {
      return FrameError::kBadCount;
    }
    if (prefix != acc) return FrameError::kBadPrefix;
    acc += count;
    prev_right = right;
    out->pieces.push_back({left, right, count});
  }
  const char* sentinel = rows + std::size_t{n} * 32;
  if (GetF64(sentinel) != (n == 0 ? 0.0 : prev_right) ||
      GetF64(sentinel + 8) != 0.0 || GetF64(sentinel + 16) != 1.0 ||
      GetF64(sentinel + 24) != acc) {
    return FrameError::kBadSentinel;
  }
  if (!std::isfinite(acc) || total != acc) return FrameError::kBadTotal;
  out->total = total;
  return FrameError::kOk;
}

}  // namespace dynhist::distributed
