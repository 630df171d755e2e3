// Little-endian integer and double codec for the wire tier: frames, the
// message envelope, and the query/reply payloads all use it. Byte shifts,
// not memcpy of the host representation, so every encoding is
// host-order-independent.

#ifndef DYNHIST_COMMON_LITTLE_ENDIAN_H_
#define DYNHIST_COMMON_LITTLE_ENDIAN_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace dynhist::little_endian {

inline void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutU64(std::string* out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  PutU32(out, static_cast<std::uint32_t>(v >> 32));
}

inline void PutF64(std::string* out, double v) {
  PutU64(out, std::bit_cast<std::uint64_t>(v));
}

/// Overwrites the 8 bytes at `offset` of `*out` (which must hold them).
inline void PokeU64(std::string* out, std::size_t offset, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    (*out)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

inline std::uint32_t GetU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

inline std::uint64_t GetU64(const char* p) {
  return static_cast<std::uint64_t>(GetU32(p)) |
         (static_cast<std::uint64_t>(GetU32(p + 4)) << 32);
}

inline double GetF64(const char* p) {
  return std::bit_cast<double>(GetU64(p));
}

}  // namespace dynhist::little_endian

#endif  // DYNHIST_COMMON_LITTLE_ENDIAN_H_
