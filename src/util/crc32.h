// CRC-32 (ISO-HDLC polynomial, the zlib/PNG variant) for page checksums
// and WAL record framing. Header-only. Every page read and write-back,
// every WAL append and every record that restart or a follower reads
// goes through it, so it runs slicing-by-8 (Kounavis & Berry, ISCC 2005):
// eight 256-entry tables, built once, fold eight input bytes per step;
// a bytewise loop takes the tail. The checksums equal the bytewise
// table CRC's bit for bit (util_test checks them against a
// bit-at-a-time reference).

#ifndef XTC_UTIL_CRC32_H_
#define XTC_UTIL_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace xtc {

namespace crc32_internal {

/// table[0] is the bytewise table; table[k][i] is the CRC of byte i
/// followed by k zero bytes.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

inline const Tables& Table() {
  static const Tables tables = [] {
    Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < t.size(); ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
      }
    }
    return t;
  }();
  return tables;
}

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace crc32_internal

/// Extends a running CRC (start from Crc32Init()) with `n` bytes.
inline uint32_t Crc32Update(uint32_t crc, const void* data, size_t n) {
  using crc32_internal::LoadLe32;
  const auto& t = crc32_internal::Table();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

inline uint32_t Crc32Init() { return 0xffffffffu; }
inline uint32_t Crc32Finish(uint32_t crc) { return crc ^ 0xffffffffu; }

/// One-shot CRC of a byte range.
inline uint32_t Crc32(const void* data, size_t n) {
  return Crc32Finish(Crc32Update(Crc32Init(), data, n));
}

inline uint32_t Crc32(std::string_view bytes) {
  return Crc32(bytes.data(), bytes.size());
}

}  // namespace xtc

#endif  // XTC_UTIL_CRC32_H_
