#include "io/crc32c.h"

#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define IPSCOPE_CRC32C_SSE42 1
#endif

namespace ipscope::io {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

struct Tables {
  // table[k][b]: CRC of byte b followed by k zero bytes — the standard
  // slicing-by-4 layout.
  std::uint32_t t[4][256];
};

constexpr Tables BuildTables() {
  Tables tables{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    tables.t[0][b] = crc;
  }
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = tables.t[0][b];
    for (int k = 1; k < 4; ++k) {
      crc = tables.t[0][crc & 0xFFu] ^ (crc >> 8);
      tables.t[k][b] = crc;
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

#ifdef IPSCOPE_CRC32C_SSE42
// The `crc32` instruction computes exactly the reflected Castagnoli step
// the tables encode. One 8-byte step per instruction on a single
// dependency chain runs at 7.3 GiB/s (BM_Crc32c, 2.1 GHz Xeon guest; the
// table does 0.9 GiB/s), so a second pass over a 146 MB store image
// costs ~20 ms: too little to pay for 3-way interleaving or CRC combine.
__attribute__((target("sse4.2"))) std::uint32_t ExtendSse42(
    std::uint32_t crc, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~crc;
  while (size > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    c = _mm_crc32_u8(c, *p++);
    --size;
  }
  std::uint64_t c64 = c;
  while (size >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c64 = _mm_crc32_u64(c64, word);
    p += 8;
    size -= 8;
  }
  c = static_cast<std::uint32_t>(c64);
  while (size > 0) {
    c = _mm_crc32_u8(c, *p++);
    --size;
  }
  return ~c;
}
#endif

using ExtendFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

ExtendFn ChooseExtend() {
#ifdef IPSCOPE_CRC32C_SSE42
  if (__builtin_cpu_supports("sse4.2")) return ExtendSse42;
#endif
  return Crc32cExtendPortable;
}

}  // namespace

std::uint32_t Crc32cExtendPortable(std::uint32_t crc, const void* data,
                                   std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (size >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = kTables.t[3][crc & 0xFFu] ^ kTables.t[2][(crc >> 8) & 0xFFu] ^
          kTables.t[1][(crc >> 16) & 0xFFu] ^ kTables.t[0][crc >> 24];
    p += 4;
    size -= 4;
  }
  while (size-- > 0) {
    crc = kTables.t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t size) {
  static const ExtendFn extend = ChooseExtend();
  return extend(crc, data, size);
}

}  // namespace ipscope::io
