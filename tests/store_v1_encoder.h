// Reference encoder for the legacy IPSCOPE1 store format.
//
// The library only reads IPSCOPE1 (io::TryLoadStore); nothing in it writes
// the format any more. The io tests still need v1 streams to decode, so
// this test-local encoder builds them from the layout documented in
// io/store_io.h:
//
//   "IPSCOPE1" | u32 days | u64 block count
//   per block, ascending key: u32 key | u32 non-empty days |
//     per non-empty day: u16 day index + 4 x u64 bitmap words
//
// All integers little-endian. The coverage mask has no place in v1 and is
// dropped. tests/io_fault_test.cc pins this encoder's output byte for byte
// (V1ByteLayoutIsFrozen), so it cannot drift from the frozen layout.
#pragma once

#include <cstdint>
#include <string>

#include "activity/store.h"

namespace ipscope::io::test_bytes {

// Appends the low `bytes` bytes of `value`, least significant first.
inline void PutLE(std::string& out, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

inline std::string EncodeV1(const activity::ActivityStore& store) {
  std::string out = "IPSCOPE1";
  PutLE(out, static_cast<std::uint64_t>(store.days()), 4);
  PutLE(out, store.BlockCount(), 8);
  store.ForEach([&](net::BlockKey key, const activity::ActivityMatrix& m) {
    auto non_empty = [&](int d) {
      const activity::DayBits& row = m.Row(d);
      return (row[0] | row[1] | row[2] | row[3]) != 0;
    };
    std::uint64_t nonzero = 0;
    for (int d = 0; d < m.days(); ++d) nonzero += non_empty(d) ? 1 : 0;
    PutLE(out, key, 4);
    PutLE(out, nonzero, 4);
    for (int d = 0; d < m.days(); ++d) {
      if (!non_empty(d)) continue;
      PutLE(out, static_cast<std::uint64_t>(d), 2);
      for (std::uint64_t word : m.Row(d)) PutLE(out, word, 8);
    }
  });
  return out;
}

}  // namespace ipscope::io::test_bytes
