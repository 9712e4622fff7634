// CRC32C (Castagnoli polynomial, reflected 0x82F63B78).
//
// The checksum the IPSCOPE2 store format uses for its per-block and
// whole-stream integrity checks (io/store_io.h). CRC32C is the standard
// storage-integrity polynomial (iSCSI, ext4, LevelDB table format): its
// error-detection properties guarantee that any single-byte corruption —
// and any burst shorter than 32 bits — changes the checksum, which is what
// the corruption property sweep in tests/io_fault_test.cc relies on.
//
// Two implementations, one result. Crc32cExtend runs the SSE4.2 `crc32`
// instruction (8 bytes per step, one dependency chain) on x86-64 CPUs that
// have it, chosen once at run time, so no build flag is needed; elsewhere
// it falls back to Crc32cExtendPortable, a table-driven slicing-by-4 loop
// that gives identical results on every platform and is the oracle the
// hardware path is tested against (tests/io_store_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ipscope::io {

// Incremental interface: start from kCrc32cInit (or a previous return
// value) and extend over consecutive byte ranges.
inline constexpr std::uint32_t kCrc32cInit = 0;

// The fastest implementation this CPU supports.
std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t size);

// The portable table-driven implementation.
std::uint32_t Crc32cExtendPortable(std::uint32_t crc, const void* data,
                                   std::size_t size);

inline std::uint32_t Crc32c(const void* data, std::size_t size) {
  return Crc32cExtend(kCrc32cInit, data, size);
}

}  // namespace ipscope::io
