// Binary serialization of activity datasets.
//
// An ActivityStore (the materialized daily/weekly dataset) can be written
// to a compact stream and reloaded later, so expensive worlds need to be
// generated once and analyses can run out-of-process (see tools/ipscope_cli).
//
// One writer, one reader. The writer emits IPSCOPE2; the reader accepts
// IPSCOPE2 and the legacy IPSCOPE1, both little-endian:
//
// IPSCOPE1 (legacy, read-only; pinned by hand-built bytes in
// tests/io_fault_test.cc):
//   8 bytes  magic "IPSCOPE1"
//   u32      days (steps) per matrix
//   u64      block count
//   then per block, in ascending key order:
//     u32    block key (top 24 bits of the /24 network address)
//     u32    number of non-empty days
//     then per non-empty day: u16 day index + 4 x u64 bitmap words
//
// IPSCOPE2 (what SaveStore writes): the same block payloads, hardened for
// corruption detection and partial recovery, and carrying the per-day
// coverage mask:
//   8 bytes  magic "IPSCOPE2"
//   u32      days
//   u64      block count
//   bytes    coverage bitmap, ceil(days/8) bytes (bit d set = day d covered)
//   u32      header CRC32C (over everything above)
//   then per block, in ascending key order:
//     u32 key | u32 non-empty days | per-day payload as in v1
//     u32 block CRC32C (over this block's key/count/payload bytes)
//   footer:
//     4 bytes "END2" | u64 block count echo
//     u32 stream CRC32C (over every byte from offset 0 through the echo)
//
// Every byte of a v2 stream is covered by at least one checksum, so any
// single-byte corruption is detected (property-swept in
// tests/io_fault_test.cc). Per-block checksums make salvage possible:
// TryLoadStore with salvage=true recovers all intact blocks up to the
// first truncated/corrupt record instead of failing outright.
//
// One buffer, one decoder, one arena. StoreBytes sizes the IPSCOPE2 image
// exactly (header + Σ(8 + 34·non-empty days + 4) + footer), encodes every
// block straight into that one buffer, and folds each block's CRC and the
// stream CRC in while the record is still in cache; SaveStoreFile hands
// the buffer to WriteFileAtomic. SaveStore(ostream) runs the same block
// encoder through a small reused buffer, so streaming never holds a whole
// image. Every load is TryLoadStoreBytes: one pass over the bytes that
// decodes each block's rows into a single contiguous DayBits arena the
// returned store adopts (ActivityStore::AdoptArena) — TryLoadStoreFile
// reads the file into one buffer first, TryLoadStore drains its stream.
// TryMergeStoreBytes runs the same decoder but ORs the rows into an
// existing store instead (how ingest::Session::Load unions its shards).
// Nothing here runs on the thread pool: ingest::Session::Append encodes
// shards inside chaos-crash's forked child, where pool threads do not
// exist.
//
// Loads never throw on bad input: every loader returns
// ipscope::Result<LoadResult, StoreError>, a typed error with kind and
// absolute byte offset whose ToString() is the operator-facing message.
// Saves throw std::runtime_error carrying a kWriteFailed StoreError
// message.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "activity/store.h"
#include "io/result.h"
#include "io/store_error.h"

namespace ipscope::io {

struct LoadOptions {
  // When true, a truncated or corrupt block stops the load but the intact
  // prefix is returned (stats.complete = false, stats.error set) instead
  // of the whole load failing. Header corruption is never salvageable:
  // without trustworthy dimensions nothing can be decoded.
  bool salvage = false;
};

struct LoadStats {
  int format_version = 0;            // 1 or 2
  std::uint64_t blocks_expected = 0; // from the header
  std::uint64_t blocks_loaded = 0;
  // Blocks recovered by a salvage load that hit an error; 0 on clean loads.
  std::uint64_t blocks_salvaged = 0;
  bool complete = true;
  // The error salvage stopped at (set iff !complete).
  std::optional<StoreError> error;
};

struct LoadResult {
  activity::ActivityStore store;
  LoadStats stats;
};

// Serializes `store` as IPSCOPE2, one block record at a time.
void SaveStore(const activity::ActivityStore& store, std::ostream& os);

// The exact bytes a store file holds, encoded into one exactly-sized
// buffer (the same bytes SaveStore streams).
std::string StoreBytes(const activity::ActivityStore& store);

// Strict or salvaging load of a whole store image; dispatches on the
// magic, accepting both formats. Truncation errors report the offset
// where `bytes` ends.
[[nodiscard]] Result<LoadResult, StoreError> TryLoadStoreBytes(
    std::string_view bytes, const LoadOptions& options = {});

// Strict decode of a whole store image straight into `into`, which must
// have the image's day count: the image's covered days become covered in
// `into` and every stored row is ORed into that block's matrix
// (GetOrCreate). Only the rows the image holds are touched, so merging a
// one-day delta of a long period costs its own bytes, never a dense copy
// of every block. Errors are TryLoadStoreBytes's (plus kMalformed at the
// day count when it differs from into.days()); on error `into` may hold
// part of the image and should be discarded.
[[nodiscard]] Result<LoadStats, StoreError> TryMergeStoreBytes(
    std::string_view bytes, activity::ActivityStore& into);

// TryLoadStoreBytes over everything `is` yields.
[[nodiscard]] Result<LoadResult, StoreError> TryLoadStore(
    std::istream& is, const LoadOptions& options = {});

// File-path conveniences. SaveStoreFile commits StoreBytes through
// WriteFileAtomic; TryLoadStoreFile is ReadWholeFile + TryLoadStoreBytes.
// A file that cannot be opened or read comes back as
// StoreErrorKind::kOpenFailed with errno/strerror detail.
void SaveStoreFile(const activity::ActivityStore& store,
                   const std::string& path);
[[nodiscard]] Result<LoadResult, StoreError> TryLoadStoreFile(
    const std::string& path, const LoadOptions& options = {});

}  // namespace ipscope::io
