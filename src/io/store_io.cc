#include "io/store_io.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "io/atomic_file.h"
#include "io/crc32c.h"
#include "obs/registry.h"
#include "obs/timer.h"

namespace ipscope::io {

namespace {

constexpr char kMagicV1[8] = {'I', 'P', 'S', 'C', 'O', 'P', 'E', '1'};
constexpr char kMagicV2[8] = {'I', 'P', 'S', 'C', 'O', 'P', 'E', '2'};
constexpr char kFooterMagic[4] = {'E', 'N', 'D', '2'};
constexpr std::uint32_t kMaxDays = 4096;
constexpr std::uint64_t kMaxBlocks = std::uint64_t{1} << 24;
// One non-empty day in a block record: u16 index + 4 x u64 bitmap words.
constexpr std::size_t kDayRecordBytes = 2 + 4 * 8;
// Block record framing: u32 key + u32 non-empty day count.
constexpr std::size_t kBlockHeaderBytes = 8;
// IPSCOPE2 footer: "END2" + u64 block count echo + u32 stream CRC.
constexpr std::size_t kFooterBytes = 4 + 8 + 4;

// The format is little-endian. On little-endian hosts (every simulation
// target in practice) a field is one memcpy; the byte loops keep other
// hosts correct.
template <typename T>
char* Put(char* p, T value) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &value, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
    }
  }
  return p + sizeof(T);
}

template <typename T>
T Get(const char* p) {
  T value = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&value, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      value |= static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
  }
  return value;
}

// --- Encoding ---------------------------------------------------------------

std::size_t HeaderBytes(int days) {
  return 8 + 4 + 8 + (static_cast<std::size_t>(days) + 7) / 8 + 4;
}

std::size_t RecordBytes(std::uint32_t nonzero) {
  return kBlockHeaderBytes + nonzero * kDayRecordBytes + 4;
}

bool RowEmpty(const activity::DayBits& row) {
  return (row[0] | row[1] | row[2] | row[3]) == 0;
}

std::uint32_t NonEmptyDays(const activity::ActivityMatrix& m) {
  std::uint32_t n = 0;
  for (int d = 0; d < m.days(); ++d) n += RowEmpty(m.Row(d)) ? 0 : 1;
  return n;
}

// Magic, dimensions, coverage bitmap and header CRC; returns the end.
char* EncodeHeader(char* p, const activity::ActivityStore& store) {
  char* start = p;
  std::memcpy(p, kMagicV2, sizeof(kMagicV2));
  p += sizeof(kMagicV2);
  p = Put<std::uint32_t>(p, static_cast<std::uint32_t>(store.days()));
  p = Put<std::uint64_t>(p, store.BlockCount());
  const std::size_t coverage_bytes =
      (static_cast<std::size_t>(store.days()) + 7) / 8;
  std::memset(p, 0, coverage_bytes);
  for (int d = 0; d < store.days(); ++d) {
    if (store.DayCovered(d)) {
      p[d / 8] = static_cast<char>(p[d / 8] | (1 << (d % 8)));
    }
  }
  p += coverage_bytes;
  const auto len = static_cast<std::size_t>(p - start);
  return Put<std::uint32_t>(p, Crc32c(start, len));
}

// One block record — key, non-empty day count, each non-empty day's index
// and bitmap, then the block CRC — written at `p`, which must have room
// for RecordBytes(nonzero). Returns the end.
char* EncodeBlock(char* p, net::BlockKey key, const activity::ActivityMatrix& m,
                  std::uint32_t nonzero) {
  char* start = p;
  p = Put<std::uint32_t>(p, key);
  p = Put<std::uint32_t>(p, nonzero);
  for (int d = 0; d < m.days(); ++d) {
    const activity::DayBits& row = m.Row(d);
    if (RowEmpty(row)) continue;
    p = Put<std::uint16_t>(p, static_cast<std::uint16_t>(d));
    for (std::uint64_t word : row) p = Put<std::uint64_t>(p, word);
  }
  const auto len = static_cast<std::size_t>(p - start);
  return Put<std::uint32_t>(p, Crc32c(start, len));
}

// Footer at `p`; `stream_crc` covers every byte before it. Returns the end.
char* EncodeFooter(char* p, std::uint64_t blocks, std::uint32_t stream_crc) {
  char* start = p;
  std::memcpy(p, kFooterMagic, sizeof(kFooterMagic));
  p = Put<std::uint64_t>(p + sizeof(kFooterMagic), blocks);
  const auto len = static_cast<std::size_t>(p - start);
  return Put<std::uint32_t>(p, Crc32cExtend(stream_crc, start, len));
}

void RecordSave(std::uint64_t bytes, obs::Span& span) {
  double seconds = std::max(span.Stop(), 1e-9);
  auto& registry = obs::GlobalRegistry();
  registry.GetCounter("io.store.saves").Add(1);
  registry.GetCounter("io.store.save_bytes").Add(bytes);
  registry.GetGauge("io.store.save_mb_per_s")
      .Set(static_cast<double>(bytes) / 1e6 / seconds);
}

void RecordLoad(const Result<LoadStats, StoreError>& decoded,
                std::uint64_t consumed, obs::Span& span) {
  double seconds = std::max(span.Stop(), 1e-9);
  auto& registry = obs::GlobalRegistry();
  if (!decoded.ok()) {
    registry.GetCounter("io.store.load_errors").Add(1);
    return;
  }
  registry.GetCounter("io.store.loads").Add(1);
  registry.GetCounter("io.store.load_bytes").Add(consumed);
  registry.GetGauge("io.store.load_mb_per_s")
      .Set(static_cast<double>(consumed) / 1e6 / seconds);
  const LoadStats& stats = decoded.value();
  if (!stats.complete) {
    registry.GetCounter("io.store.salvaged_loads").Add(1);
    registry.GetCounter("io.store.blocks_salvaged").Add(stats.blocks_salvaged);
  }
}

// --- Decoding ---------------------------------------------------------------

StoreError Truncated(std::string_view in, const std::string& what) {
  // A field that does not fit runs into the end of the input, which is
  // where the input is reported to have ended.
  return StoreError{StoreErrorKind::kTruncated, in.size(),
                    "truncated input while reading " + what};
}

StoreError Malformed(std::uint64_t offset, std::string message) {
  return StoreError{StoreErrorKind::kMalformed, offset, std::move(message)};
}

// Leading block records whose framing is complete (header, payload and,
// for v2, checksum all inside the input). The decode installs at most this
// many blocks, so it sizes the arena once from what the bytes can hold,
// never from the header's unverified block count. Touches one cache line
// per block.
std::uint64_t CompleteRecords(std::string_view in, std::size_t pos,
                              std::uint64_t blocks, std::uint32_t days,
                              bool v2) {
  std::uint64_t n = 0;
  while (n < blocks && in.size() - pos >= kBlockHeaderBytes) {
    auto nonzero = Get<std::uint32_t>(in.data() + pos + 4);
    if (nonzero > days) break;
    std::size_t len =
        kBlockHeaderBytes + nonzero * kDayRecordBytes + (v2 ? 4 : 0);
    if (in.size() - pos < len) break;
    pos += len;
    ++n;
  }
  return n;
}

// Where Decode puts what it reads. Decode checks the header, then calls
// Begin once with the image's dimensions; for every record whose framing
// and checksum check out it calls Block(key) and ORs the record's bitmaps
// into the days() rows returned. On a salvage stop the sink keeps what it
// was given.

// Builds a new store: every block's rows go into one day-major arena the
// store adopts once (Finish) — also after a salvage stop, which keeps the
// prefix read so far. A block whose day list fails validation keeps the
// rows before the bad entry, exactly as the key had already been
// installed.
class ArenaSink {
 public:
  std::optional<StoreError> Begin(std::uint32_t days,
                                  const std::vector<bool>& covered,
                                  std::uint64_t records) {
    days_ = days;
    store_.emplace(static_cast<int>(days));
    for (std::uint32_t d = 0; d < days; ++d) {
      if (!covered[d]) store_->SetDayCovered(static_cast<int>(d), false);
    }
    keys_.reserve(records);
    arena_.reserve(records * days);
    return std::nullopt;
  }

  activity::DayBits* Block(net::BlockKey key) {
    keys_.push_back(key);
    arena_.resize(arena_.size() + days_);
    return arena_.data() + arena_.size() - days_;
  }

  activity::ActivityStore Finish() {
    std::vector<std::size_t> offsets(keys_.size());
    for (std::size_t i = 0; i < offsets.size(); ++i) offsets[i] = i * days_;
    store_->AdoptArena(std::move(keys_), std::move(arena_), offsets);
    return *std::move(store_);
  }

 private:
  std::uint32_t days_ = 0;
  std::optional<activity::ActivityStore> store_;
  std::vector<net::BlockKey> keys_;
  std::vector<activity::DayBits> arena_;
};

// ORs an image into an existing store of the same length: the image's
// covered days become covered and each record's rows are ORed into that
// key's matrix (GetOrCreate). Only the rows the image stores are touched,
// so merging a one-day shard costs its bytes, not a dense copy of the
// whole period.
class MergeSink {
 public:
  explicit MergeSink(activity::ActivityStore& into) : into_(into) {}

  std::optional<StoreError> Begin(std::uint32_t days,
                                  const std::vector<bool>& covered,
                                  std::uint64_t /*records*/) {
    if (days != static_cast<std::uint32_t>(into_.days())) {
      return Malformed(8, "day count " + std::to_string(days) +
                              " does not match the target store's " +
                              std::to_string(into_.days()));
    }
    for (std::uint32_t d = 0; d < days; ++d) {
      if (covered[d]) into_.SetDayCovered(static_cast<int>(d), true);
    }
    return std::nullopt;
  }

  activity::DayBits* Block(net::BlockKey key) {
    return &into_.GetOrCreate(key).Row(0);
  }

 private:
  activity::ActivityStore& into_;
};

// The one decoder for both magics. IPSCOPE2 adds three checks around the
// shared header and block loop: the coverage bitmap sealed by a header
// CRC, a CRC per block record, and the footer. A bad header is never
// salvageable: without trustworthy dimensions nothing can be decoded.
// `*consumed` is how far the decode read.
template <typename Sink>
Result<LoadStats, StoreError> Decode(std::string_view in,
                                     const LoadOptions& options, Sink& sink,
                                     std::uint64_t* consumed) {
  if (in.size() < sizeof(kMagicV1)) return Truncated(in, "magic");
  const bool v1 = std::memcmp(in.data(), kMagicV1, sizeof(kMagicV1)) == 0;
  const bool v2 = std::memcmp(in.data(), kMagicV2, sizeof(kMagicV2)) == 0;
  if (!v1 && !v2) {
    return StoreError{StoreErrorKind::kBadMagic, 0,
                      "bad magic (not a store file?)"};
  }
  std::size_t pos = sizeof(kMagicV1);

  if (in.size() - pos < 4) return Truncated(in, "day count");
  const auto days = Get<std::uint32_t>(in.data() + pos);
  if (days == 0 || days > kMaxDays) {
    return Malformed(pos, "implausible day count " + std::to_string(days));
  }
  pos += 4;
  if (in.size() - pos < 8) return Truncated(in, "block count");
  const auto blocks = Get<std::uint64_t>(in.data() + pos);
  if (blocks > kMaxBlocks) {
    return Malformed(pos, "implausible block count " + std::to_string(blocks));
  }
  pos += 8;

  LoadStats stats;
  stats.format_version = v2 ? 2 : 1;
  stats.blocks_expected = blocks;
  std::vector<bool> covered(days, true);
  std::uint32_t stream_crc = kCrc32cInit;
  if (v2) {
    // The header carries its own CRC so that corrupted dimensions are
    // caught before they can misdirect the rest of the parse.
    const char* coverage = in.data() + pos;
    const std::size_t coverage_bytes = (days + 7) / 8;
    if (in.size() - pos < coverage_bytes) {
      return Truncated(in, "coverage bitmap");
    }
    pos += coverage_bytes;
    if (in.size() - pos < 4) return Truncated(in, "header checksum");
    const std::uint32_t header_crc = Crc32c(in.data(), pos);
    if (Get<std::uint32_t>(in.data() + pos) != header_crc) {
      return StoreError{StoreErrorKind::kChecksumMismatch, pos,
                        "header checksum mismatch"};
    }
    pos += 4;
    stream_crc = Crc32c(in.data(), pos);
    for (std::uint32_t d = 0; d < days; ++d) {
      covered[d] = (static_cast<unsigned char>(coverage[d / 8]) >> (d % 8)) & 1;
    }
  }

  const std::uint64_t records = CompleteRecords(in, pos, blocks, days, v2);
  if (auto error = sink.Begin(days, covered, records)) return *std::move(error);
  auto finish = [&](std::optional<StoreError> error)
      -> Result<LoadStats, StoreError> {
    *consumed = pos;
    if (error && !options.salvage) return *std::move(error);
    if (error) {
      stats.complete = false;
      stats.blocks_salvaged = stats.blocks_loaded;
      stats.error = std::move(error);
    }
    return std::move(stats);
  };

  {
    // Sub-span: the block loop dominates load time; the header and footer
    // are a few dozen bytes each, so this is the phase worth attributing.
    obs::Span blocks_span{"io.store.load.blocks_seconds"};
    std::uint32_t prev_key = 0;
    for (std::uint64_t b = 0; b < blocks; ++b) {
      // `base` is the absolute offset of the record, for error reporting.
      const std::size_t base = pos;
      if (in.size() - base < kBlockHeaderBytes) {
        return finish(Truncated(in, "block header"));
      }
      const char* rec = in.data() + base;
      const auto key = Get<std::uint32_t>(rec);
      const auto nonzero = Get<std::uint32_t>(rec + 4);
      if (nonzero > days) {
        return finish(Malformed(
            base + 4, "day list length " + std::to_string(nonzero) +
                          " exceeds day count " + std::to_string(days)));
      }
      const std::size_t rec_bytes =
          kBlockHeaderBytes + nonzero * kDayRecordBytes;
      if (in.size() - base < rec_bytes) {
        return finish(Truncated(in, "block payload"));
      }
      if (v2) {
        if (in.size() - base - rec_bytes < 4) {
          return finish(Truncated(in, "block checksum"));
        }
        if (Get<std::uint32_t>(rec + rec_bytes) != Crc32c(rec, rec_bytes)) {
          return finish(StoreError{
              StoreErrorKind::kChecksumMismatch, base,
              "block " + std::to_string(b) + " checksum mismatch"});
        }
        // Fold the record into the stream CRC while it is in cache.
        stream_crc = Crc32cExtend(stream_crc, rec, rec_bytes + 4);
      }
      if (key >= (1u << 24)) {
        return finish(Malformed(base, "block key " + std::to_string(key) +
                                          " out of /24 keyspace"));
      }
      if (b > 0 && key <= prev_key) {
        return finish(Malformed(
            base, "block keys out of order (" + std::to_string(key) +
                      " after " + std::to_string(prev_key) + ")"));
      }
      prev_key = key;
      activity::DayBits* rows = sink.Block(key);
      int prev_day = -1;
      const char* p = rec + kBlockHeaderBytes;
      for (std::uint32_t i = 0; i < nonzero; ++i, p += kDayRecordBytes) {
        const auto day = Get<std::uint16_t>(p);
        if (day >= days || static_cast<int>(day) <= prev_day) {
          return finish(Malformed(base + kBlockHeaderBytes +
                                      i * kDayRecordBytes,
                                  "invalid day index " + std::to_string(day)));
        }
        if (!covered[day]) {
          return finish(Malformed(
              base + kBlockHeaderBytes + i * kDayRecordBytes,
              "activity recorded on uncovered day " + std::to_string(day)));
        }
        prev_day = day;
        activity::DayBits& row = rows[day];
        for (std::size_t w = 0; w < row.size(); ++w) {
          row[w] |= Get<std::uint64_t>(p + 2 + 8 * w);
        }
      }
      pos = base + rec_bytes + (v2 ? 4 : 0);
      ++stats.blocks_loaded;
    }
  }
  if (!v2) return finish(std::nullopt);

  // Footer: magic + block-count echo, then the whole-stream CRC over every
  // preceding byte. A failure here with salvage on keeps the blocks — each
  // was individually checksummed, so they are intact even if the tail of
  // the file is not.
  const std::size_t footer_base = pos;
  if (in.size() - pos < 12) return finish(Truncated(in, "footer"));
  const char* footer = in.data() + pos;
  if (std::memcmp(footer, kFooterMagic, sizeof(kFooterMagic)) != 0) {
    return finish(Malformed(footer_base, "bad footer magic"));
  }
  const auto echo = Get<std::uint64_t>(footer + 4);
  if (echo != blocks) {
    return finish(Malformed(
        footer_base + 4, "footer block count " + std::to_string(echo) +
                             " does not match header " +
                             std::to_string(blocks)));
  }
  stream_crc = Crc32cExtend(stream_crc, footer, 12);
  pos += 12;
  if (in.size() - pos < 4) return finish(Truncated(in, "stream checksum"));
  if (Get<std::uint32_t>(in.data() + pos) != stream_crc) {
    return finish(StoreError{StoreErrorKind::kChecksumMismatch, pos,
                             "stream checksum mismatch"});
  }
  pos += 4;
  return finish(std::nullopt);
}

}  // namespace

void SaveStore(const activity::ActivityStore& store, std::ostream& os) {
  obs::Span span{"io.store.save_seconds"};
  std::uint64_t bytes_written = 0;
  std::uint32_t stream_crc = kCrc32cInit;
  std::string buf(HeaderBytes(store.days()), '\0');
  auto emit = [&] {
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    stream_crc = Crc32cExtend(stream_crc, buf.data(), buf.size());
    bytes_written += buf.size();
  };
  EncodeHeader(buf.data(), store);
  emit();
  store.ForEach([&](net::BlockKey key, const activity::ActivityMatrix& m) {
    const std::uint32_t nonzero = NonEmptyDays(m);
    buf.resize(RecordBytes(nonzero));
    EncodeBlock(buf.data(), key, m, nonzero);
    emit();
  });
  buf.resize(kFooterBytes);
  EncodeFooter(buf.data(), store.BlockCount(), stream_crc);
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  bytes_written += buf.size();
  if (!os) {
    throw std::runtime_error(
        StoreError{StoreErrorKind::kWriteFailed, bytes_written, "write failed"}
            .ToString());
  }
  RecordSave(bytes_written, span);
}

std::string StoreBytes(const activity::ActivityStore& store) {
  obs::Span span{"io.store.save_seconds"};
  std::vector<std::uint32_t> nonzero(store.BlockCount());
  std::size_t size = HeaderBytes(store.days()) + kFooterBytes;
  for (std::size_t i = 0; i < nonzero.size(); ++i) {
    nonzero[i] = NonEmptyDays(store.MatrixAt(i));
    size += RecordBytes(nonzero[i]);
  }
  std::string out(size, '\0');
  char* p = EncodeHeader(out.data(), store);
  std::uint32_t stream_crc =
      Crc32c(out.data(), static_cast<std::size_t>(p - out.data()));
  for (std::size_t i = 0; i < nonzero.size(); ++i) {
    char* end = EncodeBlock(p, store.KeyAt(i), store.MatrixAt(i), nonzero[i]);
    // The record is still in cache: fold it into the stream CRC now.
    stream_crc =
        Crc32cExtend(stream_crc, p, static_cast<std::size_t>(end - p));
    p = end;
  }
  p = EncodeFooter(p, store.BlockCount(), stream_crc);
  assert(p == out.data() + out.size());
  RecordSave(out.size(), span);
  return out;
}

Result<LoadResult, StoreError> TryLoadStoreBytes(std::string_view bytes,
                                                 const LoadOptions& options) {
  obs::Span span{"io.store.load_seconds"};
  std::uint64_t consumed = 0;
  ArenaSink sink;
  auto decoded = Decode(bytes, options, sink, &consumed);
  RecordLoad(decoded, consumed, span);
  if (!decoded.ok()) return decoded.error();
  LoadResult result{sink.Finish(), std::move(decoded).value()};
  obs::GlobalRegistry()
      .GetGauge("activity.days_missing")
      .Set(static_cast<double>(result.store.MissingDays()));
  return result;
}

Result<LoadStats, StoreError> TryMergeStoreBytes(
    std::string_view bytes, activity::ActivityStore& into) {
  obs::Span span{"io.store.load_seconds"};
  std::uint64_t consumed = 0;
  MergeSink sink{into};
  auto decoded = Decode(bytes, LoadOptions{}, sink, &consumed);
  RecordLoad(decoded, consumed, span);
  return decoded;
}

Result<LoadResult, StoreError> TryLoadStore(std::istream& is,
                                            const LoadOptions& options) {
  std::string bytes;
  char chunk[1 << 16];
  while (is.read(chunk, sizeof(chunk)) || is.gcount() > 0) {
    bytes.append(chunk, static_cast<std::size_t>(is.gcount()));
  }
  return TryLoadStoreBytes(bytes, options);
}

void SaveStoreFile(const activity::ActivityStore& store,
                   const std::string& path) {
  // Serialize in memory, then commit through the atomic temp+rename path:
  // a killed or failing process never leaves a truncated store under the
  // final name, and flush/fsync/close results are all checked (an ENOSPC
  // that only surfaces at close used to be reported as success here).
  if (auto error = WriteFileAtomic(path, StoreBytes(store))) {
    obs::GlobalRegistry().GetCounter("io.store.save_errors").Add(1);
    throw std::runtime_error(
        StoreError{StoreErrorKind::kWriteFailed, 0, *error}.ToString());
  }
}

Result<LoadResult, StoreError> TryLoadStoreFile(const std::string& path,
                                                const LoadOptions& options) {
  auto read = ReadWholeFile(path);
  if (!read.ok()) {
    const ReadFileError& error = read.error();
    return StoreError{
        StoreErrorKind::kOpenFailed, 0,
        error.stage == "open"
            ? "cannot open for reading: " + path + " (" +
                  std::strerror(error.error_number) + ")"
            : error.message};
  }
  return TryLoadStoreBytes(read.value(), options);
}

}  // namespace ipscope::io
