// Corruption property sweeps for the IPSCOPE2 store format.
//
// The acceptance bar for the checksummed format: a round-tripped store,
// re-loaded after *any* single-byte corruption or *any* truncation, must
// yield a typed StoreError (strict mode) or an intact salvaged prefix
// (salvage mode) — never a crash, never silently wrong data.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/crc32c.h"
#include "io/store_io.h"
#include "rng/rng.h"
#include "store_v1_encoder.h"

namespace ipscope::io {
namespace {

// Small but structurally complete store: several blocks, mixed empty and
// non-empty days, so every format region (header, multiple block records,
// footer) is present while full byte sweeps stay cheap.
activity::ActivityStore SweepStore() {
  activity::ActivityStore store{10};
  rng::Xoshiro256 g{2024};
  for (std::uint32_t key : {7u, 300u, 5000u, 70000u, 900000u, 16000000u}) {
    activity::ActivityMatrix& m = store.GetOrCreate(key);
    for (int d = 0; d < 10; ++d) {
      if (g.NextBool(0.4)) continue;
      for (int h = 0; h < 256; h += 1 + static_cast<int>(g.NextBounded(24))) {
        m.Set(d, h);
      }
    }
  }
  return store;
}

std::string SerializeV2(const activity::ActivityStore& store) {
  std::stringstream buffer;
  SaveStore(store, buffer);
  return buffer.str();
}

bool RowsEqual(const activity::ActivityMatrix& a,
               const activity::ActivityMatrix& b, int days) {
  for (int d = 0; d < days; ++d) {
    if (a.Row(d) != b.Row(d)) return false;
  }
  return true;
}

// Byte layout of the serialized store, mirroring the format spec in
// io/store_io.h — re-derived here so the loader is checked against an
// independent computation, not against itself.
struct Layout {
  std::uint64_t header_end = 0;
  std::vector<std::uint64_t> block_ends;  // absolute end offset per block
};

Layout LayoutOf(const activity::ActivityStore& store) {
  Layout layout;
  layout.header_end =
      8 + 4 + 8 + (static_cast<std::uint64_t>(store.days()) + 7) / 8 + 4;
  std::uint64_t pos = layout.header_end;
  store.ForEach([&](net::BlockKey, const activity::ActivityMatrix& m) {
    std::uint64_t nonzero = 0;
    for (int d = 0; d < m.days(); ++d) {
      const activity::DayBits& row = m.Row(d);
      if ((row[0] | row[1] | row[2] | row[3]) != 0) ++nonzero;
    }
    pos += 4 + 4 + nonzero * 34 + 4;
    layout.block_ends.push_back(pos);
  });
  return layout;
}

// How many leading blocks survive when every byte at offset >= `damage`
// is untrustworthy (salvage stops at the first damaged record).
std::uint64_t IntactPrefixBlocks(const Layout& layout, std::uint64_t damage) {
  std::uint64_t n = 0;
  for (std::uint64_t end : layout.block_ends) {
    if (end > damage) break;
    ++n;
  }
  return n;
}

// The salvaged store must be a bit-identical prefix of the original.
void ExpectIntactPrefix(const activity::ActivityStore& original,
                        const activity::ActivityStore& salvaged,
                        std::uint64_t expected_blocks) {
  ASSERT_EQ(salvaged.BlockCount(), expected_blocks);
  for (std::size_t i = 0; i < salvaged.BlockCount(); ++i) {
    net::BlockKey key = salvaged.keys()[i];
    ASSERT_EQ(key, original.keys()[i]);
    EXPECT_TRUE(RowsEqual(*salvaged.Find(key), *original.Find(key),
                          original.days()))
        << "block " << key << " not bit-identical";
  }
}

TEST(IoFault, RoundTripV2PreservesCoverage) {
  auto store = SweepStore();
  store.SetDayCovered(2, false);
  store.SetDayCovered(7, false);
  std::stringstream buffer{SerializeV2(store)};
  auto result = TryLoadStore(buffer);
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  const auto& loaded = result.value();
  EXPECT_EQ(loaded.stats.format_version, 2);
  EXPECT_TRUE(loaded.stats.complete);
  EXPECT_EQ(loaded.stats.blocks_loaded, store.BlockCount());
  EXPECT_FALSE(loaded.store.DayCovered(2));
  EXPECT_FALSE(loaded.store.DayCovered(7));
  EXPECT_EQ(loaded.store.MissingDays(), 2);
  ExpectIntactPrefix(store, loaded.store, store.BlockCount());
}

TEST(IoFault, TruncationSweepStrictAlwaysTypedError) {
  auto store = SweepStore();
  const std::string bytes = SerializeV2(store);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::stringstream truncated{bytes.substr(0, cut)};
    auto result = TryLoadStore(truncated);
    ASSERT_FALSE(result.ok()) << "cut at " << cut << " loaded cleanly";
    EXPECT_LE(result.error().offset, cut) << "cut at " << cut;
  }
}

TEST(IoFault, TruncationSweepSalvageRecoversIntactPrefix) {
  auto store = SweepStore();
  const std::string bytes = SerializeV2(store);
  const Layout layout = LayoutOf(store);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::stringstream truncated{bytes.substr(0, cut)};
    auto result = TryLoadStore(truncated, LoadOptions{.salvage = true});
    if (cut < layout.header_end) {
      // Without a verified header nothing can be decoded — salvage must
      // refuse rather than fabricate a store from unvalidated dimensions.
      EXPECT_FALSE(result.ok()) << "cut at " << cut;
      continue;
    }
    ASSERT_TRUE(result.ok())
        << "cut at " << cut << ": " << result.error().ToString();
    const auto& loaded = result.value();
    EXPECT_FALSE(loaded.stats.complete) << "cut at " << cut;
    ASSERT_TRUE(loaded.stats.error.has_value()) << "cut at " << cut;
    ExpectIntactPrefix(store, loaded.store,
                       IntactPrefixBlocks(layout, cut));
  }
}

TEST(IoFault, FlipSweepDetectsEverySingleByteCorruption) {
  auto store = SweepStore();
  const std::string bytes = SerializeV2(store);
  // 0xFF inverts the whole byte; 0x01/0x80 are the lowest- and highest-bit
  // single-bit flips. (None of these can turn the 'IPSCOPE2' magic into
  // 'IPSCOPE1', which differs in bit pattern 0x03 — a flipped magic is an
  // unknown format, not a silent downgrade.)
  for (char mask : {'\x01', '\x80', '\xFF'}) {
    for (std::size_t off = 0; off < bytes.size(); ++off) {
      std::string flipped = bytes;
      flipped[off] ^= mask;
      std::stringstream is{flipped};
      auto result = TryLoadStore(is);
      EXPECT_FALSE(result.ok())
          << "flip mask " << static_cast<int>(mask) << " at byte " << off
          << " went undetected";
    }
  }
}

TEST(IoFault, FlipSweepSalvageNeverCrashesAndKeepsIntactBlocksOnly) {
  auto store = SweepStore();
  const std::string bytes = SerializeV2(store);
  const Layout layout = LayoutOf(store);
  for (std::size_t off = 0; off < bytes.size(); ++off) {
    std::string flipped = bytes;
    flipped[off] ^= '\xFF';
    std::stringstream is{flipped};
    auto result = TryLoadStore(is, LoadOptions{.salvage = true});
    if (off < layout.header_end) {
      EXPECT_FALSE(result.ok()) << "header flip at " << off;
      continue;
    }
    ASSERT_TRUE(result.ok())
        << "flip at " << off << ": " << result.error().ToString();
    const auto& loaded = result.value();
    EXPECT_FALSE(loaded.stats.complete) << "flip at " << off;
    ExpectIntactPrefix(store, loaded.store, IntactPrefixBlocks(layout, off));
  }
}

TEST(IoFault, V1RoundTripStillWorks) {
  auto store = SweepStore();
  std::stringstream buffer{test_bytes::EncodeV1(store)};
  auto result = TryLoadStore(buffer);
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  const auto& loaded = result.value();
  EXPECT_EQ(loaded.stats.format_version, 1);
  EXPECT_TRUE(loaded.stats.complete);
  // v1 cannot carry a coverage mask; a loaded v1 store is fully covered.
  EXPECT_TRUE(loaded.store.FullyCovered());
  ExpectIntactPrefix(store, loaded.store, store.BlockCount());
}

TEST(IoFault, V1ByteLayoutIsFrozen) {
  // Byte-exact pin of the legacy format so old stores stay loadable
  // forever: one block (key 100), day 2, host 7, spelled out by hand.
  std::string bytes = "IPSCOPE1";
  test_bytes::PutLE(bytes, 5, 4);        // days
  test_bytes::PutLE(bytes, 1, 8);        // block count
  test_bytes::PutLE(bytes, 100, 4);      // key
  test_bytes::PutLE(bytes, 1, 4);        // non-empty days
  test_bytes::PutLE(bytes, 2, 2);        // day index
  test_bytes::PutLE(bytes, 1u << 7, 8);  // bitmap word 0: host 7
  test_bytes::PutLE(bytes, 0, 8);
  test_bytes::PutLE(bytes, 0, 8);
  test_bytes::PutLE(bytes, 0, 8);

  activity::ActivityStore expected{5};
  expected.GetOrCreate(100).Set(2, 7);
  // The test-local reference encoder must agree with the hand-built bytes,
  // so every other v1 test decodes the frozen layout too.
  EXPECT_EQ(test_bytes::EncodeV1(expected), bytes);

  std::stringstream is{bytes};
  auto result = TryLoadStore(is);
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_EQ(result.value().stats.format_version, 1);
  EXPECT_EQ(result.value().stats.blocks_loaded, 1u);
  EXPECT_EQ(result.value().store.days(), 5);
  ExpectIntactPrefix(expected, result.value().store, 1);
}

TEST(IoFault, V2ByteLayoutIsFrozen) {
  // Byte-exact pin of the IPSCOPE2 writer: two blocks, day 4 uncovered.
  // The checksums are computed here over the hand-built regions the
  // format spec says they cover, and the stream checksum is also pinned
  // as a literal so a change to the CRC itself cannot go unnoticed.
  activity::ActivityStore store{5};
  store.SetDayCovered(4, false);
  store.GetOrCreate(100).Set(2, 7);
  activity::ActivityMatrix& m = store.GetOrCreate(4242);
  m.Set(0, 255);
  m.Set(3, 64);
  std::stringstream buffer;
  SaveStore(store, buffer);

  using test_bytes::PutLE;
  std::string expected = "IPSCOPE2";
  PutLE(expected, 5, 4);     // days
  PutLE(expected, 2, 8);     // block count
  PutLE(expected, 0x0F, 1);  // coverage bitmap: days 0-3 covered
  PutLE(expected, Crc32c(expected.data(), expected.size()), 4);

  std::string block;
  PutLE(block, 100, 4);      // key
  PutLE(block, 1, 4);        // non-empty days
  PutLE(block, 2, 2);        // day 2
  PutLE(block, 1u << 7, 8);  // host 7
  PutLE(block, 0, 8);
  PutLE(block, 0, 8);
  PutLE(block, 0, 8);
  expected += block;
  PutLE(expected, Crc32c(block.data(), block.size()), 4);

  block.clear();
  PutLE(block, 4242, 4);  // key
  PutLE(block, 2, 4);     // non-empty days
  PutLE(block, 0, 2);     // day 0: host 255 is bit 63 of word 3
  PutLE(block, 0, 8);
  PutLE(block, 0, 8);
  PutLE(block, 0, 8);
  PutLE(block, std::uint64_t{1} << 63, 8);
  PutLE(block, 3, 2);  // day 3: host 64 is bit 0 of word 1
  PutLE(block, 0, 8);
  PutLE(block, 1, 8);
  PutLE(block, 0, 8);
  PutLE(block, 0, 8);
  expected += block;
  PutLE(expected, Crc32c(block.data(), block.size()), 4);

  expected += "END2";
  PutLE(expected, 2, 8);  // block count echo
  PutLE(expected, Crc32c(expected.data(), expected.size()), 4);

  ASSERT_EQ(expected.size(), 167u);
  EXPECT_EQ(expected.substr(163), std::string("\x6a\xf7\x0b\x3d", 4));
  EXPECT_EQ(buffer.str(), expected);
}

TEST(IoFault, TypedErrorKindsAndOffsets) {
  std::stringstream bad_magic{"NOTASTORExxxxxxxxxxxxxxxxxxxxxxx"};
  auto r1 = TryLoadStore(bad_magic);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.error().kind, StoreErrorKind::kBadMagic);
  EXPECT_EQ(r1.error().offset, 0u);

  auto store = SweepStore();
  const std::string bytes = SerializeV2(store);
  const Layout layout = LayoutOf(store);
  // Cut inside the second block: the error position must sit past the
  // first block's record, i.e. the offset pinpoints where data ran out.
  std::size_t cut = static_cast<std::size_t>(layout.block_ends[0]) + 5;
  std::stringstream truncated{bytes.substr(0, cut)};
  auto r2 = TryLoadStore(truncated);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error().kind, StoreErrorKind::kTruncated);
  EXPECT_GE(r2.error().offset, layout.block_ends[0]);
  EXPECT_LE(r2.error().offset, cut);
  // The rendered message carries both kind and offset for operators.
  EXPECT_NE(r2.error().ToString().find("truncated"), std::string::npos);
  EXPECT_NE(r2.error().ToString().find("byte"), std::string::npos);
}

TEST(IoFault, OpenFailureCarriesErrnoDetail) {
  auto result = TryLoadStoreFile("/nonexistent/dir/store.bin");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, StoreErrorKind::kOpenFailed);
  EXPECT_NE(result.error().message.find("No such file"), std::string::npos)
      << result.error().message;
}

// Exact IPSCOPE2 image size of `store`, from the independent layout.
std::uint64_t ExactImageBytes(const activity::ActivityStore& store) {
  const Layout layout = LayoutOf(store);
  const std::uint64_t blocks_end =
      layout.block_ends.empty() ? layout.header_end : layout.block_ends.back();
  return blocks_end + 4 + 8 + 4;  // footer: "END2", count echo, stream CRC
}

// Two load results are the same: both fail with the same kind, offset and
// message, or both succeed with the same stats and a bit-identical store
// (dimensions, coverage, keys and every row).
void ExpectSameLoad(const Result<LoadResult, StoreError>& a,
                    const Result<LoadResult, StoreError>& b,
                    const std::string& what) {
  ASSERT_EQ(a.ok(), b.ok()) << what;
  if (!a.ok()) {
    EXPECT_EQ(a.error().kind, b.error().kind) << what;
    EXPECT_EQ(a.error().offset, b.error().offset) << what;
    EXPECT_EQ(a.error().message, b.error().message) << what;
    return;
  }
  const LoadStats& sa = a.value().stats;
  const LoadStats& sb = b.value().stats;
  EXPECT_EQ(sa.format_version, sb.format_version) << what;
  EXPECT_EQ(sa.blocks_expected, sb.blocks_expected) << what;
  EXPECT_EQ(sa.blocks_loaded, sb.blocks_loaded) << what;
  EXPECT_EQ(sa.blocks_salvaged, sb.blocks_salvaged) << what;
  EXPECT_EQ(sa.complete, sb.complete) << what;
  ASSERT_EQ(sa.error.has_value(), sb.error.has_value()) << what;
  if (sa.error) {
    EXPECT_EQ(sa.error->ToString(), sb.error->ToString()) << what;
  }
  const activity::ActivityStore& x = a.value().store;
  const activity::ActivityStore& y = b.value().store;
  ASSERT_EQ(x.days(), y.days()) << what;
  for (int d = 0; d < x.days(); ++d) {
    EXPECT_EQ(x.DayCovered(d), y.DayCovered(d)) << what << " day " << d;
  }
  ASSERT_EQ(x.BlockCount(), y.BlockCount()) << what;
  for (std::size_t i = 0; i < x.BlockCount(); ++i) {
    ASSERT_EQ(x.KeyAt(i), y.KeyAt(i)) << what;
    EXPECT_TRUE(RowsEqual(x.MatrixAt(i), y.MatrixAt(i), x.days()))
        << what << " block " << x.KeyAt(i);
  }
}

// Every damaged image of the gapped sweep store — each truncation and
// each single-byte flip — loads identically through the stream wrapper,
// the byte decoder and the file loader, strict and salvaging; and every
// store a load returns re-encodes to exactly its precomputed size.
TEST(IoFault, AllLoadersAgreeOnEveryTruncationAndFlip) {
  auto store = SweepStore();
  store.SetDayCovered(2, false);
  store.SetDayCovered(7, false);
  const std::string bytes = StoreBytes(store);
  ASSERT_EQ(bytes.size(), ExactImageBytes(store));
  const std::string path = ::testing::TempDir() + "/ipscope_io_equiv." +
                           std::to_string(getpid()) + ".bin";

  std::vector<std::pair<std::string, std::string>> images;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    images.emplace_back("cut at " + std::to_string(cut), bytes.substr(0, cut));
  }
  for (std::size_t off = 0; off < bytes.size(); ++off) {
    std::string flipped = bytes;
    flipped[off] ^= '\x5A';
    images.emplace_back("flip at " + std::to_string(off), std::move(flipped));
  }
  images.emplace_back("intact", bytes);

  for (bool salvage : {false, true}) {
    const LoadOptions options{.salvage = salvage};
    for (const auto& [name, image] : images) {
      const std::string what =
          name + (salvage ? " (salvage)" : " (strict)");
      std::stringstream is{image};
      auto from_stream = TryLoadStore(is, options);
      auto from_bytes = TryLoadStoreBytes(image, options);
      std::ofstream{path, std::ios::binary | std::ios::trunc} << image;
      auto from_file = TryLoadStoreFile(path, options);
      ExpectSameLoad(from_bytes, from_stream, what + " stream");
      ExpectSameLoad(from_bytes, from_file, what + " file");
      if (from_bytes.ok()) {
        const activity::ActivityStore& loaded = from_bytes.value().store;
        EXPECT_EQ(StoreBytes(loaded).size(), ExactImageBytes(loaded)) << what;
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ipscope::io
