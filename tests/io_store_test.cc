#include "io/store_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "cdn/observatory.h"
#include "io/crc32c.h"
#include "rng/rng.h"
#include "sim/world.h"
#include "store_v1_encoder.h"

namespace ipscope::io {
namespace {

activity::ActivityStore RandomStore(std::uint64_t seed, int days,
                                    int blocks) {
  activity::ActivityStore store{days};
  rng::Xoshiro256 g{seed};
  for (int b = 0; b < blocks; ++b) {
    net::BlockKey key = g.NextBounded(1u << 24);
    activity::ActivityMatrix& m = store.GetOrCreate(key);
    for (int d = 0; d < days; ++d) {
      if (g.NextBool(0.5)) continue;  // leave many empty days
      for (int h = 0; h < 256; h += 1 + static_cast<int>(g.NextBounded(16))) {
        m.Set(d, h);
      }
    }
  }
  return store;
}

bool StoresEqual(const activity::ActivityStore& a,
                 const activity::ActivityStore& b) {
  if (a.days() != b.days() || a.BlockCount() != b.BlockCount()) return false;
  bool equal = true;
  a.ForEach([&](net::BlockKey key, const activity::ActivityMatrix& m) {
    const activity::ActivityMatrix* other = b.Find(key);
    if (other == nullptr) {
      equal = false;
      return;
    }
    for (int d = 0; d < a.days(); ++d) {
      if (m.Row(d) != other->Row(d)) equal = false;
    }
  });
  return equal;
}

// Strict load that must succeed; the failure message carries the typed
// error so a regression names its kind and byte offset.
activity::ActivityStore LoadOk(std::istream& is) {
  auto result = TryLoadStore(is);
  EXPECT_TRUE(result.ok()) << result.error().ToString();
  if (!result.ok()) return activity::ActivityStore{1};
  return std::move(result).value().store;
}

TEST(StoreIo, RoundTripRandomStore) {
  auto store = RandomStore(42, 30, 50);
  std::stringstream buffer;
  SaveStore(store, buffer);
  auto loaded = LoadOk(buffer);
  EXPECT_TRUE(StoresEqual(store, loaded));
}

TEST(StoreIo, RoundTripEmptyStore) {
  activity::ActivityStore store{7};
  std::stringstream buffer;
  SaveStore(store, buffer);
  auto loaded = LoadOk(buffer);
  EXPECT_EQ(loaded.days(), 7);
  EXPECT_EQ(loaded.BlockCount(), 0u);
}

TEST(StoreIo, RoundTripObservatoryDataset) {
  sim::WorldConfig config;
  config.target_client_blocks = 200;
  sim::World world{config};
  auto store = cdn::Observatory::Daily(world).BuildStore();
  std::stringstream buffer;
  SaveStore(store, buffer);
  auto loaded = LoadOk(buffer);
  EXPECT_TRUE(StoresEqual(store, loaded));
  EXPECT_EQ(store.CountActive(0, store.days()),
            loaded.CountActive(0, loaded.days()));
}

TEST(StoreIo, RejectsBadMagic) {
  std::stringstream buffer{"NOTASTORExxxxxxxxxxxxxxxx"};
  auto result = TryLoadStore(buffer);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, StoreErrorKind::kBadMagic);
  EXPECT_EQ(result.error().offset, 0u);
}

TEST(StoreIo, RejectsTruncation) {
  auto store = RandomStore(7, 20, 10);
  std::stringstream buffer;
  SaveStore(store, buffer);
  std::string bytes = buffer.str();
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{9}}) {
    std::stringstream truncated{bytes.substr(0, cut)};
    auto result = TryLoadStore(truncated);
    ASSERT_FALSE(result.ok()) << cut;
    EXPECT_EQ(result.error().kind, StoreErrorKind::kTruncated) << cut;
    EXPECT_LE(result.error().offset, cut);
  }
}

TEST(StoreIo, RejectsCorruptedDayIndex) {
  activity::ActivityStore store{5};
  store.GetOrCreate(100).Set(2, 7);
  std::string bytes = test_bytes::EncodeV1(store);
  // In the v1 format the day index u16 sits right after magic(8) +
  // days(4) + count(8) + key(4) + nonzero(4) = offset 28. Corrupt it
  // beyond the day range; v1 has no checksum, so only the semantic
  // validation can catch this.
  bytes[28] = 99;
  std::stringstream corrupted{bytes};
  auto result = TryLoadStore(corrupted);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, StoreErrorKind::kMalformed);
  EXPECT_EQ(result.error().offset, 28u);
}

TEST(StoreIo, FileRoundTrip) {
  auto store = RandomStore(11, 14, 20);
  std::string path = ::testing::TempDir() + "/ipscope_store_test." +
                     std::to_string(getpid()) + ".bin";
  SaveStoreFile(store, path);
  auto loaded = TryLoadStoreFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  EXPECT_TRUE(StoresEqual(store, loaded.value().store));
}

TEST(StoreIo, MissingFileIsOpenFailed) {
  auto result = TryLoadStoreFile("/nonexistent/path/store.bin");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, StoreErrorKind::kOpenFailed);
  EXPECT_EQ(result.error().offset, 0u);
}

TEST(StoreIo, CompressionSkipsEmptyDays) {
  // A store with one active day out of 1000 must serialize far smaller
  // than the dense equivalent (~32KB). The v2 format adds a coverage
  // bitmap (one bit per day), per-block checksums, and a footer, so its
  // fixed overhead is larger than v1's but still tiny vs dense.
  activity::ActivityStore store{1000};
  store.GetOrCreate(5).Set(500, 1);
  std::stringstream v2;
  SaveStore(store, v2);
  EXPECT_LT(test_bytes::EncodeV1(store).size(), 100u);
  EXPECT_LT(v2.str().size(), 250u);
}

// Two images covering disjoint day ranges merge into their union: the
// coverage of both, every key of both, and each row ORed in. Merging one
// image into an empty, all-uncovered store gives what loading it gives.
TEST(StoreIo, MergeUnionsCoverageAndRows) {
  activity::ActivityStore early = RandomStore(21, 20, 40);
  activity::ActivityStore late = RandomStore(22, 20, 40);
  for (int d = 0; d < 20; ++d) {
    (d < 12 ? late : early).SetDayCovered(d, false);
  }
  activity::ActivityStore expected{20};
  for (const activity::ActivityStore* part : {&early, &late}) {
    part->ForEach([&](net::BlockKey key, const activity::ActivityMatrix& m) {
      activity::ActivityMatrix& out = expected.GetOrCreate(key);
      for (int d = 0; d < 20; ++d) {
        for (std::size_t w = 0; w < 4; ++w) out.Row(d)[w] |= m.Row(d)[w];
      }
    });
  }

  activity::ActivityStore merged{20};
  for (int d = 0; d < 20; ++d) merged.SetDayCovered(d, false);
  auto first = TryMergeStoreBytes(StoreBytes(early), merged);
  ASSERT_TRUE(first.ok()) << first.error().ToString();
  EXPECT_EQ(first.value().blocks_loaded, early.BlockCount());
  auto loaded = TryLoadStoreBytes(StoreBytes(early));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(StoresEqual(merged, loaded.value().store));
  EXPECT_EQ(merged.MissingDayList(), loaded.value().store.MissingDayList());

  auto second = TryMergeStoreBytes(StoreBytes(late), merged);
  ASSERT_TRUE(second.ok()) << second.error().ToString();
  EXPECT_TRUE(merged.FullyCovered());
  EXPECT_TRUE(StoresEqual(merged, expected));
}

TEST(StoreIo, MergeRejectsAnotherDayCount) {
  activity::ActivityStore into{30};
  auto result = TryMergeStoreBytes(StoreBytes(RandomStore(23, 20, 5)), into);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, StoreErrorKind::kMalformed);
  EXPECT_EQ(result.error().offset, 8u);
  EXPECT_EQ(into.BlockCount(), 0u);
}

// RFC 3720 appendix B.4 check values, for the dispatched implementation
// and the portable table alike.
TEST(Crc32c, KnownAnswersFromRfc3720) {
  const std::string digits = "123456789";
  const std::string zeros(32, '\x00');
  const std::string ones(32, '\xFF');
  for (auto* extend : {&Crc32cExtend, &Crc32cExtendPortable}) {
    EXPECT_EQ(extend(kCrc32cInit, digits.data(), digits.size()), 0xE3069283u);
    EXPECT_EQ(extend(kCrc32cInit, zeros.data(), zeros.size()), 0x8A9136AAu);
    EXPECT_EQ(extend(kCrc32cInit, ones.data(), ones.size()), 0x62A8AB43u);
  }
  EXPECT_EQ(Crc32c(digits.data(), digits.size()), 0xE3069283u);
}

// The dispatched path must agree with the portable oracle for every length
// 0-1024 at every start alignment 0-7, also when a range is fed in two
// pieces split at a random point (the incremental interface the store
// codec uses for its stream checksum).
TEST(Crc32c, DispatchedMatchesPortableAtEveryLengthOffsetAndSplit) {
  rng::Xoshiro256 g{3720};
  std::string buffer(1024 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(g());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const char* p = buffer.data() + offset;
      const std::uint32_t expected =
          Crc32cExtendPortable(kCrc32cInit, p, len);
      ASSERT_EQ(Crc32cExtend(kCrc32cInit, p, len), expected)
          << "offset " << offset << " length " << len;
      const std::size_t split =
          g.NextBounded(static_cast<std::uint32_t>(len + 1));
      const std::uint32_t head = Crc32cExtend(kCrc32cInit, p, split);
      ASSERT_EQ(Crc32cExtend(head, p + split, len - split), expected)
          << "offset " << offset << " length " << len << " split " << split;
    }
  }
}

}  // namespace
}  // namespace ipscope::io
