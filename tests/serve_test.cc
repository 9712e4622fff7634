// Query-daemon tests: frame decoding, the DirectAnswer oracle, cache
// byte-identity, snapshot isolation under concurrent reload, and a
// multi-threaded hammer that diffs every served response against direct
// ActivityStore/analysis calls on the same snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "activity/churn.h"
#include "activity/store.h"
#include "geo/country.h"
#include "netbase/prefix.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "serve/cache.h"
#include "serve/frame.h"
#include "serve/server.h"

namespace ipscope::serve {
namespace {

// A small deterministic store: three /24 blocks under 10.0.0.0/16 plus one
// far-away block, 14 days, distinct per-block activity shapes. `variant`
// perturbs day coverage so two stores built from it answer differently.
activity::ActivityStore MakeStore(int variant = 0) {
  activity::ActivityStore store{14};
  // Insertion keeps blocks sorted, so grab each matrix only after all four
  // keys exist (GetOrCreate may move earlier matrices).
  for (net::BlockKey key : {0x0A0000, 0x0A0001, 0x0A0002, 0xC0A800}) {
    store.GetOrCreate(key);
  }
  activity::ActivityMatrix& a = store.GetOrCreate(0x0A0000);  // 10.0.0.0/24
  activity::ActivityMatrix& b = store.GetOrCreate(0x0A0001);  // 10.0.1.0/24
  activity::ActivityMatrix& c = store.GetOrCreate(0x0A0002);  // 10.0.2.0/24
  activity::ActivityMatrix& d = store.GetOrCreate(0xC0A800);  // 192.168.0.0/24
  for (int day = 0; day < 14; ++day) {
    for (int host = 0; host < 40; ++host) a.Set(day, host);  // constant
    if (day % 2 == 0) b.Set(day, 7);                         // periodic
    c.Set(day, day * 3);                                     // wandering
    if (day < 7) d.Set(day, 1);                              // disappears
  }
  if (variant != 0) store.SetDayCovered(0, false);
  return store;
}

std::vector<BlockAttribution> MakeAttribution() {
  std::int16_t country_a = 0;
  std::int16_t country_b = 1;
  return {
      {0x0A0000, 65001, country_a},
      {0x0A0001, 65001, country_b},
      {0x0A0002, 65002, country_a},
      {0xC0A800, 65002, country_b},
  };
}

std::uint64_t ParseSnapshotId(const std::string& response) {
  auto doc = obs::json::Parse(response);
  const obs::json::Value* id = doc.Find("snapshot");
  return id ? static_cast<std::uint64_t>(id->AsNumber()) : 0;
}

// --- framing ---------------------------------------------------------------

TEST(ServeFrame, EncodeDecodeRoundTrip) {
  std::string frame = EncodeFrame(R"({"endpoint": "summary"})");
  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().body, R"({"endpoint": "summary"})");
  EXPECT_EQ(decoded.value().consumed, frame.size());
}

TEST(ServeFrame, EmptyBodyRoundTrips) {
  std::string frame = EncodeFrame("");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes);
  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().body.empty());
}

TEST(ServeFrame, TruncatedHeaderIsTyped) {
  auto decoded = DecodeFrame("IPS");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, FrameError::Kind::kTruncated);
  EXPECT_NE(decoded.error().ToString().find("truncated"), std::string::npos);
}

TEST(ServeFrame, BadMagicIsTypedWithOffset) {
  std::string frame = EncodeFrame("{}");
  frame[0] = 'X';
  auto decoded = DecodeFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, FrameError::Kind::kBadMagic);
  EXPECT_EQ(decoded.error().offset, 0u);
}

TEST(ServeFrame, StoreFileMagicIsRejected) {
  // A v2 store file piped at the daemon must fail as bad magic, not hang.
  auto decoded = DecodeFrame("IPSCOPE2........");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, FrameError::Kind::kBadMagic);
}

TEST(ServeFrame, OversizedBodyIsRejectedBeforeAllocation) {
  std::string frame = EncodeFrame("x");
  // Patch the length field to 2 MiB against a 1 MiB ceiling.
  std::uint32_t huge = 2u << 20;
  for (int i = 0; i < 4; ++i) {
    frame[4 + static_cast<std::size_t>(i)] =
        static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  auto decoded = DecodeFrame(frame, kDefaultMaxBodyBytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, FrameError::Kind::kOversized);
  EXPECT_EQ(decoded.error().offset, 4u);
}

TEST(ServeFrame, TruncatedBodyIsTyped) {
  std::string frame = EncodeFrame("hello world");
  frame.resize(frame.size() - 4);
  auto decoded = DecodeFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, FrameError::Kind::kTruncated);
}

TEST(ServeFrame, KindNamesAreStable) {
  EXPECT_STREQ(FrameErrorKindName(FrameError::Kind::kTruncated), "truncated");
  EXPECT_STREQ(FrameErrorKindName(FrameError::Kind::kBadMagic), "bad-magic");
  EXPECT_STREQ(FrameErrorKindName(FrameError::Kind::kOversized), "oversized");
}

// --- DirectAnswer oracle anchors -------------------------------------------
//
// DirectAnswer is the oracle every other test diffs against, so it is
// itself anchored here against direct store/analysis calls.

TEST(ServeDirect, SummaryMatchesStoreCounts) {
  auto store = MakeStore();
  std::string response =
      Server::DirectAnswer(store, 1, {}, R"({"endpoint": "summary"})");
  auto doc = obs::json::Parse(response);
  EXPECT_TRUE(doc.Find("ok")->AsBool());
  EXPECT_EQ(doc.Find("endpoint")->AsString(), "summary");
  EXPECT_EQ(ParseSnapshotId(response), 1u);
  const obs::json::Value* result = doc.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->Find("days")->AsNumber(), store.days());
  EXPECT_EQ(result->Find("blocks")->AsNumber(),
            static_cast<double>(store.keys().size()));
  EXPECT_EQ(result->Find("unique_addresses")->AsNumber(),
            static_cast<double>(store.CountActive(0, store.days())));
  const auto& daily = result->Find("active_per_day")->AsArray();
  auto want = store.DailyActiveCounts();
  ASSERT_EQ(daily.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(daily[i].AsNumber(), static_cast<double>(want[i]));
  }
}

TEST(ServeDirect, ChurnRendersAnalyzerResultsExactly) {
  auto store = MakeStore();
  activity::ChurnAnalyzer analyzer{store};
  auto series = analyzer.Churn(7);
  std::string response = Server::DirectAnswer(
      store, 1, {}, R"({"endpoint": "churn", "window": 7})");
  // Bit-identity contract: the response must contain each percentage
  // rendered with serve::JsonNumber (%.17g), not a re-rounded variant.
  for (double v : series.up_pct) {
    EXPECT_NE(response.find(JsonNumber(v)), std::string::npos)
        << "up_pct " << v << " missing from " << response;
  }
  for (double v : series.down_pct) {
    EXPECT_NE(response.find(JsonNumber(v)), std::string::npos);
  }
  EXPECT_NE(response.find(JsonNumber(series.up.median)), std::string::npos);
  EXPECT_NE(response.find(JsonNumber(series.down.median)), std::string::npos);
  auto doc = obs::json::Parse(response);
  const auto& pairs = doc.Find("result")->Find("pairs")->AsArray();
  ASSERT_EQ(pairs.size(), series.pairs.size());
}

TEST(ServeDirect, PointReportsAbsentBlock) {
  auto store = MakeStore();
  std::string response = Server::DirectAnswer(
      store, 1, {}, R"({"endpoint": "point", "block": "10.9.9.0/24"})");
  auto doc = obs::json::Parse(response);
  EXPECT_TRUE(doc.Find("ok")->AsBool());
  EXPECT_FALSE(doc.Find("result")->Find("present")->AsBool());
}

TEST(ServeDirect, PointHostListsActiveDays) {
  auto store = MakeStore();
  std::string response = Server::DirectAnswer(
      store, 1, {},
      R"({"endpoint": "point", "block": "10.0.1.0/24", "host": 7})");
  auto doc = obs::json::Parse(response);
  const obs::json::Value* result = doc.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->Find("active_days")->AsNumber(), 7.0);  // days 0,2,..,12
  const auto& days = result->Find("days")->AsArray();
  ASSERT_EQ(days.size(), 7u);
  for (std::size_t i = 0; i < days.size(); ++i) {
    EXPECT_EQ(days[i].AsNumber(), static_cast<double>(2 * i));
  }
}

TEST(ServeDirect, PrefixCountsOnlyContainedBlocks) {
  auto store = MakeStore();
  std::string response = Server::DirectAnswer(
      store, 1, {}, R"({"endpoint": "prefix", "prefix": "10.0.0.0/16"})");
  auto doc = obs::json::Parse(response);
  const obs::json::Value* result = doc.Find("result");
  ASSERT_NE(result, nullptr);
  // 192.168.0.0/24 must be excluded: 3 of the 4 blocks are under 10.0/16.
  EXPECT_EQ(result->Find("active_blocks")->AsNumber(), 3.0);
  EXPECT_EQ(result->Find("active_addresses")->AsNumber(),
            40.0 + 1.0 + 14.0);  // constant + periodic + wandering
}

TEST(ServeDirect, AttributionEndpointsNeedTheTable) {
  auto store = MakeStore();
  std::string response = Server::DirectAnswer(
      store, 1, {}, R"({"endpoint": "as", "asn": 65001})");
  auto doc = obs::json::Parse(response);
  EXPECT_FALSE(doc.Find("ok")->AsBool());
  EXPECT_EQ(doc.Find("error")->Find("kind")->AsString(),
            "attribution-unavailable");
}

TEST(ServeDirect, AsEndpointAggregatesAttributedBlocks) {
  auto store = MakeStore();
  auto attribution = MakeAttribution();
  std::string response = Server::DirectAnswer(
      store, 1, attribution, R"({"endpoint": "as", "asn": 65001})");
  auto doc = obs::json::Parse(response);
  ASSERT_TRUE(doc.Find("ok")->AsBool());
  const obs::json::Value* result = doc.Find("result");
  EXPECT_EQ(result->Find("attributed_blocks")->AsNumber(), 2.0);
  EXPECT_EQ(result->Find("active_addresses")->AsNumber(), 40.0 + 1.0);
}

TEST(ServeDirect, CountryEndpointUsesGeoIndex) {
  auto store = MakeStore();
  auto attribution = MakeAttribution();
  std::string code{geo::Countries()[0].code};
  std::string response = Server::DirectAnswer(
      store, 1, attribution,
      R"({"endpoint": "country", "code": ")" + code + "\"}");
  auto doc = obs::json::Parse(response);
  ASSERT_TRUE(doc.Find("ok")->AsBool());
  // Country index 0 owns 10.0.0.0/24 (constant) and 10.0.2.0/24 (wandering).
  EXPECT_EQ(doc.Find("result")->Find("attributed_blocks")->AsNumber(), 2.0);
  EXPECT_EQ(doc.Find("result")->Find("active_addresses")->AsNumber(),
            40.0 + 14.0);
}

TEST(ServeDirect, TypedErrorsForBadInput) {
  auto store = MakeStore();
  auto kind_of = [&](std::string_view body) {
    auto doc = obs::json::Parse(Server::DirectAnswer(store, 1, {}, body));
    EXPECT_FALSE(doc.Find("ok")->AsBool());
    return doc.Find("error")->Find("kind")->AsString();
  };
  EXPECT_EQ(kind_of("{not json"), "bad-json");
  EXPECT_EQ(kind_of(R"({"endpoint": "no-such"})"), "unknown-endpoint");
  EXPECT_EQ(kind_of(R"({"endpoint": "point"})"), "bad-request");
  EXPECT_EQ(kind_of(R"({"endpoint": "prefix", "prefix": "10.0.0.0/28"})"),
            "bad-request");  // length > 24
  EXPECT_EQ(kind_of(R"({"endpoint": "country", "code": "zz"})"),
            "bad-request");
  EXPECT_EQ(kind_of(R"({"endpoint": "churn", "window": 0})"), "bad-request");
}

TEST(ServeDirect, NonFiniteAndOutOfRangeNumbersAreRejected) {
  auto store = MakeStore();
  auto kind_of = [&](std::string_view body) {
    auto doc = obs::json::Parse(Server::DirectAnswer(store, 1, {}, body));
    EXPECT_FALSE(doc.Find("ok")->AsBool()) << body;
    return doc.Find("error")->Find("kind")->AsString();
  };
  // Not JSON numbers at all: the parser refuses them.
  EXPECT_EQ(kind_of(R"({"endpoint":"churn","window":inf})"), "bad-json");
  EXPECT_EQ(kind_of(R"({"endpoint":"churn","window":-infinity})"),
            "bad-json");
  EXPECT_EQ(kind_of(R"({"endpoint":"churn","window":-nan})"), "bad-json");
  EXPECT_EQ(kind_of(R"({"endpoint":"churn","window":1e400})"), "bad-json");
  // Valid JSON, but far outside the field's range or not an integer.
  EXPECT_EQ(kind_of(R"({"endpoint":"churn","window":1e300})"),
            "bad-request");
  EXPECT_EQ(kind_of(R"({"endpoint":"churn","window":-1e300})"),
            "bad-request");
  EXPECT_EQ(kind_of(R"({"endpoint":"churn","window":7.5})"), "bad-request");
  EXPECT_EQ(kind_of(R"({"endpoint":"prefix","prefix":"10.0.0.0/8",)"
                    R"("day_first":1e19})"),
            "bad-request");
}

// --- Server: cache, frames, batch ------------------------------------------

TEST(ServeServer, CacheHitIsByteIdenticalToMiss) {
  Server server{MakeStore()};
  auto& hits = obs::GlobalRegistry().GetCounter("serve.cache.hits");
  std::string body = R"({"endpoint": "summary"})";
  std::string miss = server.HandleRequest(body);
  std::uint64_t before = hits.value();
  std::string hit = server.HandleRequest(body);
  EXPECT_EQ(miss, hit);
  EXPECT_GT(hits.value(), before);
  EXPECT_EQ(miss, Server::DirectAnswer(MakeStore(), 1, {}, body));
}

TEST(ServeServer, DisabledCacheStillMatchesOracle) {
  ServerOptions options;
  options.cache_capacity = 0;
  Server server{MakeStore(), options};
  std::string body = R"({"endpoint": "churn", "window": 7})";
  EXPECT_EQ(server.HandleRequest(body), server.HandleRequest(body));
  EXPECT_EQ(server.HandleRequest(body),
            Server::DirectAnswer(MakeStore(), 1, {}, body));
}

TEST(ServeServer, HandleFrameWrapsBadFramesAsTypedErrors) {
  Server server{MakeStore()};
  std::string response_frame = server.HandleFrame("garbage-not-a-frame");
  auto decoded = DecodeFrame(response_frame);
  ASSERT_TRUE(decoded.ok());
  auto doc = obs::json::Parse(decoded.value().body);
  EXPECT_FALSE(doc.Find("ok")->AsBool());
  EXPECT_EQ(doc.Find("error")->Find("kind")->AsString(), "bad-frame");
}

TEST(ServeServer, HandleFrameRoundTripsGoodRequests) {
  Server server{MakeStore()};
  std::string body = R"({"endpoint": "summary"})";
  std::string response_frame = server.HandleFrame(EncodeFrame(body));
  auto decoded = DecodeFrame(response_frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().body, server.HandleRequest(body));
}

TEST(ServeServer, BatchIsPositionallyAlignedWithIndividualAnswers) {
  Server server{MakeStore()};
  std::vector<std::string> bodies = {
      R"({"endpoint": "summary"})",
      R"({"endpoint": "patterns"})",
      R"({"endpoint": "point", "block": "10.0.0.0/24"})",
      "{bad json",
  };
  auto batch = server.HandleBatch(bodies);
  ASSERT_EQ(batch.size(), bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    EXPECT_EQ(batch[i], server.HandleRequest(bodies[i])) << "index " << i;
  }
}

TEST(ServeCache, FingerprintSeparatesSnapshots) {
  EXPECT_NE(FingerprintQuery("q", 1), FingerprintQuery("q", 2));
  EXPECT_NE(FingerprintQuery("a", 1), FingerprintQuery("b", 1));
  EXPECT_EQ(FingerprintQuery("a", 7), FingerprintQuery("a", 7));
}

// --- snapshot isolation -----------------------------------------------------

TEST(ServeSnapshot, ReloadGivesNewIdAndNewAnswers) {
  Server server{MakeStore(0)};
  std::string body = R"({"endpoint": "summary"})";
  std::string before = server.HandleRequest(body);
  EXPECT_EQ(ParseSnapshotId(before), 1u);
  EXPECT_EQ(before, Server::DirectAnswer(MakeStore(0), 1, {}, body));

  std::uint64_t new_id = server.Reload(MakeStore(1));
  EXPECT_EQ(new_id, 2u);
  EXPECT_EQ(server.snapshot_id(), 2u);
  std::string after = server.HandleRequest(body);
  EXPECT_EQ(ParseSnapshotId(after), 2u);
  EXPECT_EQ(after, Server::DirectAnswer(MakeStore(1), 2, {}, body));
  EXPECT_NE(before, after);  // day-0 coverage shift must be visible
}

TEST(ServeSnapshot, ConcurrentReloadNeverMixesSnapshots) {
  Server server{MakeStore(0)};
  auto oracle_even = MakeStore(1);  // installed at even ids (2, 4, ...)
  auto oracle_odd = MakeStore(0);   // id 1 and odd reinstalls (3, 5, ...)
  const std::vector<std::string> bodies = {
      R"({"endpoint": "summary"})",
      R"({"endpoint": "churn", "window": 7})",
      R"({"endpoint": "point", "block": "192.168.0.0/24"})",
  };
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      int i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& body = bodies[static_cast<std::size_t>(i++) %
                                         bodies.size()];
        std::string got = server.HandleRequest(body);
        std::uint64_t id = ParseSnapshotId(got);
        const auto& oracle = (id % 2 == 0) ? oracle_even : oracle_odd;
        if (got != Server::DirectAnswer(oracle, id, {}, body)) ++mismatches;
      }
    });
  }
  for (int round = 0; round < 8; ++round) {
    std::uint64_t id = server.Reload(MakeStore(round % 2 == 1 ? 0 : 1));
    EXPECT_EQ(id, static_cast<std::uint64_t>(round + 2));
    std::this_thread::yield();
  }
  // A request started strictly after the last Reload must see its id.
  std::uint64_t final_id = server.snapshot_id();
  EXPECT_EQ(ParseSnapshotId(server.HandleRequest(bodies[0])), final_id);
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- the hammer -------------------------------------------------------------

TEST(ServeHammer, EightThreadsStayBitIdenticalToOracle) {
  Server server{MakeStore()};
  server.SetAttribution(MakeAttribution());
  auto oracle = MakeStore();
  auto attribution = MakeAttribution();
  const std::vector<std::string> bodies = {
      R"({"endpoint": "summary"})",
      R"({"endpoint": "churn", "window": 7})",
      R"({"endpoint": "churn", "window": 3})",
      R"({"endpoint": "patterns"})",
      R"({"endpoint": "patterns", "prefix": "10.0.0.0/16"})",
      R"({"endpoint": "point", "block": "10.0.0.0/24"})",
      R"({"endpoint": "point", "block": "10.0.1.0/24", "host": 7})",
      R"({"endpoint": "prefix", "prefix": "10.0.0.0/16"})",
      R"({"endpoint": "as", "asn": 65002})",
      R"({"endpoint": "no-such"})",
  };
  std::vector<std::string> expected;
  for (const std::string& body : bodies) {
    expected.push_back(
        EncodeFrame(Server::DirectAnswer(oracle, 1, attribution, body)));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < 40; ++r) {
        std::size_t i = static_cast<std::size_t>(t + r) % bodies.size();
        if (server.HandleFrame(EncodeFrame(bodies[i])) != expected[i]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace ipscope::serve
