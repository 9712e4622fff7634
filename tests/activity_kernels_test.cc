// The word-level activity kernels against slow, obvious oracles: the
// bit-sliced HostDayCounter against a per-bit column walk, and the one-pass
// ComputeFeatures against the four-sweep definition it replaced, compared
// with EXPECT_EQ on every double (bit-identical, not near).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "activity/matrix.h"
#include "activity/metrics.h"
#include "activity/pattern.h"
#include "activity/store.h"
#include "cdn/observatory.h"
#include "rng/rng.h"
#include "sim/world.h"

namespace ipscope::activity {
namespace {

std::array<std::uint16_t, 256> PerBitCounts(const ActivityMatrix& m) {
  std::array<std::uint16_t, 256> counts{};
  for (int d = 0; d < m.days(); ++d) {
    for (int h = 0; h < 256; ++h) {
      if (m.Get(d, h)) ++counts[static_cast<std::size_t>(h)];
    }
  }
  return counts;
}

// The set-bit walk HostActiveDayCounts used before the bit-sliced counter.
std::array<std::uint16_t, 256> SetBitWalkCounts(const ActivityMatrix& m) {
  std::array<std::uint16_t, 256> counts{};
  for (int d = 0; d < m.days(); ++d) {
    const DayBits& row = m.Row(d);
    for (int w = 0; w < 4; ++w) {
      std::uint64_t word = row[static_cast<std::size_t>(w)];
      while (word != 0) {
        ++counts[static_cast<std::size_t>(w * 64 + std::countr_zero(word))];
        word &= word - 1;
      }
    }
  }
  return counts;
}

// ComputeFeatures as four separate sweeps (filling degree, STU, the
// per-day Jaccard/active loop, host-day counts), kept verbatim as the
// oracle for the fused one-pass version.
PatternFeatures FourSweepFeatures(const ActivityMatrix& m, int covered_days) {
  PatternFeatures f;
  f.filling_degree = m.FillingDegree(0, m.days());
  if (f.filling_degree == 0) return f;
  f.stu = CoveredStu(m, 0, m.days(), covered_days);

  std::int64_t total_active_days = 0;
  double jaccard_dist_sum = 0.0;
  int jaccard_pairs = 0;
  for (int d = 0; d < m.days(); ++d) {
    total_active_days += m.ActiveOnDay(d);
    if (d + 1 < m.days()) {
      const DayBits& a = m.Row(d);
      const DayBits& b = m.Row(d + 1);
      int inter = PopCount(DayBits{a[0] & b[0], a[1] & b[1], a[2] & b[2],
                                   a[3] & b[3]});
      int uni = PopCount(OrBits(a, b));
      if (uni > 0) {
        jaccard_dist_sum += 1.0 - static_cast<double>(inter) / uni;
        ++jaccard_pairs;
      }
    }
  }
  f.daily_fill = static_cast<double>(total_active_days) /
                 (static_cast<double>(covered_days) * f.filling_degree);
  f.turnover = jaccard_pairs > 0 ? jaccard_dist_sum / jaccard_pairs : 0.0;
  f.mean_host_days = static_cast<double>(total_active_days) /
                     static_cast<double>(f.filling_degree);

  const std::array<std::uint16_t, 256> host_days = SetBitWalkCounts(m);
  double sq_sum = 0.0;
  for (int h = 0; h < 256; ++h) {
    int days = host_days[static_cast<std::size_t>(h)];
    if (days == 0) continue;
    double delta = static_cast<double>(days) - f.mean_host_days;
    sq_sum += delta * delta;
  }
  double variance = sq_sum / static_cast<double>(f.filling_degree);
  f.host_days_cv =
      f.mean_host_days > 0 ? std::sqrt(variance) / f.mean_host_days : 0.0;
  return f;
}

void ExpectSameFeatures(const PatternFeatures& got,
                        const PatternFeatures& want) {
  EXPECT_EQ(got.filling_degree, want.filling_degree);
  EXPECT_EQ(got.stu, want.stu);
  EXPECT_EQ(got.daily_fill, want.daily_fill);
  EXPECT_EQ(got.turnover, want.turnover);
  EXPECT_EQ(got.mean_host_days, want.mean_host_days);
  EXPECT_EQ(got.host_days_cv, want.host_days_cv);
}

// Each bit set with probability `density`; `full_hosts` are set on every
// day, so their count equals `days` and the top plane is exercised.
ActivityMatrix RandomMatrix(int days, double density, std::uint64_t seed,
                            const std::vector<int>& full_hosts = {}) {
  ActivityMatrix m{days};
  rng::Xoshiro256 g{seed};
  for (int d = 0; d < days; ++d) {
    if (density >= 1.0) {
      m.Row(d) = DayBits{~0ULL, ~0ULL, ~0ULL, ~0ULL};
      continue;
    }
    if (density > 0.0) {
      for (int h = 0; h < 256; ++h) {
        if (g.NextBool(density)) m.Set(d, h);
      }
    }
    for (int h : full_hosts) m.Set(d, h);
  }
  return m;
}

constexpr int kDayCounts[] = {1, 7, 63, 64, 112, 127, 128, 255, 256, 300, 1000};
constexpr double kDensities[] = {0.0, 0.002, 0.05, 0.3, 0.5, 0.9, 0.995, 1.0};

TEST(HostDayCounter, MatchesPerBitOracleOnRandomMatrices) {
  std::uint64_t seed = 1;
  for (int days : kDayCounts) {
    for (double density : kDensities) {
      ActivityMatrix m =
          RandomMatrix(days, density, seed++, {0, 63, 64, 128, 191, 255});
      ASSERT_EQ(m.HostActiveDayCounts(), PerBitCounts(m))
          << "days=" << days << " density=" << density;
    }
  }
}

TEST(HostDayCounter, FullColumnsCountEveryDay) {
  for (int days : kDayCounts) {
    ActivityMatrix m = RandomMatrix(days, 0.0, 7, {5, 70, 130, 250});
    auto counts = m.HostActiveDayCounts();
    for (int h = 0; h < 256; ++h) {
      bool full = h == 5 || h == 70 || h == 130 || h == 250;
      ASSERT_EQ(counts[static_cast<std::size_t>(h)], full ? days : 0)
          << "days=" << days << " host=" << h;
    }
  }
}

TEST(HostDayCounter, ReachesTheUint16Limit) {
  // 65535 days: all 16 planes, two 8-plane transpose groups. Host h is set
  // on day d iff d % (h + 1) == 0, plus two always-on hosts.
  constexpr int kMaxDays = 65535;
  ActivityMatrix m{kMaxDays};
  for (int d = 0; d < kMaxDays; ++d) {
    DayBits& row = m.Row(d);
    for (int h = 0; h < 256; h += 17) {
      if (d % (h + 1) == 0) SetBit(row, h);
    }
    SetBit(row, 3);
    SetBit(row, 255);
  }
  auto counts = m.HostActiveDayCounts();
  EXPECT_EQ(counts, PerBitCounts(m));
  EXPECT_EQ(counts[3], kMaxDays);
  EXPECT_EQ(counts[255], kMaxDays);
}

TEST(HostDayCounter, FewerRowsThanCapacity) {
  HostDayCounter counter{1000};
  DayBits row{};
  SetBit(row, 9);
  SetBit(row, 200);
  for (int i = 0; i < 37; ++i) counter.Add(row);
  counter.Add(DayBits{});
  auto counts = counter.Counts();
  for (int h = 0; h < 256; ++h) {
    EXPECT_EQ(counts[static_cast<std::size_t>(h)], h == 9 || h == 200 ? 37 : 0);
  }
}

TEST(ComputeFeaturesOnePass, BitIdenticalOnRandomMatrices) {
  std::uint64_t seed = 100;
  for (int days : kDayCounts) {
    for (double density : kDensities) {
      ActivityMatrix m = RandomMatrix(days, density, seed++, {17, 99});
      SCOPED_TRACE(testing::Message() << "days=" << days
                                      << " density=" << density);
      ExpectSameFeatures(ComputeFeatures(m, days), FourSweepFeatures(m, days));
    }
  }
}

// Every block of a small built world, gap-free and with uncovered days.
TEST(ComputeFeaturesOnePass, BitIdenticalOnEveryBlockOfAWorld) {
  sim::WorldConfig config;
  config.target_client_blocks = 300;
  config.seed = 23;
  sim::World world{config};
  ActivityStore store = cdn::Observatory::Daily(world).BuildStore();
  ASSERT_GT(store.BlockCount(), 100u);

  ActivityStore gapped = store;
  for (int d : {0, 13, 14, 15, 60, store.days() - 1}) {
    gapped.SetDayCovered(d, false);
  }
  for (const ActivityStore* s : {&store, &gapped}) {
    const int covered = s->CoveredDaysIn(0, s->days());
    s->ForEach([&](net::BlockKey key, const ActivityMatrix& m) {
      SCOPED_TRACE(testing::Message() << "block=" << key
                                      << " covered=" << covered);
      ASSERT_EQ(m.HostActiveDayCounts(), PerBitCounts(m));
      ExpectSameFeatures(ComputeFeatures(m, covered),
                         FourSweepFeatures(m, covered));
    });
  }
}

}  // namespace
}  // namespace ipscope::activity
