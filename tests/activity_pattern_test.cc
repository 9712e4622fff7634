#include "activity/pattern.h"

#include <gtest/gtest.h>

#include "rng/rng.h"

namespace ipscope::activity {
namespace {

constexpr int kDays = 112;

// Synthetic matrices mimicking the paper's Fig 6 patterns.

ActivityMatrix StaticSparse() {
  ActivityMatrix m{kDays};
  rng::Xoshiro256 g{1};
  // 30 scattered addresses, each active ~40% of days.
  for (int i = 0; i < 30; ++i) {
    int host = static_cast<int>(g.NextBounded(256));
    for (int d = 0; d < kDays; ++d) {
      if (g.NextBool(0.4)) m.Set(d, host);
    }
  }
  return m;
}

ActivityMatrix DenseShortLease() {
  ActivityMatrix m{kDays};
  rng::Xoshiro256 g{2};
  // Every day an independent ~60% of the pool is active.
  for (int d = 0; d < kDays; ++d) {
    for (int h = 0; h < 256; ++h) {
      if (g.NextBool(0.6)) m.Set(d, h);
    }
  }
  return m;
}

ActivityMatrix LongLease() {
  ActivityMatrix m{kDays};
  rng::Xoshiro256 g{3};
  // Each address held by one subscriber for ~56 days; persistent activity
  // levels per occupant.
  for (int h = 0; h < 256; ++h) {
    for (int epoch = 0; epoch < 2; ++epoch) {
      double p = g.NextDouble() < 0.3 ? 0.9 : 0.25;
      for (int d = epoch * 56; d < (epoch + 1) * 56; ++d) {
        if (g.NextBool(p)) m.Set(d, h);
      }
    }
  }
  return m;
}

ActivityMatrix Gateway() {
  ActivityMatrix m{kDays};
  for (int d = 0; d < kDays; ++d) {
    for (int h = 0; h < 256; ++h) m.Set(d, h);
  }
  return m;
}

TEST(Pattern, FeaturesOfEmptyMatrix) {
  ActivityMatrix m{kDays};
  auto f = ComputeFeatures(m, kDays);
  EXPECT_EQ(f.filling_degree, 0);
  EXPECT_EQ(ClassifyPattern(f), BlockPattern::kInactive);
}

TEST(Pattern, GatewayFeatures) {
  auto f = ComputeFeatures(Gateway(), kDays);
  EXPECT_EQ(f.filling_degree, 256);
  EXPECT_DOUBLE_EQ(f.stu, 1.0);
  EXPECT_DOUBLE_EQ(f.daily_fill, 1.0);
  EXPECT_DOUBLE_EQ(f.turnover, 0.0);
  EXPECT_EQ(ClassifyPattern(f), BlockPattern::kFullyUtilized);
}

TEST(Pattern, FullyUpOnEveryCoveredDayIsFullyUtilized) {
  // 4 of 112 days (3.6%) were never observed: their rows are empty by the
  // store's coverage invariant. Every address up on every observed day is
  // the gateway signature, whatever the outage.
  ActivityMatrix m = Gateway();
  for (int d : {10, 40, 41, 90}) m.Row(d) = DayBits{};
  auto f = ComputeFeatures(m, kDays - 4);
  EXPECT_DOUBLE_EQ(f.stu, 1.0);
  EXPECT_DOUBLE_EQ(f.daily_fill, 1.0);
  EXPECT_EQ(ClassifyPattern(f), BlockPattern::kFullyUtilized);
  // Read against all 112 days, the same block looks 96% utilized.
  EXPECT_EQ(ClassifyPattern(ComputeFeatures(m, kDays)),
            BlockPattern::kDynamicShortLease);
}

TEST(Pattern, StaticSparseClassification) {
  auto f = ComputeFeatures(StaticSparse(), kDays);
  EXPECT_LT(f.filling_degree, 64);
  EXPECT_EQ(ClassifyPattern(f), BlockPattern::kStaticSparse);
}

TEST(Pattern, DenseShortLeaseClassification) {
  auto f = ComputeFeatures(DenseShortLease(), kDays);
  EXPECT_GT(f.filling_degree, 250);
  // Re-dealt pool: every address gets a near-identical activity share.
  EXPECT_LT(f.host_days_cv, 0.25);
  EXPECT_EQ(ClassifyPattern(f), BlockPattern::kDynamicShortLease);
}

TEST(Pattern, LongLeaseClassification) {
  auto f = ComputeFeatures(LongLease(), kDays);
  EXPECT_GT(f.filling_degree, 100);
  // Heterogeneous occupants spread per-address activity widely.
  EXPECT_GT(f.host_days_cv, 0.25);
  EXPECT_EQ(ClassifyPattern(f), BlockPattern::kDynamicLongLease);
}

TEST(Pattern, FeatureRanges) {
  for (const ActivityMatrix& m :
       {StaticSparse(), DenseShortLease(), LongLease(), Gateway()}) {
    auto f = ComputeFeatures(m, kDays);
    EXPECT_GE(f.stu, 0.0);
    EXPECT_LE(f.stu, 1.0);
    EXPECT_GE(f.daily_fill, 0.0);
    EXPECT_LE(f.daily_fill, 1.0 + 1e-9);
    EXPECT_GE(f.turnover, 0.0);
    EXPECT_LE(f.turnover, 1.0);
    EXPECT_GE(f.mean_host_days, 0.0);
    EXPECT_LE(f.mean_host_days, kDays);
    EXPECT_GE(f.host_days_cv, 0.0);
  }
}

TEST(Pattern, NamesAreStable) {
  EXPECT_STREQ(PatternName(BlockPattern::kInactive), "inactive");
  EXPECT_STREQ(PatternName(BlockPattern::kStaticSparse), "static-sparse");
  EXPECT_STREQ(PatternName(BlockPattern::kFullyUtilized), "fully-utilized");
}

}  // namespace
}  // namespace ipscope::activity
