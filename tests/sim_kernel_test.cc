// Property tests for the slot-major generation kernels and the arena-backed
// store. GenerateBlock is an aggressive loop transposition of GenerateStep
// (epoch caching, hoisted owner tables, branchless word building), so its
// contract is exact bit-identity — every test here compares whole matrices
// against the naive per-step reference, never statistics.
#include "sim/policy.h"

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <type_traits>
#include <vector>

#include "activity/matrix.h"
#include "activity/store.h"
#include "cdn/observatory.h"
#include "rng/rng.h"
#include "sim/world.h"

namespace ipscope::sim {
namespace {

// Snapshot installs and server construction move stores; a copy there
// would silently double memory.
static_assert(std::is_nothrow_move_constructible_v<activity::ActivityStore>);
static_assert(std::is_nothrow_move_assignable_v<activity::ActivityStore>);

BlockPlan MakePlan(PolicyKind kind) {
  BlockPlan plan;
  plan.block = net::Prefix{net::IPv4Addr{10, 1, 2, 0}, 24};
  plan.asn = 1234;
  plan.country = 0;
  plan.block_seed = 0xDEADBEEF;
  for (std::size_t i = 0; i < plan.host_perm.size(); ++i) {
    plan.host_perm[i] = static_cast<std::uint8_t>(i);
  }
  PolicyParams& p = plan.base;
  p.kind = kind;
  p.pool_size = 256;
  p.subscribers = 256;
  p.daily_p = 0.5f;
  p.weekend_factor = 1.0f;
  p.lease_days = 30;
  p.occupancy = 0.9f;
  p.hits_mu = 3.0f;
  p.hits_sigma = 1.0f;
  return plan;
}

StepSpec DailySpec() {
  StepSpec spec;
  spec.start_day = 228;
  spec.step_days = 1;
  spec.steps = 112;
  spec.world_seed = 42;
  spec.gateway_growth = 0.15;
  return spec;
}

StepSpec WeeklySpec() {
  StepSpec spec = DailySpec();
  spec.start_day = 0;
  spec.step_days = 7;
  spec.steps = 52;
  return spec;
}

// The contract under test: GenerateBlock(plan, spec, rows) must equal the
// per-step reference row for row.
void ExpectBlockMatchesSteps(const BlockPlan& plan, const StepSpec& spec,
                             const std::string& label) {
  std::vector<activity::DayBits> rows(
      static_cast<std::size_t>(spec.steps));
  GenerateBlock(plan, spec, rows.data());
  activity::DayBits ref;
  for (int s = 0; s < spec.steps; ++s) {
    GenerateStep(plan, spec, s, ref, nullptr);
    ASSERT_EQ(rows[static_cast<std::size_t>(s)], ref)
        << label << " step " << s;
  }
}

TEST(SubstreamTail, MatchesSubstreamForEveryLastTag) {
  // The algebraic identity the slot-major kernels lean on: hoisting the
  // tag-prefix mix out of the inner loop must not change a single draw.
  for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{42},
                             std::uint64_t{0xDEADBEEFCAFEBABEULL}}) {
    for (std::uint64_t tag : {std::uint64_t{0x7e01}, std::uint64_t{0x7e0b},
                              std::uint64_t{1}}) {
      rng::SubstreamTail one{seed, tag};
      rng::SubstreamTail two{seed, tag, std::uint64_t{17}};
      for (std::uint64_t i = 0; i < 300; ++i) {
        ASSERT_EQ(one.At(i), rng::Substream(seed, tag, i));
        ASSERT_EQ(two.At(i), rng::Substream(seed, tag, std::uint64_t{17}, i));
      }
    }
  }
}

TEST(DayBits, SetBitRangeMatchesPerBitLoop) {
  for (int lo : {0, 1, 31, 32, 63, 64, 100, 255, 256}) {
    for (int hi : {0, 1, 32, 64, 65, 127, 128, 200, 256}) {
      activity::DayBits fast{};
      activity::SetBitRange(fast, lo, hi);
      activity::DayBits slow{};
      for (int h = lo; h < hi; ++h) activity::SetBit(slow, h);
      ASSERT_EQ(fast, slow) << "[" << lo << ", " << hi << ")";
    }
  }
}

TEST(GenerateBlock, MatchesPerStepAcrossKindsGranularitiesAndSeeds) {
  for (PolicyKind kind :
       {PolicyKind::kUnused, PolicyKind::kStatic, PolicyKind::kDynamicShort,
        PolicyKind::kDynamicLong, PolicyKind::kCgnGateway,
        PolicyKind::kCrawlerBots, PolicyKind::kServerFarm,
        PolicyKind::kRouterInfra, PolicyKind::kMiddlebox}) {
    for (const StepSpec& spec : {DailySpec(), WeeklySpec()}) {
      for (std::uint64_t seed :
           {std::uint64_t{0xDEADBEEF}, std::uint64_t{1},
            std::uint64_t{0x9e3779b97f4a7c15ULL}}) {
        BlockPlan plan = MakePlan(kind);
        plan.block_seed = seed;
        std::string label = std::string{PolicyKindName(kind)} + "/step" +
                            std::to_string(spec.step_days) + "/seed" +
                            std::to_string(seed);
        ExpectBlockMatchesSteps(plan, spec, label);
      }
    }
  }
}

TEST(GenerateBlock, MatchesPerStepForWeekendAndPoolVariants) {
  // Weekend gating only applies at daily granularity and only when the
  // factor is < 1; sweep both sides of that gate, plus partial pools and
  // both kDynamicShort flavors (rotating band vs dense fill).
  for (float weekend : {1.0f, 0.5f, 0.2f}) {
    for (PolicyKind kind : {PolicyKind::kStatic, PolicyKind::kDynamicShort,
                            PolicyKind::kDynamicLong}) {
      for (bool rotating : {false, true}) {
        if (rotating && kind != PolicyKind::kDynamicShort) continue;
        BlockPlan plan = MakePlan(kind);
        plan.base.weekend_factor = weekend;
        plan.base.rotating = rotating;
        plan.base.pool_size = 100;
        plan.base.subscribers = 60;
        std::string label = std::string{PolicyKindName(kind)} + "/wf" +
                            std::to_string(weekend) +
                            (rotating ? "/rotating" : "");
        ExpectBlockMatchesSteps(plan, DailySpec(), label);
        ExpectBlockMatchesSteps(plan, WeeklySpec(), label + "/weekly");
      }
    }
  }
}

TEST(GenerateBlock, MatchesPerStepAcrossEventShapes) {
  PolicyParams dense;
  dense.kind = PolicyKind::kDynamicShort;
  dense.pool_size = 256;
  dense.subscribers = 300;
  dense.daily_p = 0.8f;
  dense.weekend_factor = 0.6f;
  dense.hits_mu = 3.0f;
  dense.hits_sigma = 1.0f;
  PolicyParams off;
  off.kind = PolicyKind::kUnused;

  struct Case {
    const char* name;
    BlockPlan plan;
  };
  std::vector<Case> cases;
  {
    BlockPlan p = MakePlan(PolicyKind::kStatic);
    p.events[0] = BlockEvent{280, dense};
    cases.push_back({"full_reconfig", p});
  }
  {
    BlockPlan p = MakePlan(PolicyKind::kStatic);
    p.events[0] = BlockEvent{280, dense, /*host_first=*/128,
                             /*host_last=*/255};
    cases.push_back({"partial_reconfig", p});
  }
  {
    BlockPlan p = MakePlan(PolicyKind::kDynamicLong);
    p.events[0] = BlockEvent{250, dense, 0, 63};
    p.events[1] = BlockEvent{300, off};
    cases.push_back({"two_events", p});
  }
  {
    // Event boundaries that do not align with step midpoints (weekly steps
    // quantize mid-days to step*7+3) exercise the interval scan.
    BlockPlan p = MakePlan(PolicyKind::kStatic);
    p.events[0] = BlockEvent{33, dense};
    p.events[1] = BlockEvent{34, off, 0, 127};
    cases.push_back({"adjacent_days", p});
  }
  {
    BlockPlan p = MakePlan(PolicyKind::kDynamicShort);
    p.active_from = 280;
    p.active_until = 300;
    cases.push_back({"activation_window", p});
  }
  {
    BlockPlan p = MakePlan(PolicyKind::kCgnGateway);
    p.active_from = 10;  // before the daily window: fully active
    p.events[0] = BlockEvent{330, off};
    cases.push_back({"pre_window_activation", p});
  }
  for (const Case& c : cases) {
    ExpectBlockMatchesSteps(c.plan, DailySpec(), std::string{c.name});
    ExpectBlockMatchesSteps(c.plan, WeeklySpec(),
                            std::string{c.name} + "/weekly");
  }
}

TEST(ArenaStore, BuildStoreMatchesNaivePerStepConstruction) {
  // The arena handoff (observatory BuildStore -> ActivityStore::AdoptArena)
  // must produce exactly the store the naive one-matrix-per-block
  // construction yields: same keys in the same order, same rows byte for
  // byte — and the matrices must survive a store move (the arena vector's
  // heap buffer is stable, view rows keep pointing into it).
  sim::World world{[] {
    sim::WorldConfig config;
    config.target_client_blocks = 200;
    return config;
  }()};
  cdn::Observatory daily = cdn::Observatory::Daily(world);
  activity::ActivityStore built = daily.BuildStore();

  activity::ActivityStore naive{daily.steps()};
  for (const BlockPlan& plan : world.blocks()) {
    activity::ActivityMatrix m{daily.steps()};
    bool any = false;
    for (int s = 0; s < daily.steps(); ++s) {
      activity::DayBits bits;
      GenerateStep(plan, daily.spec(), s, bits, nullptr);
      m.Row(s) = bits;
      any = any || (bits[0] | bits[1] | bits[2] | bits[3]) != 0;
    }
    if (any) naive.GetOrCreate(net::BlockKeyOf(plan.block)) = std::move(m);
  }

  activity::ActivityStore moved = std::move(built);
  ASSERT_EQ(moved.BlockCount(), naive.BlockCount());
  for (std::size_t i = 0; i < moved.BlockCount(); ++i) {
    ASSERT_EQ(moved.KeyAt(i), naive.KeyAt(i)) << "block " << i;
  }
  moved.ForEachShard(
      0, moved.BlockCount(),
      [&](net::BlockKey key, const activity::ActivityMatrix& m) {
        const activity::ActivityMatrix* ref = naive.Find(key);
        ASSERT_NE(ref, nullptr);
        for (int d = 0; d < moved.days(); ++d) {
          ASSERT_EQ(m.Row(d), ref->Row(d)) << "day " << d;
        }
      });
}

TEST(ArenaStore, CopiedViewMatrixOwnsItsRows) {
  // Copying a view matrix out of an arena store must deep-copy: the copy
  // stays valid after the store (and its arena) dies.
  sim::World world{[] {
    sim::WorldConfig config;
    config.target_client_blocks = 50;
    return config;
  }()};
  cdn::Observatory daily = cdn::Observatory::Daily(world);
  activity::ActivityMatrix copy{1};
  activity::DayBits first_row{};
  {
    activity::ActivityStore store = daily.BuildStore();
    ASSERT_GT(store.BlockCount(), 0u);
    const activity::ActivityMatrix* m = store.Find(store.KeyAt(0));
    ASSERT_NE(m, nullptr);
    copy = *m;
    first_row = m->Row(0);
  }
  ASSERT_EQ(copy.Row(0), first_row);
}

#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
// Heap bytes in use (small-chunk arenas plus mmapped chunks).
std::size_t HeapInUse() {
  struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}
#endif

TEST(ArenaStore, CopyAllocatesOnlyOwnedRows) {
  // Every matrix copy deep-copies into owned rows, so a copied store must
  // not also duplicate the source's arena, which nothing would reference.
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
  sim::World world{[] {
    sim::WorldConfig config;
    config.target_client_blocks = 1000;
    return config;
  }()};
  cdn::Observatory daily = cdn::Observatory::Daily(world);
  activity::ActivityStore store = daily.BuildStore();
  ASSERT_GT(store.BlockCount(), 0u);
  const double rows = static_cast<double>(store.BlockCount()) *
                      store.days() * sizeof(activity::DayBits);

  std::size_t before = HeapInUse();
  activity::ActivityStore copy = store;
  std::size_t after = HeapInUse();
  EXPECT_LE(static_cast<double>(after - before), 1.1 * rows)
      << "copy allocated " << (after - before) << " B for " << rows
      << " B of rows";

  ASSERT_EQ(copy.BlockCount(), store.BlockCount());
  for (std::size_t i = 0; i < store.BlockCount(); ++i) {
    ASSERT_EQ(copy.KeyAt(i), store.KeyAt(i));
    for (int d = 0; d < store.days(); ++d) {
      ASSERT_EQ(copy.MatrixAt(i).Row(d), store.MatrixAt(i).Row(d));
    }
  }
#else
  GTEST_SKIP() << "needs glibc mallinfo2 and no sanitizer allocator";
#endif
}

}  // namespace
}  // namespace ipscope::sim
