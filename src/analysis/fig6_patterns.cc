#include "analysis/fig6_patterns.h"

#include <algorithm>
#include <limits>
#include <ostream>

#include "par/pool.h"
#include "report/table.h"
#include "report/textplot.h"

namespace ipscope::analysis {

namespace {

// Ground-truth flavour of a client block (or -1 when not a stable client).
int TruthIndex(const sim::BlockPlan& plan) {
  if (plan.HasReconfiguration() || plan.active_from > 0 ||
      plan.active_until < 364) {
    return -1;  // not "in situ" — excluded from classifier validation
  }
  switch (plan.base.kind) {
    case sim::PolicyKind::kStatic:
      return 0;
    case sim::PolicyKind::kDynamicShort:
      return plan.base.rotating ? 1 : 2;
    case sim::PolicyKind::kDynamicLong:
      return 3;
    case sim::PolicyKind::kCgnGateway:
      return 4;
    case sim::PolicyKind::kUnused:
    case sim::PolicyKind::kCrawlerBots:
    case sim::PolicyKind::kServerFarm:
    case sim::PolicyKind::kRouterInfra:
    case sim::PolicyKind::kMiddlebox:
      return -1;  // not part of the Fig 6 ground-truth classes
  }
  return -1;
}

// The classifier output we consider "correct" for each truth flavour.
bool Matches(int truth, activity::BlockPattern pattern) {
  switch (truth) {
    case 0:
      return pattern == activity::BlockPattern::kStaticSparse;
    case 1:
    case 2:
      return pattern == activity::BlockPattern::kDynamicShortLease;
    case 3:
      return pattern == activity::BlockPattern::kDynamicLongLease;
    case 4:
      return pattern == activity::BlockPattern::kFullyUtilized;
    default:  // lint: default(switch is over the int truth id, not an enum; -1 marks excluded blocks and any unknown id is factually a mismatch)
      return false;
  }
}

}  // namespace

namespace {

constexpr std::size_t kNoBlock = std::numeric_limits<std::size_t>::max();

// Per-shard classification tallies. Exemplars are not materialized in the
// shards — only the lowest qualifying block index per exemplar slot is
// tracked, and the in-order merge keeps the overall lowest. Since the
// serial scan picked the *first* qualifying block in world order, building
// the exemplars from these winners afterwards reproduces its output
// exactly for any thread count.
struct Fig6Acc {
  std::array<std::array<std::uint64_t, 6>, Fig6Result::kTruthKinds>
      confusion{};
  std::uint64_t total = 0, matched = 0;
  std::size_t reconfig_idx = kNoBlock;  // Fig 7 exemplar candidate
  std::array<std::size_t, Fig6Result::kTruthKinds> truth_idx{};

  Fig6Acc() { truth_idx.fill(kNoBlock); }

  void Merge(const Fig6Acc& other) {
    for (std::size_t t = 0; t < confusion.size(); ++t) {
      for (std::size_t p = 0; p < confusion[t].size(); ++p) {
        confusion[t][p] += other.confusion[t][p];
      }
    }
    total += other.total;
    matched += other.matched;
    reconfig_idx = std::min(reconfig_idx, other.reconfig_idx);
    for (std::size_t t = 0; t < truth_idx.size(); ++t) {
      truth_idx[t] = std::min(truth_idx[t], other.truth_idx[t]);
    }
  }
};

}  // namespace

Fig6Result RunFig6(const sim::World& world,
                   const activity::ActivityStore& daily_store) {
  Fig6Result out;
  std::span<const sim::BlockPlan> blocks = world.blocks();
  const int covered = daily_store.CoveredDaysIn(0, daily_store.days());

  Fig6Acc acc = par::ParallelReduce(
      std::size_t{0}, blocks.size(), Fig6Acc{},
      [&](Fig6Acc& a, std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
          const sim::BlockPlan& plan = blocks[i];
          const activity::ActivityMatrix* m =
              daily_store.Find(net::BlockKeyOf(plan.block));
          if (m == nullptr) continue;

          if (plan.HasReconfiguration() && a.reconfig_idx == kNoBlock &&
              m->FillingDegree() > 32) {
            a.reconfig_idx = i;
          }

          int truth = TruthIndex(plan);
          if (truth < 0) continue;
          activity::PatternFeatures features =
              activity::ComputeFeatures(*m, covered);
          activity::BlockPattern pattern = activity::ClassifyPattern(features);
          a.confusion[static_cast<std::size_t>(truth)]
                     [static_cast<std::size_t>(pattern)] += 1;
          ++a.total;
          if (Matches(truth, pattern)) ++a.matched;

          if (a.truth_idx[static_cast<std::size_t>(truth)] == kNoBlock &&
              features.filling_degree > 16) {
            a.truth_idx[static_cast<std::size_t>(truth)] = i;
          }
        }
      },
      [](Fig6Acc& dst, Fig6Acc&& part) { dst.Merge(part); },
      /*grain=*/16);

  // Re-derive the winning exemplars (a handful of blocks at most) and emit
  // them in ascending block-index order — the order the serial scan
  // encountered, and appended, them.
  std::vector<std::size_t> winners;
  if (acc.reconfig_idx != kNoBlock) winners.push_back(acc.reconfig_idx);
  for (std::size_t idx : acc.truth_idx) {
    if (idx != kNoBlock) winners.push_back(idx);
  }
  std::sort(winners.begin(), winners.end());
  for (std::size_t i : winners) {
    const sim::BlockPlan& plan = blocks[i];
    net::BlockKey key = net::BlockKeyOf(plan.block);
    const activity::ActivityMatrix* m = daily_store.Find(key);
    Fig6Result::Exemplar ex;
    ex.key = key;
    if (i == acc.reconfig_idx) {
      ex.truth = std::string{"reconfigured: "} +
                 sim::PolicyKindName(plan.base.kind) + " -> " +
                 sim::PolicyKindName(plan.events[0].params.kind);
    } else {
      ex.truth = Fig6Result::kTruthNames[TruthIndex(plan)];
    }
    ex.features = activity::ComputeFeatures(*m, covered);
    ex.classified = activity::ClassifyPattern(ex.features);
    ex.rendering = report::RenderActivityMatrix(*m);
    out.exemplars.push_back(std::move(ex));
  }

  out.confusion = acc.confusion;
  out.overall_agreement =
      acc.total ? static_cast<double>(acc.matched) /
                      static_cast<double>(acc.total)
                : 0.0;
  return out;
}

void PrintFig6(const Fig6Result& result, std::ostream& os,
               bool render_exemplars) {
  os << "=== Fig 6/7: block activity patterns ===\n";
  for (const auto& ex : result.exemplars) {
    os << "\n-- " << ex.truth << " (FD=" << ex.features.filling_degree
       << ", STU=" << report::FormatDouble(ex.features.stu)
       << ", classified: " << activity::PatternName(ex.classified) << ")\n";
    if (render_exemplars) {
      for (const std::string& line : ex.rendering) os << "  " << line << "\n";
    }
  }

  os << "\n=== Pattern classifier vs ground truth (stable client blocks) "
        "===\n";
  report::Table t({"truth \\ classified", "inactive", "static", "short-lease",
                   "long-lease", "fully-util", "mixed"});
  for (int truth = 0; truth < Fig6Result::kTruthKinds; ++truth) {
    std::vector<std::string> row{Fig6Result::kTruthNames[truth]};
    for (int p = 0; p < 6; ++p) {
      row.push_back(report::FormatCount(
          result.confusion[static_cast<std::size_t>(truth)]
                          [static_cast<std::size_t>(p)]));
    }
    t.AddRow(std::move(row));
  }
  t.Print(os);
  os << "overall agreement: "
     << report::FormatPercent(result.overall_agreement)
     << " (validation unavailable to the original study)\n";
}

}  // namespace ipscope::analysis
