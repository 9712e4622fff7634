#include "activity/pattern.h"

#include <cmath>

#include "activity/metrics.h"

namespace ipscope::activity {

const char* PatternName(BlockPattern pattern) {
  switch (pattern) {
    case BlockPattern::kInactive:
      return "inactive";
    case BlockPattern::kStaticSparse:
      return "static-sparse";
    case BlockPattern::kDynamicShortLease:
      return "dynamic-short-lease";
    case BlockPattern::kDynamicLongLease:
      return "dynamic-long-lease";
    case BlockPattern::kFullyUtilized:
      return "fully-utilized";
    case BlockPattern::kMixed:
      return "mixed";
  }
  return "?";
}

PatternFeatures ComputeFeatures(const ActivityMatrix& m, int covered_days) {
  // One pass over the rows gathers every reduction the features need: the
  // union (filling degree), the active pairs (STU, daily fill, mean host
  // days), each adjacent pair's Jaccard distance and the per-host day
  // counts. Every double is accumulated in the order of the row index.
  DayBits ever{};
  HostDayCounter host_counter{m.days()};
  std::int64_t total_active_days = 0;
  double jaccard_dist_sum = 0.0;
  int jaccard_pairs = 0;
  int prev_active = 0;
  for (int d = 0; d < m.days(); ++d) {
    const DayBits& row = m.Row(d);
    const int active = PopCount(row);
    ever = OrBits(ever, row);
    total_active_days += active;
    host_counter.Add(row);
    if (d > 0) {
      int inter = PopCount(AndBits(m.Row(d - 1), row));
      int uni = prev_active + active - inter;
      if (uni > 0) {
        jaccard_dist_sum += 1.0 - static_cast<double>(inter) / uni;
        ++jaccard_pairs;
      }
    }
    prev_active = active;
  }

  PatternFeatures f;
  f.filling_degree = PopCount(ever);
  // Activity implies a covered day, so covered_days > 0 from here on.
  if (f.filling_degree == 0) return f;
  f.stu = CoveredStu(total_active_days, covered_days);
  f.daily_fill = static_cast<double>(total_active_days) /
                 (static_cast<double>(covered_days) * f.filling_degree);
  f.turnover = jaccard_pairs > 0 ? jaccard_dist_sum / jaccard_pairs : 0.0;
  f.mean_host_days = static_cast<double>(total_active_days) /
                     static_cast<double>(f.filling_degree);

  const std::array<std::uint16_t, 256> host_days = host_counter.Counts();
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

BlockPattern ClassifyPattern(const PatternFeatures& f) {
  if (f.filling_degree == 0) return BlockPattern::kInactive;
  // Near-complete utilization: every address active nearly every day —
  // the gateway/proxy signature (Section 6).
  if (f.stu > 0.97 && f.filling_degree > 250) {
    return BlockPattern::kFullyUtilized;
  }
  // The paper's Fig 8b: sparsely populated blocks are overwhelmingly
  // statically assigned.
  if (f.filling_degree < 100) {
    return BlockPattern::kStaticSparse;
  }
  // Re-dealt short-lease pools smear activity uniformly across the pool:
  // every address ends up with an almost identical number of active days.
  if (f.host_days_cv < 0.25 && f.filling_degree >= 200) {
    return BlockPattern::kDynamicShortLease;
  }
  // Long leases bind addresses to heterogeneous subscribers: per-address
  // activity levels diverge strongly.
  if (f.host_days_cv >= 0.25) {
    return BlockPattern::kDynamicLongLease;
  }
  return BlockPattern::kMixed;
}

}  // namespace ipscope::activity
