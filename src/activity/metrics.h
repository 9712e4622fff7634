// Per-block activity metrics (Section 5.1 of the paper).
//
// Filling degree (FD): number of distinct active addresses in a /24 within
// an observation window — range 1..256 for active blocks.
// Spatio-temporal utilization (STU): active (address, day) pairs divided by
// the maximum possible (256 x window days) — range (0, 1].
//
// When the store carries data gaps (ActivityStore coverage mask), the STU
// denominator counts only covered days, so a collector outage does not
// depress utilization; a window with zero covered days yields no metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "activity/store.h"
#include "netbase/prefix.h"

namespace ipscope::activity {

// STU from a block's active (address, day) pairs over `covered_days`
// observed days. Requires covered_days > 0.
inline double CoveredStu(std::int64_t active_pairs, int covered_days) {
  return static_cast<double>(active_pairs) / (256.0 * covered_days);
}

// STU of one block over the covered days of [day_first, day_last):
// uncovered days hold no activity by construction, so only the denominator
// differs from m.Stu(day_first, day_last). Requires covered_days > 0.
inline double CoveredStu(const ActivityMatrix& m, int day_first, int day_last,
                         int covered_days) {
  return CoveredStu(m.SpatioTemporalActivity(day_first, day_last),
                    covered_days);
}

struct BlockMetrics {
  net::BlockKey key = 0;
  int filling_degree = 0;
  double stu = 0.0;
};

// Metrics for every block with at least one active address in the window.
std::vector<BlockMetrics> ComputeBlockMetrics(const ActivityStore& store,
                                              int day_first, int day_last);
std::vector<BlockMetrics> ComputeBlockMetrics(const ActivityStore& store);

// Filling degrees as doubles (for CDF plotting, Fig 8b).
std::vector<double> FillingDegrees(const std::vector<BlockMetrics>& metrics);

// STU values, optionally restricted to blocks with FD >= min_fd (Fig 8c uses
// min_fd = 251, "more than 250 active IP addresses").
std::vector<double> StuValues(const std::vector<BlockMetrics>& metrics,
                              int min_fd = 0);

}  // namespace ipscope::activity
