#include "activity/metrics.h"

#include "par/pool.h"

namespace ipscope::activity {

std::vector<BlockMetrics> ComputeBlockMetrics(const ActivityStore& store,
                                              int day_first, int day_last) {
  // STU over the days actually observed: uncovered days contribute no
  // activity by construction, so only the denominator needs adjusting —
  // with a full coverage mask this is exactly m.Stu(day_first, day_last).
  const int covered = store.CoveredDaysIn(day_first, day_last);
  if (covered == 0) return {};  // the window holds no data at all
  // Each block's metrics depend only on its own matrix; shards cover
  // ascending key ranges and partials concatenate in shard order, so the
  // output order (and every double in it) matches the serial scan exactly.
  return par::ParallelReduce(
      std::size_t{0}, store.BlockCount(), std::vector<BlockMetrics>{},
      [&](std::vector<BlockMetrics>& out, std::size_t first,
          std::size_t last) {
        store.ForEachShard(
            first, last, [&](net::BlockKey key, const ActivityMatrix& m) {
              int fd = m.FillingDegree(day_first, day_last);
              if (fd == 0) return;
              out.push_back(BlockMetrics{
                  key, fd, CoveredStu(m, day_first, day_last, covered)});
            });
      },
      [](std::vector<BlockMetrics>& acc, std::vector<BlockMetrics>&& part) {
        acc.insert(acc.end(), part.begin(), part.end());
      },
      /*grain=*/16);
}

std::vector<BlockMetrics> ComputeBlockMetrics(const ActivityStore& store) {
  return ComputeBlockMetrics(store, 0, store.days());
}

std::vector<double> FillingDegrees(const std::vector<BlockMetrics>& metrics) {
  std::vector<double> out;
  out.reserve(metrics.size());
  for (const BlockMetrics& m : metrics) {
    out.push_back(static_cast<double>(m.filling_degree));
  }
  return out;
}

std::vector<double> StuValues(const std::vector<BlockMetrics>& metrics,
                              int min_fd) {
  std::vector<double> out;
  for (const BlockMetrics& m : metrics) {
    if (m.filling_degree >= min_fd) out.push_back(m.stu);
  }
  return out;
}

}  // namespace ipscope::activity
