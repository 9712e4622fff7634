// Quickstart: a guided tour of the ipscope public API.
//
//  1. Build a deterministic simulated Internet (the data substrate).
//  2. Open the CDN observatory and materialize the daily activity dataset.
//  3. Compute the paper's block metrics (filling degree, spatio-temporal
//     utilization) and render one block's activity pattern.
//  4. Measure address churn across aggregation windows.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "activity/churn.h"
#include "activity/metrics.h"
#include "activity/pattern.h"
#include "cdn/observatory.h"
#include "report/textplot.h"
#include "sim/world.h"

int main() {
  using namespace ipscope;

  // 1. The world: everything derives from one seed. Same seed, same world.
  sim::WorldConfig config;
  config.seed = 7;
  config.target_client_blocks = 800;  // small, quickstart-sized Internet
  sim::World world{config};
  std::cout << "world: " << world.blocks().size() << " /24 blocks across "
            << world.ases().size() << " ASes\n";

  // 2. The observatory: 112 daily snapshots (Aug 17 - Dec 6, 2015).
  cdn::Observatory daily = cdn::Observatory::Daily(world);
  activity::ActivityStore store = daily.BuildStore();
  std::cout << "observed " << store.BlockCount()
            << " active /24 blocks over " << store.days() << " days\n";

  // 3. Block metrics: FD and STU, the paper's two block-level measures.
  auto metrics = activity::ComputeBlockMetrics(store);
  const activity::BlockMetrics* densest = &metrics.front();
  for (const auto& m : metrics) {
    if (m.stu > densest->stu) densest = &m;
  }
  std::cout << "\nmost utilized block: " << net::BlockFromKey(densest->key)
            << " FD=" << densest->filling_degree
            << " STU=" << densest->stu << "\n";

  // Render a moderately-filled block's spatio-temporal pattern (a la Fig 6):
  // those show the most interesting assignment structure.
  const activity::BlockMetrics* pick = &metrics.front();
  for (const auto& m : metrics) {
    if (m.filling_degree > 100 && m.filling_degree < 250) {
      pick = &m;
      break;
    }
  }
  const activity::BlockMetrics& sample = *pick;
  const activity::ActivityMatrix* matrix = store.Find(sample.key);
  std::cout << "\nactivity pattern of " << net::BlockFromKey(sample.key)
            << " (FD=" << sample.filling_degree << ", STU=" << sample.stu
            << ", classified "
            << activity::PatternName(activity::ClassifyPattern(
                   *matrix, store.CoveredDaysIn(0, store.days())))
            << "):\n";
  for (const auto& line : report::RenderActivityMatrix(*matrix, 8)) {
    std::cout << "  " << line << "\n";
  }

  // 4. Churn: up/down events across aggregation windows.
  activity::ChurnAnalyzer churn{store};
  std::cout << "\nchurn by window size (median up% / down%):\n";
  for (int w : {1, 7, 28}) {
    auto series = churn.Churn(w);
    std::cout << "  " << w << "d: " << series.up.median << "% / "
              << series.down.median << "%\n";
  }
  std::cout << "\nNext: run the bench/ binaries to regenerate every paper "
               "table and figure.\n";
  return 0;
}
