// Operator audit: the paper's "implications to network management" (§8)
// turned into a tool. An ISP points ipscope at its own address space (here:
// the largest simulated AS) and gets a utilization audit:
//   * statically-assigned blocks with low filling degree (candidates for
//     switching to dynamic assignment),
//   * dynamic pools with low spatio-temporal utilization (candidates for
//     pool downsizing),
//   * an estimate of reclaimable /24-equivalents (§5.4).
//
// Build & run:  ./build/examples/operator_audit
#include <algorithm>
#include <iostream>
#include <vector>

#include "activity/metrics.h"
#include "activity/pattern.h"
#include "cdn/observatory.h"
#include "report/table.h"
#include "sim/world.h"

int main() {
  using namespace ipscope;

  sim::WorldConfig config;
  config.seed = 20160360;
  config.target_client_blocks = 1500;
  sim::World world{config};

  // Pick the AS with the most blocks — "our" network.
  const sim::AsPlan* my_as = &world.ases()[0];
  for (const auto& as : world.ases()) {
    if (as.block_indices.size() > my_as->block_indices.size()) my_as = &as;
  }
  std::cout << "auditing AS" << my_as->asn << " ("
            << sim::AsTypeName(my_as->type) << ", "
            << my_as->block_indices.size() << " /24 blocks)\n\n";

  activity::ActivityStore store =
      cdn::Observatory::Daily(world).BuildStore();

  struct Finding {
    net::Prefix block;
    int fd;
    double stu;
    const char* advice;
  };
  std::vector<Finding> findings;
  int active_blocks = 0;
  double reclaimable_24ths = 0.0;

  const int covered = store.CoveredDaysIn(0, store.days());
  for (std::uint32_t bi : my_as->block_indices) {
    const sim::BlockPlan& plan = world.blocks()[bi];
    const activity::ActivityMatrix* m =
        store.Find(net::BlockKeyOf(plan.block));
    if (m == nullptr) continue;  // never active: not ours to audit here
    ++active_blocks;
    int fd = m->FillingDegree();
    double stu = m->Stu();
    activity::BlockPattern pattern = activity::ClassifyPattern(*m, covered);

    if (pattern == activity::BlockPattern::kStaticSparse && fd < 64) {
      findings.push_back({plan.block, fd, stu,
                          "static, sparse: switch to dynamic pool"});
      reclaimable_24ths += (256.0 - fd) / 256.0;
    } else if (fd > 250 && stu < 0.6) {
      findings.push_back({plan.block, fd, stu,
                          "dynamic pool underutilized: shrink pool"});
      reclaimable_24ths += 0.6 - stu;  // conservative: unused time-share
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) { return a.stu < b.stu; });

  // Show the worst offenders of each category.
  report::Table t({"block", "FD", "STU", "recommendation"});
  int shown_static = 0, shown_dynamic = 0;
  for (const Finding& f : findings) {
    bool is_static = f.fd < 64;
    int& shown = is_static ? shown_static : shown_dynamic;
    if (shown >= 8) continue;
    ++shown;
    t.AddRow({f.block.ToString(), std::to_string(f.fd),
              report::FormatDouble(f.stu), f.advice});
  }
  t.Print(std::cout);

  std::cout << "\n" << findings.size() << " of " << active_blocks
            << " active blocks flagged; estimated reclaimable space ~ "
            << report::FormatDouble(reclaimable_24ths, 1)
            << " /24-equivalents ("
            << report::FormatCount(static_cast<std::uint64_t>(
                   reclaimable_24ths * 256))
            << " addresses)\n";
  std::cout << "[paper §5.4: >30% of active blocks have FD<64; one third of "
               "dynamic pools show low STU — 'reducing their pool sizes "
               "could instantly free significant portions of address "
               "space']\n";
  return 0;
}
