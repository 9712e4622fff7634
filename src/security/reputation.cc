#include "security/reputation.h"

#include <algorithm>

#include "activity/change.h"
#include "rng/rng.h"

namespace ipscope::security {

namespace {

constexpr std::uint64_t kTagAbuser = 0xAB05;
constexpr std::uint64_t kTagAbuseAct = 0xAC07;

double HashUnit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Activity matrix restricted to a step range (for training-window feature
// computation).
activity::ActivityMatrix SubMatrix(const activity::ActivityMatrix& m,
                                   int first, int last) {
  activity::ActivityMatrix out{last - first};
  for (int d = first; d < last; ++d) out.Row(d - first) = m.Row(d);
  return out;
}

}  // namespace

void ReputationStore::ResetBlock(net::BlockKey key) {
  for (auto it = bad_.begin(); it != bad_.end();) {
    if (net::BlockKeyOf(net::IPv4Addr{it->first}) == key) {
      it = bad_.erase(it);
    } else {
      ++it;
    }
  }
}

const char* TtlPolicyName(TtlPolicy policy) {
  switch (policy) {
    case TtlPolicy::kNever:
      return "never-expire";
    case TtlPolicy::kFixed:
      return "fixed-ttl";
    case TtlPolicy::kPattern:
      return "pattern-ttl";
    case TtlPolicy::kPatternReset:
      return "pattern-ttl+reset";
  }
  return "?";
}

double PatternTtlDays(activity::BlockPattern pattern) {
  switch (pattern) {
    case activity::BlockPattern::kFullyUtilized:
      return 0.2;  // gateway: thousands share the address within hours
    case activity::BlockPattern::kDynamicShortLease:
      return 1.0;
    case activity::BlockPattern::kDynamicLongLease:
      return 14.0;
    case activity::BlockPattern::kStaticSparse:
      return 45.0;
    case activity::BlockPattern::kInactive:
    case activity::BlockPattern::kMixed:
      return 7.0;  // no lease evidence: a neutral one-week listing
  }
  return 7.0;
}

ReputationEvaluation EvaluateReputationPolicy(const cdn::Observatory& daily,
                                              TtlPolicy policy,
                                              double fixed_ttl_days,
                                              AbuseSimConfig config) {
  ReputationEvaluation eval;
  eval.policy = policy;
  eval.fixed_ttl_days = fixed_ttl_days;

  const sim::World& world = daily.world();
  const sim::StepSpec& spec = daily.spec();

  // Per-block TTLs and reset days are learned from the training window.
  const bool needs_training = policy == TtlPolicy::kPattern ||
                              policy == TtlPolicy::kPatternReset;
  activity::ActivityStore store{1};
  if (needs_training) store = daily.BuildStore();
  const int train_covered =
      needs_training
          ? store.CoveredDaysIn(config.train_first, config.train_last)
          : 0;

  ReputationStore blocklist;
  for (const sim::BlockPlan& plan : world.blocks()) {
    if (!sim::IsClientPolicy(plan.base.kind) &&
        plan.base.kind != sim::PolicyKind::kCrawlerBots) {
      continue;
    }
    net::BlockKey key = net::BlockKeyOf(plan.block);

    double ttl = 1e9;  // kNever
    int reset_step = -1;
    if (policy == TtlPolicy::kFixed) {
      ttl = fixed_ttl_days;
    } else if (needs_training) {
      const activity::ActivityMatrix* m = store.Find(key);
      if (m != nullptr) {
        auto features = activity::ComputeFeatures(
            SubMatrix(*m, config.train_first, config.train_last),
            train_covered);
        ttl = PatternTtlDays(activity::ClassifyPattern(features));
        if (policy == TtlPolicy::kPatternReset) {
          // Locate the month boundary with the largest STU swing; if it is
          // major, reset the block's reputations at that boundary.
          constexpr int kMonth = 28;
          int months = m->days() / kMonth;
          double best = 0.0;
          double prev = m->Stu(0, kMonth);
          for (int mo = 1; mo < months; ++mo) {
            double cur = m->Stu(mo * kMonth, (mo + 1) * kMonth);
            if (std::abs(cur - prev) > std::abs(best)) {
              best = cur - prev;
              reset_step = mo * kMonth;
            }
            prev = cur;
          }
          if (std::abs(best) <= activity::kMajorChangeThreshold) {
            reset_step = -1;
          }
        }
      }
    }

    // Replay the block's activity; abusers act throughout, queries are
    // scored in the evaluation window.
    activity::DayBits bits;
    std::uint64_t occupants[256];
    for (int step = 0; step < config.eval_last; ++step) {
      if (step == reset_step) blocklist.ResetBlock(key);
      sim::GenerateStep(plan, spec, step, bits, nullptr, occupants);
      for (int host = 0; host < 256; ++host) {
        if (!activity::TestBit(bits, host)) continue;
        net::IPv4Addr addr{plan.block.network().value() +
                           static_cast<std::uint32_t>(host)};
        std::uint64_t occ = occupants[host];
        bool abuser =
            occ != 0 && HashUnit(rng::Substream(occ, kTagAbuser)) <
                            config.abuser_rate;

        if (step >= config.eval_first) {
          bool blocked = blocklist.IsBad(addr, step, ttl);
          if (abuser) {
            if (blocked) {
              ++eval.blocked_abuser;
            } else {
              ++eval.missed_abuser;
            }
          } else {
            ++eval.innocent_queries;
            if (blocked) ++eval.blocked_innocent;
          }
        }
        if (abuser &&
            HashUnit(rng::Substream(occ, kTagAbuseAct, step)) <
                config.abuse_probability) {
          blocklist.MarkBad(addr, step);
          ++eval.abuse_events;
        }
      }
    }
  }
  return eval;
}

}  // namespace ipscope::security
