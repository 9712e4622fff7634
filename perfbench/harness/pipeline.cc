// pipeline: the batch path a CLI user runs, with the pool at its default
// size. One operation is one pass:
//
//   Observatory::Daily(world).BuildStore() -> io::SaveStoreFile (fsync)
//   -> io::TryLoadStoreFile -> ChurnAnalyzer Churn(7) / DailyEvents /
//   VersusFirst(7) -> MaxMonthlyStuChange + SpatialStuChanges -> RunFig6
//
// Set-up is the world build. The built store is dropped once saved, as a
// CLI user's generate step ends before the analyses load the file.
// Oracles (outside every timed region):
//   * the stored file, loaded, equals the per-step GenerateStep reference
//     block by block and row by row, and saves back to the same bytes;
//   * every pass writes the same file bytes;
//   * churn, daily events, versus-first and the monthly STU change equal
//     check::reference; spatial change and Fig 6 equal a serial (1-thread)
//     recomputation; every pass's analysis fingerprint equals the first.
#include <cstring>
#include <filesystem>
#include <future>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "activity/change.h"
#include "activity/churn.h"
#include "analysis/fig6_patterns.h"
#include "cdn/observatory.h"
#include "check/diff.h"
#include "check/reference.h"
#include "io/store_io.h"
#include "par/pool.h"
#include "sim/policy.h"
#include "sim/world.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace activity = ipscope::activity;
namespace fs = std::filesystem;

void Mix(std::uint64_t& fp, std::uint64_t v) {
  fp ^= v + 0x9e3779b97f4a7c15ULL + (fp << 6) + (fp >> 2);
}

void MixDouble(std::uint64_t& fp, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Mix(fp, bits);
}

// The analysis results of one pass.
struct Analyses {
  activity::WindowChurnSeries churn;
  activity::DailyEventSeries daily;
  activity::VersusFirstSeries versus;
  std::vector<activity::BlockStuChange> stu;
  std::vector<activity::BlockSpatialChange> spatial;
  ipscope::analysis::Fig6Result fig6;

  std::uint64_t Fingerprint() const {
    std::uint64_t fp = 0;
    for (int p : churn.pairs) Mix(fp, static_cast<std::uint64_t>(p));
    for (double v : churn.up_pct) MixDouble(fp, v);
    for (double v : churn.down_pct) MixDouble(fp, v);
    for (auto* s : {&daily.active, &daily.up, &daily.down}) {
      for (std::int64_t v : *s) Mix(fp, static_cast<std::uint64_t>(v));
    }
    for (auto* s : {&versus.appear, &versus.disappear, &versus.active}) {
      for (std::uint64_t v : *s) Mix(fp, v);
    }
    for (const auto& c : stu) {
      Mix(fp, c.key);
      MixDouble(fp, c.max_delta);
    }
    for (const auto& c : spatial) {
      Mix(fp, c.key);
      MixDouble(fp, c.lower_delta);
      MixDouble(fp, c.upper_delta);
    }
    for (const auto& row : fig6.confusion) {
      for (std::uint64_t v : row) Mix(fp, v);
    }
    for (const auto& e : fig6.exemplars) Mix(fp, e.key);
    return fp;
  }
};

constexpr int kChurnWindow = 7;
constexpr int kMonthDays = 28;

template <typename T, typename U>
void CompareSeries(ipscope::check::Diff& diff, const std::string& series,
                   const std::vector<T>& expected,
                   const std::vector<U>& actual) {
  if (expected.size() != actual.size()) {
    diff.ExpectEq(series, "size", std::uint64_t{expected.size()},
                  std::uint64_t{actual.size()});
    return;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    std::string at = "i=" + std::to_string(i);
    if constexpr (std::is_floating_point_v<T>) {
      diff.ExpectEq(series, at, double{expected[i]}, double{actual[i]});
    } else {
      diff.ExpectEq(series, at, static_cast<std::int64_t>(expected[i]),
                    static_cast<std::int64_t>(actual[i]));
    }
  }
}

class Pipeline final : public Workload {
 public:
  explicit Pipeline(const Options& options)
      : options_(options),
        path_((fs::path(options.work_dir) / "pipeline.ips2").string()) {}

  // Set-up is the 0.05 s world build alone, so it is repeated more often.
  int setup_repetitions() const override { return 9; }

  double Setup(bool traced) override {
    Teardown();
    auto start = Clock::now();
    {
      MaybeSpan span{traced, "sim.world"};
      world_ = std::make_unique<ipscope::sim::World>(WorldFor(options_));
    }
    return SecondsSince(start);
  }

  Phase Measure(double seconds, bool traced) override {
    Phase phase;
    PoolSnapshot pool0 = PoolSnapshot::Take();
    auto start = Clock::now();
    std::map<std::string, Samples> util;
    do {
      Pass(traced, phase, util);
    } while (SecondsSince(start) < seconds);
    phase.wall = SecondsSince(start);
    PoolSnapshot pool1 = PoolSnapshot::Take();
    for (const auto& [name, s] : util) {
      phase.layer[name + ".par_util"] = Metric{s.Median(), "ratio"};
    }
    phase.layer["io.store_bytes"] =
        Metric{static_cast<double>(store_bytes_), "B"};
    phase.layer["io.bytes_per_block"] =
        Metric{static_cast<double>(store_bytes_) /
                   static_cast<double>(world_->client_block_count()),
               "B"};
    phase.layer["cdn.rows_emitted"] = Metric{rows_emitted_, "count"};
    AddPoolMetrics(pool0, pool1, phase.layer);
    return phase;
  }

  void Verify(Tally& tally) override {
    if (!first_) {
      tally.Check(false, "pipeline: no pass completed");
      return;
    }
    for (const std::string& problem : pass_problems_) {
      tally.Check(false, problem);
    }
    tally.Check(pass_problems_.empty(), "pipeline: per-pass checks");
    auto loaded = ipscope::io::TryLoadStoreFile(path_);
    if (!loaded.ok()) {
      tally.Check(false, "pipeline: reload for the oracle failed");
      return;
    }
    const activity::ActivityStore& store = loaded.value().store;
    CheckAgainstGenerateStep(store, tally);
    std::ostringstream again{std::ios::binary};
    ipscope::io::SaveStore(store, again);
    tally.Check(Fnv1a(again.view()) == first_file_hash_,
                "pipeline: save -> load -> save is not byte-identical");
    CheckAnalyses(store, tally);
  }

  void Teardown() override {
    world_.reset();
    first_.reset();
    pass_problems_.clear();
    std::error_code ec;
    fs::remove(path_, ec);
  }

 private:
  // One measured pass; the checks between calls run outside its timing.
  void Pass(bool traced, Phase& phase, std::map<std::string, Samples>& util) {
    double pass_seconds = 0;
    Analyses out;
    std::optional<activity::ActivityStore> built;
    std::optional<activity::ActivityStore> loaded;
    std::optional<MaybeSpan> pass_span;
    pass_span.emplace(traced, "pipeline.pass");
    std::uint64_t rows0 = CounterValue("cdn.observatory.rows_emitted");
    auto stage = [&](const char* name, auto&& call) {
      PoolSnapshot before = PoolSnapshot::Take();
      double cpu0 = ProcessCpuSeconds();
      auto t0 = Clock::now();
      {
        MaybeSpan span{traced, name};
        call();
      }
      double wall = SecondsSince(t0);
      phase.cpu_s += ProcessCpuSeconds() - cpu0;
      pass_seconds += wall;
      util[name].Add(ParUtil(before, PoolSnapshot::Take(), wall));
    };
    stage("cdn.store_build", [&] {
      built.emplace(ipscope::cdn::Observatory::Daily(*world_).BuildStore());
    });
    rows_emitted_ = static_cast<double>(
        CounterValue("cdn.observatory.rows_emitted") - rows0);
    stage("io.save", [&] { ipscope::io::SaveStoreFile(*built, path_); });
    built.reset();
    bool load_ok = true;
    stage("io.load", [&] {
      auto r = ipscope::io::TryLoadStoreFile(path_);
      if (r.ok()) {
        loaded.emplace(std::move(r).value().store);
      } else {
        load_ok = false;
      }
    });
    if (!load_ok) {
      pass_problems_.push_back("pipeline: TryLoadStoreFile failed");
      return;
    }
    const activity::ActivityStore& store = *loaded;
    stage("activity.churn", [&] {
      activity::ChurnAnalyzer analyzer{store};
      {
        MaybeSpan s{traced, "activity.churn.window"};
        out.churn = analyzer.Churn(kChurnWindow);
      }
      {
        MaybeSpan s{traced, "activity.churn.daily_events"};
        out.daily = analyzer.DailyEvents();
      }
      {
        MaybeSpan s{traced, "activity.churn.versus_first"};
        out.versus = analyzer.VersusFirst(kChurnWindow);
      }
    });
    stage("activity.change", [&] {
      {
        MaybeSpan s{traced, "activity.change.monthly"};
        out.stu = activity::MaxMonthlyStuChange(store, kMonthDays);
      }
      {
        MaybeSpan s{traced, "activity.change.spatial"};
        out.spatial = activity::SpatialStuChanges(store, kMonthDays);
      }
    });
    stage("analysis.patterns", [&] {
      out.fig6 = ipscope::analysis::RunFig6(*world_, store);
    });
    pass_span.reset();
    phase.op.Add(pass_seconds);

    // Per-pass checks, outside the pass timing.
    std::error_code ec;
    std::uint64_t bytes = fs::file_size(path_, ec);
    std::uint64_t file_hash = HashFile(path_);
    std::uint64_t fp = out.Fingerprint();
    if (!first_) {
      first_.emplace(std::move(out));
      first_fp_ = fp;
      first_file_hash_ = file_hash;
      store_bytes_ = bytes;
    } else if (fp != first_fp_ || file_hash != first_file_hash_ ||
               bytes != store_bytes_) {
      pass_problems_.push_back("pipeline: pass differs from the first pass");
    }
  }

  static std::uint64_t HashFile(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return Fnv1a(bytes.view());
  }

  // Every block's rows regenerated step by step must equal the built store,
  // and the store must hold exactly the blocks with any activity.
  void CheckAgainstGenerateStep(const activity::ActivityStore& store,
                                Tally& tally) {
    auto observatory = ipscope::cdn::Observatory::Daily(*world_);
    const ipscope::sim::StepSpec& spec = observatory.spec();
    const auto& plans = world_->blocks();
    struct Acc {
      std::uint64_t nonempty = 0;
      std::uint64_t mismatched = 0;
    };
    Acc acc = ipscope::par::ParallelReduce(
        0, plans.size(), Acc{},
        [&](Acc& a, std::size_t first, std::size_t last) {
          for (std::size_t i = first; i < last; ++i) {
            const ipscope::sim::BlockPlan& plan = plans[i];
            const activity::ActivityMatrix* m =
                store.Find(ipscope::net::BlockKeyOf(plan.block));
            bool any = false, same = true;
            for (int s = 0; s < spec.steps; ++s) {
              activity::DayBits bits;
              ipscope::sim::GenerateStep(plan, spec, s, bits, nullptr);
              any = any || (bits[0] | bits[1] | bits[2] | bits[3]) != 0;
              if (m != nullptr && m->Row(s) != bits) same = false;
            }
            if (any) ++a.nonempty;
            if (any ? (m == nullptr || !same) : m != nullptr) ++a.mismatched;
          }
        },
        [](Acc& a, Acc&& b) {
          a.nonempty += b.nonempty;
          a.mismatched += b.mismatched;
        },
        64);
    tally.Check(acc.mismatched == 0 && acc.nonempty == store.BlockCount(),
                "pipeline: store differs from the GenerateStep reference in " +
                    std::to_string(acc.mismatched) + " blocks");
  }

  void CheckAnalyses(const activity::ActivityStore& store, Tally& tally) {
    namespace check = ipscope::check;
    const Analyses& got = *first_;
    // The naive oracles are serial and independent: run them side by side.
    auto daily = std::async(std::launch::async, [&store] {
      return check::RefDailyEventSeries(store);
    });
    auto churn = std::async(std::launch::async, [&store] {
      return check::RefWindowChurn(store, kChurnWindow);
    });
    auto versus = std::async(std::launch::async, [&store] {
      return check::RefVersusFirstSeries(store, kChurnWindow);
    });
    auto stu = std::async(std::launch::async, [&store] {
      return check::RefMaxMonthlyStuChange(store, kMonthDays);
    });
    check::Diff diff{"pipeline"};
    {
      check::RefDailyEvents ref = daily.get();
      CompareSeries(diff, "daily.active", ref.active, got.daily.active);
      CompareSeries(diff, "daily.up", ref.up, got.daily.up);
      CompareSeries(diff, "daily.down", ref.down, got.daily.down);
    }
    {
      check::RefChurn ref = churn.get();
      CompareSeries(diff, "churn.pairs", ref.pairs, got.churn.pairs);
      CompareSeries(diff, "churn.up_pct", ref.up_pct, got.churn.up_pct);
      CompareSeries(diff, "churn.down_pct", ref.down_pct, got.churn.down_pct);
    }
    {
      check::RefVersusFirst ref = versus.get();
      CompareSeries(diff, "versus.appear", ref.appear, got.versus.appear);
      CompareSeries(diff, "versus.disappear", ref.disappear,
                    got.versus.disappear);
      CompareSeries(diff, "versus.active", ref.active, got.versus.active);
    }
    {
      std::vector<std::uint64_t> ref_keys, got_keys;
      std::vector<double> ref_delta, got_delta;
      for (const auto& c : stu.get()) {
        ref_keys.push_back(c.key);
        ref_delta.push_back(c.max_delta);
      }
      for (const auto& c : got.stu) {
        got_keys.push_back(c.key);
        got_delta.push_back(c.max_delta);
      }
      CompareSeries(diff, "stu.key", ref_keys, got_keys);
      CompareSeries(diff, "stu.max_delta", ref_delta, got_delta);
    }
    tally.Check(diff.ok(), "pipeline: analyses differ from check::reference (" +
                               std::to_string(diff.mismatches()) +
                               " mismatches)");

    // No naive oracle exists for these two: a serial recomputation checks
    // that the parallel pass is exact.
    auto& pool = ipscope::par::GlobalPool();
    int threads = pool.threads();
    pool.Resize(1);
    Analyses serial;
    serial.spatial = activity::SpatialStuChanges(store, kMonthDays);
    serial.fig6 = ipscope::analysis::RunFig6(*world_, store);
    pool.Resize(threads);
    bool same = serial.spatial.size() == got.spatial.size() &&
                serial.fig6.confusion == got.fig6.confusion &&
                serial.fig6.exemplars.size() == got.fig6.exemplars.size();
    for (std::size_t i = 0; same && i < serial.spatial.size(); ++i) {
      same = serial.spatial[i].key == got.spatial[i].key &&
             serial.spatial[i].lower_delta == got.spatial[i].lower_delta &&
             serial.spatial[i].upper_delta == got.spatial[i].upper_delta;
    }
    for (std::size_t i = 0; same && i < serial.fig6.exemplars.size(); ++i) {
      same = serial.fig6.exemplars[i].key == got.fig6.exemplars[i].key;
    }
    tally.Check(same, "pipeline: spatial change or Fig 6 differs from serial");
  }

  Options options_;
  std::string path_;
  std::unique_ptr<ipscope::sim::World> world_;
  std::optional<Analyses> first_;
  std::uint64_t first_fp_ = 0;
  std::uint64_t first_file_hash_ = 0;
  std::uint64_t store_bytes_ = 0;
  double rows_emitted_ = 0;
  std::vector<std::string> pass_problems_;
};

}  // namespace

std::unique_ptr<Workload> MakePipeline(const Options& options) {
  return std::make_unique<Pipeline>(options);
}

}  // namespace perfbench
