// Shared pieces of the ipscope benchmark harness: options, latency
// samples, the failure tally, registry deltas, peak memory, hashing, the
// loopback TCP client and the seeded request mix.
//
// Every timing the harness reports is taken with std::chrono::steady_clock
// around one public call into the program. Spans (obs::Span, category
// "perfbench") are only created when tracing is on, so the untraced run
// pays nothing for them.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <pthread.h>

#include "activity/store.h"
#include "obs/timer.h"
#include "serve/server.h"
#include "sim/config.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline constexpr const char* kSpanCategory = "perfbench";
// Client /24 blocks in every workload's world.
inline constexpr int kDefaultBlocks = 40000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int blocks = kDefaultBlocks;
  std::string work_dir;  // scratch space inside the checkout
  // Self-test only: flip one byte of this response (by position on the
  // first connection) to prove the oracle counts it. -1: never.
  std::int64_t corrupt_response = -1;
};

// The world every workload of one invocation derives from the seed.
ipscope::sim::WorldConfig WorldFor(const Options& options);

// An obs::Span in the harness's category when tracing is on, nothing
// otherwise.
class MaybeSpan {
 public:
  MaybeSpan(bool on, const std::string& name) {
    if (on) span_.emplace(name, kSpanCategory);
  }

 private:
  std::optional<ipscope::obs::Span> span_;
};

// Latency samples of one operation kind.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  void Reserve(std::size_t n) { values_.reserve(n); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Median() const { return Quantile(0.5); }
  double Quantile(double q) const;  // nearest-rank on a sorted copy
  double at(std::size_t i) const { return values_.at(i); }

  // The highest of p99 and p90 that has at least ten samples beyond it,
  // else the slowest sample.
  struct Tail {
    double q = 1.0;
    double value = 0;
  };
  Tail SupportedTail() const;

 private:
  std::vector<double> values_;
};

// Operations attempted and failed, with the first few failure reasons.
class Tally {
 public:
  void Check(bool ok, const std::string& what);
  void Add(const Tally& other);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};

// What one invocation reports. `e2e` and `layer` are keyed by metric name;
// run.py turns them, plus span-derived numbers, into the final line.
struct Report {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  Tally tally;
  std::vector<std::string> notes;  // human-readable lines (stdout)
};

// Peak resident set size of this process so far, in MB (VmHWM).
double PeakRssMb();

// CPU seconds consumed so far by the whole process / by one thread. Time
// the hypervisor steals from the host is not CPU time, so CPU-based
// metrics hold still on a shared host where wall times drift.
double ProcessCpuSeconds();
double ThreadCpuSeconds(std::thread& thread);

// The CPUs this process may run on, ascending.
std::vector<int> AllowedCpus();
// Restricts a thread to `cpus`; threads it creates afterwards inherit them.
void PinThread(pthread_t thread, const std::vector<int>& cpus);

std::uint64_t Fnv1a(std::string_view bytes);

// A point-in-time copy of the par.pool.* instruments, for deltas.
struct PoolSnapshot {
  std::vector<double> busy;  // per participant slot, cumulative seconds
  std::uint64_t regions = 0;
  std::uint64_t steals = 0;
  std::uint64_t chunks = 0;
  double queue_wait_seconds = 0;  // summed over chunks
  static PoolSnapshot Take();
};

// Busy seconds summed over pool slots between two snapshots, divided by
// (threads x wall): 1.0 means every thread computed for the whole call.
double ParUtil(const PoolSnapshot& before, const PoolSnapshot& after,
               double wall_seconds);
// Max over mean of per-slot busy time between two snapshots (1.0 =
// perfect balance; 0 when no pool work ran).
double Imbalance(const PoolSnapshot& before, const PoolSnapshot& after);
// par.queue_wait_s (mean wait of a chunk from region submit to its start),
// par.imbalance_ratio and par.steals between two snapshots.
void AddPoolMetrics(const PoolSnapshot& before, const PoolSnapshot& after,
                    std::map<std::string, Metric>& layer);

std::uint64_t CounterValue(const std::string& name);

// A byte-exact copy of `full` restricted to days [first, last]: every
// block of `full` is present and uncovered days are cleared, so slices
// composed by ingest::Session equal the batch slice.
ipscope::activity::ActivityStore SliceDays(
    const ipscope::activity::ActivityStore& full, int first, int last);

// A hash of a store's days, coverage, keys and rows: equal hashes mean
// the stores serialize to the same bytes. SliceHash(full, f, l) equals
// ContentHash(SliceDays(full, f, l)) without building the slice.
std::uint64_t ContentHash(const ipscope::activity::ActivityStore& store);
std::uint64_t SliceHash(const ipscope::activity::ActivityStore& full,
                        int first, int last);

// --- Serve traffic ----------------------------------------------------------

enum class Endpoint { kPoint, kPrefix, kAs, kSummary, kChurn, kPatterns };
const char* EndpointName(Endpoint e);

// Every distinct request body the harness issues: one point lookup per
// stored block, 256 /16 prefixes and ASes, and the three aggregates.
struct Catalog {
  std::vector<std::string> bodies;
  std::vector<std::string> frames;  // bodies[i] wrapped in an IPSQ frame
  std::vector<Endpoint> kinds;
  std::size_t points = 0;           // bodies [0, points) are point lookups
  std::vector<std::size_t> prefixes, ases;
  std::size_t summary = 0, churn = 0, patterns = 0;
};
Catalog BuildCatalog(const ipscope::activity::ActivityStore& store,
                     const std::vector<ipscope::serve::BlockAttribution>& attr,
                     std::uint64_t seed);

// Seeded request stream over a catalog: Zipf(1.0) popularity over all
// point lookups (ranks shuffled by the seed), plus, unless `points_only`,
// 0.25% prefix and 0.15% AS lookups. The aggregates are not in the stream:
// whether their cache entries survive the point-lookup churn is a coin
// toss per run, and one patterns recompute costs about a CPU-second, which
// moved serve-steady's throughput by up to 30% between runs.
class RequestStream {
 public:
  RequestStream(const Catalog& catalog, std::uint64_t seed,
                bool points_only);
  std::size_t Next();

 private:
  const Catalog& catalog_;
  std::mt19937_64 rng_;
  std::vector<double> cdf_;           // Zipf over ranks
  std::vector<std::uint32_t> rank_;   // rank -> point body index
  bool points_only_;
};

// One answered request, recorded for the oracle.
struct Answer {
  std::uint32_t body = 0;      // catalog index
  std::uint64_t snapshot = 0;  // id the response claims (0: none)
  std::uint64_t hash = 0;      // Fnv1a of the response body
  bool ok = false;             // transport worked and "ok": true
};

// Blocking loopback client speaking the IPSQ framing.
class Client {
 public:
  explicit Client(int port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  bool connected() const { return fd_ >= 0; }
  // Sends one frame, reads one response body. False on a transport error.
  bool Exchange(const std::string& frame, std::string& body);

 private:
  int fd_ = -1;
};

// Fills `answer` from a response body (hash, claimed snapshot, ok flag).
void Inspect(std::uint32_t body_index, const std::string& response,
             bool transport_ok, Answer& answer);

// Compares every recorded answer with Server::DirectAnswer on the store
// the claimed snapshot held. `store_of(id)` returns that store (nullptr
// when the id is unknown, which counts as a failure); it is called with
// non-decreasing ids. Each distinct (snapshot, body) pair is answered once.
template <typename StoreOf>
void VerifyAnswers(std::vector<Answer> answers, const Catalog& catalog,
                   std::span<const ipscope::serve::BlockAttribution> attr,
                   StoreOf&& store_of, Tally& tally) {
  std::stable_sort(answers.begin(), answers.end(),
                   [](const Answer& x, const Answer& y) {
                     return x.snapshot < y.snapshot;
                   });
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::uint64_t> expected;
  for (const Answer& a : answers) {
    if (!a.ok) {
      tally.Check(false, "not ok: " + catalog.bodies[a.body]);
      continue;
    }
    auto key = std::make_pair(a.snapshot, a.body);
    auto it = expected.find(key);
    if (it == expected.end()) {
      const ipscope::activity::ActivityStore* store = store_of(a.snapshot);
      std::uint64_t want =
          store == nullptr
              ? 0
              : Fnv1a(ipscope::serve::Server::DirectAnswer(
                    *store, a.snapshot, attr, catalog.bodies[a.body]));
      it = expected.emplace(key, want).first;
    }
    tally.Check(it->second != 0 && it->second == a.hash,
                "response differs from DirectAnswer at snapshot " +
                    std::to_string(a.snapshot) + ": " +
                    catalog.bodies[a.body]);
  }
}

// A serve::Server on loopback, run on its own thread; Stop() drains it.
class Daemon {
 public:
  explicit Daemon(ipscope::serve::Server& server);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  int port() const { return port_; }
  bool ok() const { return port_ > 0; }
  // Restricts the accepting thread to `cpus`: each connection thread it
  // starts afterwards inherits them.
  void PinAcceptor(const std::vector<int>& cpus);
  void Stop();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool decided_ = false;  // guards: mu_ (port_ is final once set)
  std::atomic<bool> stop_{false};
  int port_ = 0;
  std::string error_;
  std::thread thread_;  // last: it uses every member above
};

}  // namespace perfbench
