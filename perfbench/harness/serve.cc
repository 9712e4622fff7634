// The two serve workloads share one harness: a serve::Server behind
// serve::RunTcpServer on loopback, in this process, driven by closed-loop
// clients over real TCP connections.
//
// serve-steady: set-up is world + store build + server ready. One
//   connection per CPU issues the seeded mix (Zipf point lookups over
//   every block, 0.4% prefix/as lookups) after a short warm-up that fills
//   the response cache; each client thread runs on the CPU of its
//   connection's server thread. One operation is one request. The
//   aggregates' cold cost is measured by ingest-reload and by the traced
//   replay.
//
// ingest-reload: set-up is world + store build + ingest::Session bootstrap
//   with days [0, D-16) + server ready on the loaded store. One operation
//   is one refresh: Session::Append of the next day, Session::Load,
//   Server::Reload, then summary, churn(7) and patterns fetched over TCP
//   until all three carry the new snapshot id. A second connection issues
//   Zipf point lookups throughout; its latency is sampled while refreshes
//   run.
//
// Oracles (outside every timed region): every response is byte-identical
// to Server::DirectAnswer on the store its snapshot id held, and every
// Session::Load equals the same day-slice built in batch.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <thread>

#include "cdn/observatory.h"
#include "ingest/session.h"
#include "serve/frame.h"
#include "sim/world.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace activity = ipscope::activity;
namespace fs = std::filesystem;
namespace serve = ipscope::serve;

constexpr double kWarmupSeconds = 0.5;
constexpr std::size_t kReplayRequests = 20000;
// Above what one loopback connection completes; sizes the recording space
// reserved up front.
constexpr double kMaxRequestsPerSecond = 200000;
constexpr int kAggregateProbes = 3;

// The serve.* counters a phase reports as deltas.
struct ServeCounters {
  std::uint64_t hits, misses, evictions, errors, bad_frames;
  static ServeCounters Take() {
    return {CounterValue("serve.cache.hits"),
            CounterValue("serve.cache.misses"),
            CounterValue("serve.cache.evictions"),
            CounterValue("serve.errors"), CounterValue("serve.frames.bad")};
  }
};

// One closed-loop client connection. `measuring` gates latency samples;
// answers are always recorded for the oracle.
struct Connection {
  Samples latency;
  std::vector<double> done_at;  // per latency sample, seconds after start
  std::vector<Answer> answers;
  std::vector<std::uint32_t> issued;  // body indices while measuring
  std::uint64_t not_ok = 0;
  std::atomic<bool> answered{false};  // the first exchange is over
};

// Traced requests are spans named `span`. `corrupt_at` >= 0 flips one byte
// of that response (by position in this connection) before it is
// recorded: the oracle's self-test. `cpu` >= 0 pins the client thread.
// Space for `expected` requests is reserved up front, so the records grow
// page by page rather than by doubling, and peak RSS does not jump with
// where the request count falls between two powers of two.
void ClientLoop(int port, const Catalog& catalog, RequestStream stream,
                const std::atomic<bool>& measuring,
                const std::atomic<Clock::rep>& start,
                const std::atomic<bool>& stop, bool traced,
                const std::string& span, std::int64_t corrupt_at, int cpu,
                std::size_t expected, Connection& out) {
  if (cpu >= 0) PinThread(pthread_self(), {cpu});
  out.latency.Reserve(expected);
  out.done_at.reserve(expected);
  out.answers.reserve(expected);
  out.issued.reserve(expected);
  Client client{port};
  std::string response;
  while (!stop.load(std::memory_order_relaxed)) {
    std::size_t i = stream.Next();
    bool timed = measuring.load();
    bool ok = false;
    auto t0 = Clock::now();
    {
      MaybeSpan rtt{traced && timed, span};
      ok = client.Exchange(catalog.frames[i], response);
    }
    auto t1 = Clock::now();
    double dt = std::chrono::duration<double>(t1 - t0).count();
    if (static_cast<std::int64_t>(out.answers.size()) == corrupt_at &&
        !response.empty()) {
      response[response.size() / 2] ^= 0x01;
    }
    Answer a;
    Inspect(static_cast<std::uint32_t>(i), response, ok, a);
    out.answers.push_back(a);
    if (!a.ok) ++out.not_ok;
    if (timed) {
      out.latency.Add(dt);
      out.done_at.push_back(std::chrono::duration<double>(
                                t1.time_since_epoch() -
                                Clock::duration{start.load()})
                                .count());
      out.issued.push_back(static_cast<std::uint32_t>(i));
    }
    out.answered.store(true);
    if (!ok) break;  // the connection is gone; the failure is recorded
  }
}

void AddServeCounters(const ServeCounters& a, const ServeCounters& b,
                      Phase& phase) {
  std::uint64_t hits = b.hits - a.hits, misses = b.misses - a.misses;
  phase.layer["serve.cache.hit_ratio"] =
      Metric{hits + misses > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(hits + misses)
                               : 0.0,
             "ratio"};
  phase.layer["serve.cache.evictions"] =
      Metric{static_cast<double>(b.evictions - a.evictions), "count"};
}

// --- serve-steady -------------------------------------------------------------

class ServeSteady final : public Workload {
 public:
  explicit ServeSteady(const Options& options) : options_(options) {}
  ~ServeSteady() override { Teardown(); }

  int setup_repetitions() const override { return 5; }

  double Setup(bool traced) override {
    Teardown();
    double seconds = 0;
    auto start = Clock::now();
    {
      MaybeSpan span{traced, "sim.world"};
      world_ = std::make_unique<ipscope::sim::World>(WorldFor(options_));
    }
    activity::ActivityStore store{1};
    {
      MaybeSpan span{traced, "cdn.store_build"};
      store = ipscope::cdn::Observatory::Daily(*world_).BuildStore();
    }
    seconds += SecondsSince(start);
    // The oracle copy and the request catalog are the harness's, untimed.
    oracle_.emplace(store);
    attribution_ = serve::Server::AttributionFromWorld(*world_);
    catalog_.emplace(BuildCatalog(*oracle_, attribution_, options_.seed));
    start = Clock::now();
    {
      MaybeSpan span{traced, "serve.start"};
      server_ = std::make_unique<serve::Server>(std::move(store));
      server_->SetAttribution(attribution_);
      daemon_ = std::make_unique<Daemon>(*server_);
    }
    seconds += SecondsSince(start);
    if (!daemon_->ok()) setup_failed_ = true;
    return seconds;
  }

  Phase Measure(double seconds, bool traced) override {
    Phase phase;
    ServeCounters all0 = ServeCounters::Take();
    std::atomic<bool> measuring{false}, stop{false};
    std::atomic<Clock::rep> start_at{0};
    // One connection per CPU. Each client thread shares its CPU with the
    // server thread of its connection, so a round trip is two context
    // switches on that CPU rather than two cross-CPU wake-ups, whose cost
    // on a shared host drifts with the host's load; and every CPU carries
    // the same load, so how fast the host runs one of them moves the
    // medians less. The acceptor is pinned while its connection's thread
    // starts; the first answer proves it started.
    const std::vector<int> cpus = AllowedCpus();
    std::vector<Connection> conns(std::max<std::size_t>(1, cpus.size()));
    std::vector<std::thread> threads;
    const auto expected = static_cast<std::size_t>(
        (seconds + kWarmupSeconds) * kMaxRequestsPerSecond);
    for (std::size_t c = 0; c < conns.size(); ++c) {
      int cpu = cpus.empty() ? -1 : cpus[c];
      if (cpu >= 0) daemon_->PinAcceptor({cpu});
      std::uint64_t stream_seed = options_.seed * 1000003 + runs_ * 16 + c;
      threads.emplace_back(ClientLoop, daemon_->port(), std::cref(*catalog_),
                           RequestStream{*catalog_, stream_seed, false},
                           std::cref(measuring), std::cref(start_at),
                           std::cref(stop), traced,
                           std::string("serve.rtt"),
                           c == 0 ? options_.corrupt_response : -1, cpu,
                           expected, std::ref(conns[c]));
      while (!conns[c].answered.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    daemon_->PinAcceptor(cpus);
    ++runs_;
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
    ServeCounters c0 = ServeCounters::Take();
    auto start = Clock::now();
    start_at.store(start.time_since_epoch().count());
    auto clients_cpu = [&threads] {
      double sum = 0;
      for (std::thread& t : threads) sum += ThreadCpuSeconds(t);
      return sum;
    };
    // The program's CPU time is read at every window boundary.
    const std::size_t windows = static_cast<std::size_t>(
        std::max(1.0, std::floor(seconds)));
    phase.window_s = seconds / static_cast<double>(windows);
    double cpu_mark = ProcessCpuSeconds() - clients_cpu();
    const double cpu0 = cpu_mark;
    measuring.store(true);
    for (std::size_t w = 1; w <= windows; ++w) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          phase.window_s * static_cast<double>(w))));
      double cpu = ProcessCpuSeconds() - clients_cpu();
      phase.window_cpu_s.push_back(cpu - cpu_mark);
      cpu_mark = cpu;
    }
    measuring.store(false);
    phase.wall = SecondsSince(start);
    phase.cpu_s = cpu_mark - cpu0;
    ServeCounters c1 = ServeCounters::Take();
    stop.store(true);
    for (std::thread& t : threads) t.join();
    ServeCounters all1 = ServeCounters::Take();

    phase.windows.resize(windows);
    std::size_t requests = 0, answers = answers_.size();
    for (const Connection& c : conns) {
      requests += c.latency.size();
      answers += c.answers.size();
    }
    phase.op.Reserve(requests);
    answers_.reserve(answers);
    std::uint64_t not_ok = 0;
    for (Connection& c : conns) {
      phase.op.Append(c.latency);
      for (std::size_t k = 0; k < c.done_at.size(); ++k) {
        std::size_t w = static_cast<std::size_t>(c.done_at[k] / phase.window_s);
        phase.windows[std::min(w, phase.windows.size() - 1)].Add(
            c.latency.at(k));
      }
      not_ok += c.not_ok;
      answers_.insert(answers_.end(), c.answers.begin(), c.answers.end());
    }
    if (replay_.empty()) replay_ = conns[0].issued;
    AddServeCounters(c0, c1, phase);
    // A live scrape would see these: they must agree with what clients saw.
    registry_errors_ += (all1.errors - all0.errors) +
                        (all1.bad_frames - all0.bad_frames);
    client_errors_ += not_ok;
    return phase;
  }

  // In-process replay of the recorded point/prefix/as stream through
  // HandleFrame and HandleRequest (each on a fresh server, so the cache
  // fills as it did over TCP) and DirectAnswer, one call at a time; plus a
  // few cold DirectAnswer calls per aggregate endpoint.
  void Probe() override {
    std::vector<std::uint32_t> bodies(
        replay_.begin(),
        replay_.begin() + std::min(replay_.size(), kReplayRequests));
    // Two servers fed the same sequence hit and miss their caches alike, so
    // interleaving the calls pairs them request by request.
    std::vector<std::uint64_t> via_cache;
    {
      serve::Server framed{activity::ActivityStore{*oracle_}};
      serve::Server plain{activity::ActivityStore{*oracle_}};
      framed.SetAttribution(attribution_);
      plain.SetAttribution(attribution_);
      for (std::uint32_t i : bodies) {
        {
          MaybeSpan span{true, "serve.handle_frame"};
          (void)framed.HandleFrame(catalog_->frames[i]);
        }
        std::string r;
        {
          MaybeSpan span{true, "serve.handle_request"};
          r = plain.HandleRequest(catalog_->bodies[i]);
        }
        via_cache.push_back(Fnv1a(r));
      }
    }
    for (std::size_t n = 0; n < bodies.size(); ++n) {
      std::uint32_t i = bodies[n];
      std::string r;
      {
        MaybeSpan span{true, std::string("serve.direct_answer.") +
                                 EndpointName(catalog_->kinds[i])};
        r = serve::Server::DirectAnswer(*oracle_, 1, attribution_,
                                        catalog_->bodies[i]);
      }
      probe_tally_.Check(Fnv1a(r) == via_cache[n],
                         "replay: HandleRequest differs from DirectAnswer");
    }
    for (std::size_t i : {catalog_->summary, catalog_->churn,
                          catalog_->patterns}) {
      for (int r = 0; r < kAggregateProbes; ++r) {
        MaybeSpan span{true, std::string("serve.direct_answer.") +
                                 EndpointName(catalog_->kinds[i])};
        (void)serve::Server::DirectAnswer(*oracle_, 1, attribution_,
                                          catalog_->bodies[i]);
      }
    }
  }

  void Verify(Tally& tally) override {
    tally.Check(!setup_failed_, "serve-steady: server did not start");
    tally.Check(registry_errors_ == client_errors_,
                "serve-steady: registry serve.errors + serve.frames.bad (" +
                    std::to_string(registry_errors_) +
                    ") disagree with failed responses (" +
                    std::to_string(client_errors_) + ")");
    tally.Add(probe_tally_);
    if (!catalog_) return;
    const activity::ActivityStore* oracle = &*oracle_;
    VerifyAnswers(
        answers_, *catalog_, attribution_,
        [oracle](std::uint64_t id) {
          return id == 1 ? oracle : nullptr;
        },
        tally);
  }

  void Teardown() override {
    if (daemon_) daemon_->Stop();
    daemon_.reset();
    server_.reset();
    oracle_.reset();
    catalog_.reset();
    world_.reset();
    answers_.clear();
    replay_.clear();
    setup_failed_ = false;
  }

 private:
  Options options_;
  std::unique_ptr<ipscope::sim::World> world_;
  std::vector<serve::BlockAttribution> attribution_;
  std::optional<activity::ActivityStore> oracle_;
  std::optional<Catalog> catalog_;
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<Daemon> daemon_;  // after server_: it serves server_
  std::vector<Answer> answers_;
  std::vector<std::uint32_t> replay_;
  std::uint64_t runs_ = 0;
  std::uint64_t registry_errors_ = 0;
  std::uint64_t client_errors_ = 0;
  bool setup_failed_ = false;
  Tally probe_tally_;
};

// --- ingest-reload --------------------------------------------------------------

constexpr int kRefreshDays = 16;  // days held back from the bootstrap

class IngestReload final : public Workload {
 public:
  explicit IngestReload(const Options& options) : options_(options) {}
  ~IngestReload() override { Teardown(); }

  double Setup(bool traced) override {
    Teardown();
    double seconds = 0;
    auto start = Clock::now();
    {
      MaybeSpan span{traced, "sim.world"};
      world_ = std::make_unique<ipscope::sim::World>(WorldFor(options_));
    }
    {
      MaybeSpan span{traced, "cdn.store_build"};
      full_.emplace(ipscope::cdn::Observatory::Daily(*world_).BuildStore());
    }
    seconds += SecondsSince(start);
    const int days = full_->days();
    first_day_ = days - kRefreshDays;
    // The bootstrap delta and the catalog are the harness's inputs, untimed.
    activity::ActivityStore bootstrap = SliceDays(*full_, 0, first_day_ - 1);
    attribution_ = serve::Server::AttributionFromWorld(*world_);
    catalog_.emplace(BuildCatalog(*full_, attribution_, options_.seed));
    dir_ = (fs::path(options_.work_dir) / "ingest").string();
    std::error_code ec;
    fs::remove_all(dir_, ec);

    start = Clock::now();
    {
      MaybeSpan span{traced, "ingest.bootstrap"};
      auto opened = ipscope::ingest::Session::Open(dir_, days);
      if (!opened.ok()) return Fail("Session::Open: " + opened.error().ToString());
      session_.emplace(std::move(opened).value());
      auto appended = session_->Append(bootstrap, "bootstrap");
      if (!appended.ok()) return Fail("bootstrap Append failed");
    }
    activity::ActivityStore loaded{1};
    {
      MaybeSpan span{traced, "ingest.bootstrap.load"};
      auto r = session_->Load();
      if (!r.ok()) return Fail("bootstrap Load failed");
      loaded = std::move(r).value();
    }
    seconds += SecondsSince(start);
    load_checks_.Check(ContentHash(loaded) ==
                           SliceHash(*full_, 0, first_day_ - 1),
                       "ingest: bootstrap Load differs from the batch slice");
    start = Clock::now();
    {
      MaybeSpan span{traced, "serve.start"};
      server_ = std::make_unique<serve::Server>(std::move(loaded));
      server_->SetAttribution(attribution_);
      daemon_ = std::make_unique<Daemon>(*server_);
    }
    seconds += SecondsSince(start);
    last_day_of_[server_->snapshot_id()] = first_day_ - 1;
    if (!daemon_->ok()) return Fail("server did not start");
    next_day_ = first_day_;
    return seconds;
  }

  Phase Measure(double seconds, bool traced) override {
    Phase phase;
    if (!daemon_ || !daemon_->ok()) return phase;
    ServeCounters all0 = ServeCounters::Take();
    std::atomic<bool> measuring{false}, stop{false};
    std::atomic<Clock::rep> start_at{Clock::now().time_since_epoch().count()};
    Connection reader;
    std::thread reader_thread{
        ClientLoop, daemon_->port(), std::cref(*catalog_),
        RequestStream{*catalog_, options_.seed * 1000003 + 7 + next_day_,
                      /*points_only=*/true},
        std::cref(measuring), std::cref(start_at), std::cref(stop), traced,
        std::string("ingest.reader.rtt"), options_.corrupt_response,
        /*cpu=*/-1, /*expected=*/0, std::ref(reader)};
    Client aggregates{daemon_->port()};
    ServeCounters c0 = ServeCounters::Take();
    std::uint64_t shard_bytes0 = CounterValue("ingest.shard_bytes");
    std::uint64_t shards0 = CounterValue("ingest.shards_loaded");
    std::uint64_t loads0 = CounterValue("ingest.loads");
    PoolSnapshot pool0 = PoolSnapshot::Take();
    int cycles = 0;
    auto start = Clock::now();
    do {
      if (next_day_ >= full_->days()) break;  // every held-back day applied
      const int day = next_day_++;
      activity::ActivityStore delta = SliceDays(*full_, day, day);
      std::optional<MaybeSpan> refresh_span;
      auto program_cpu = [&reader_thread] {
        return ProcessCpuSeconds() - ThreadCpuSeconds(reader_thread);
      };
      measuring.store(true);
      refresh_span.emplace(traced, "ingest.refresh");
      double cpu0 = program_cpu();
      auto t0 = Clock::now();
      bool ok = true;
      {
        MaybeSpan span{traced, "ingest.append"};
        ok = session_->Append(delta, "day-" + std::to_string(day)).ok();
      }
      activity::ActivityStore loaded{1};
      {
        MaybeSpan span{traced, "ingest.load"};
        auto r = session_->Load();
        if (r.ok()) {
          loaded = std::move(r).value();
        } else {
          ok = false;
        }
      }
      double part = SecondsSince(t0);
      phase.cpu_s += program_cpu() - cpu0;
      // Untimed: the load oracle, while the reader's samples pause.
      measuring.store(false);
      load_checks_.Check(ok && ContentHash(loaded) == SliceHash(*full_, 0, day),
                         "ingest: Session::Load of day " +
                             std::to_string(day) +
                             " differs from the batch slice");
      measuring.store(true);
      cpu0 = program_cpu();
      auto t1 = Clock::now();
      std::uint64_t id = 0;
      {
        MaybeSpan span{traced, "serve.reload"};
        id = server_->Reload(std::move(loaded));
      }
      last_day_of_[id] = day;
      for (std::size_t i :
           {catalog_->summary, catalog_->churn, catalog_->patterns}) {
        std::string response;
        bool sent = false;
        {
          MaybeSpan span{traced, std::string("serve.first_answer.") +
                                     EndpointName(catalog_->kinds[i])};
          sent = aggregates.Exchange(catalog_->frames[i], response);
        }
        Answer a;
        Inspect(static_cast<std::uint32_t>(i), response, sent, a);
        answers_.push_back(a);
        if (!a.ok) ++client_errors_;
        first_answer_checks_.Check(a.ok && a.snapshot == id,
                                   "ingest: first answer after reload to "
                                   "snapshot " + std::to_string(id) +
                                       " claims " +
                                       std::to_string(a.snapshot));
      }
      part += SecondsSince(t1);
      phase.cpu_s += program_cpu() - cpu0;
      refresh_span.reset();
      measuring.store(false);
      phase.op.Add(part);
      ++cycles;
    } while (SecondsSince(start) < seconds);
    phase.wall = SecondsSince(start);
    ServeCounters c1 = ServeCounters::Take();
    PoolSnapshot pool1 = PoolSnapshot::Take();
    stop.store(true);
    reader_thread.join();
    ServeCounters all1 = ServeCounters::Take();
    answers_.insert(answers_.end(), reader.answers.begin(),
                    reader.answers.end());
    registry_errors_ += (all1.errors - all0.errors) +
                        (all1.bad_frames - all0.bad_frames);
    client_errors_ += reader.not_ok;

    AddServeCounters(c0, c1, phase);
    double n = cycles > 0 ? cycles : 1;
    phase.layer["ingest.shard_bytes"] = Metric{
        static_cast<double>(CounterValue("ingest.shard_bytes") - shard_bytes0) /
            n,
        "B"};
    std::uint64_t loads = CounterValue("ingest.loads") - loads0;
    phase.layer["ingest.shards_loaded"] = Metric{
        loads > 0 ? static_cast<double>(CounterValue("ingest.shards_loaded") -
                                        shards0) /
                        static_cast<double>(loads)
                  : 0.0,
        "count"};
    phase.layer["serve.reader_p50_us"] =
        Metric{reader.latency.Median() * 1e6, "us"};
    phase.layer["serve.reader_p99_us"] =
        Metric{reader.latency.Quantile(0.99) * 1e6, "us"};
    AddPoolMetrics(pool0, pool1, phase.layer);
    return phase;
  }

  void Verify(Tally& tally) override {
    tally.Add(setup_tally_);
    tally.Add(load_checks_);
    tally.Add(first_answer_checks_);
    tally.Check(registry_errors_ == client_errors_,
                "ingest-reload: registry serve.errors + serve.frames.bad (" +
                    std::to_string(registry_errors_) +
                    ") disagree with failed responses (" +
                    std::to_string(client_errors_) + ")");
    if (!full_ || !catalog_) return;
    // Each snapshot held the batch slice [0, last day]; build them one at
    // a time, in id order.
    std::uint64_t built_id = 0;
    std::optional<activity::ActivityStore> slice;
    const activity::ActivityStore& full = *full_;
    auto store_of = [&](std::uint64_t id) -> const activity::ActivityStore* {
      auto it = last_day_of_.find(id);
      if (it == last_day_of_.end()) return nullptr;
      if (!slice || built_id != id) {
        slice.reset();
        slice.emplace(SliceDays(full, 0, it->second));
        built_id = id;
      }
      return &*slice;
    };
    VerifyAnswers(answers_, *catalog_, attribution_, store_of, tally);
  }

  void Teardown() override {
    if (daemon_) daemon_->Stop();
    daemon_.reset();
    server_.reset();
    session_.reset();
    full_.reset();
    catalog_.reset();
    world_.reset();
    answers_.clear();
    last_day_of_.clear();
    if (!dir_.empty()) {
      std::error_code ec;
      fs::remove_all(dir_, ec);
    }
  }

 private:
  double Fail(const std::string& why) {
    setup_tally_.Check(false, "ingest-reload set-up: " + why);
    return 0;
  }

  Options options_;
  std::unique_ptr<ipscope::sim::World> world_;
  std::optional<activity::ActivityStore> full_;
  std::vector<serve::BlockAttribution> attribution_;
  std::optional<Catalog> catalog_;
  std::string dir_;
  std::optional<ipscope::ingest::Session> session_;
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<Daemon> daemon_;  // after server_: it serves server_
  std::map<std::uint64_t, int> last_day_of_;  // snapshot id -> last day
  std::vector<Answer> answers_;
  int first_day_ = 0;
  int next_day_ = 0;
  std::uint64_t registry_errors_ = 0;
  std::uint64_t client_errors_ = 0;
  Tally setup_tally_, load_checks_, first_answer_checks_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeSteady(const Options& options) {
  return std::make_unique<ServeSteady>(options);
}

std::unique_ptr<Workload> MakeIngestReload(const Options& options) {
  return std::make_unique<IngestReload>(options);
}

}  // namespace perfbench
