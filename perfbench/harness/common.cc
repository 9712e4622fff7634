#include "common.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <set>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include "netbase/prefix.h"
#include "obs/registry.h"
#include "par/pool.h"
#include "serve/frame.h"
#include "serve/tcp.h"

namespace perfbench {

namespace activity = ipscope::activity;
namespace net = ipscope::net;
namespace serve = ipscope::serve;

ipscope::sim::WorldConfig WorldFor(const Options& options) {
  ipscope::sim::WorldConfig config;
  config.target_client_blocks = options.blocks;
  config.seed = options.seed;
  return config;
}

// --- Samples ----------------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

Samples::Tail Samples::SupportedTail() const {
  const double n = static_cast<double>(values_.size());
  for (double q : {0.99, 0.9}) {
    if (n * (1.0 - q) >= 10.0) return Tail{q, Quantile(q)};
  }
  return Tail{1.0, Quantile(1.0)};
}

// --- Tally ------------------------------------------------------------------

void Tally::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (reasons_.size() < 5) reasons_.push_back(what);
}

void Tally::Add(const Tally& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& r : other.reasons_) {
    if (reasons_.size() < 5) reasons_.push_back(r);
  }
}

// --- Process and registry readings -------------------------------------------

double PeakRssMb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0;
}

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSeconds(std::thread& thread) {
  clockid_t clock{};
  if (pthread_getcpuclockid(thread.native_handle(), &clock) != 0) return 0;
  return ClockSeconds(clock);
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

void PinThread(pthread_t thread, const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(thread, sizeof(set), &set);
}

std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

PoolSnapshot PoolSnapshot::Take() {
  auto& reg = ipscope::obs::GlobalRegistry();
  PoolSnapshot s;
  int threads = ipscope::par::GlobalPool().threads();
  for (int slot = 0; slot < threads; ++slot) {
    s.busy.push_back(
        reg.GetGauge("par.pool.worker." + std::to_string(slot) +
                     ".busy_seconds")
            .value());
  }
  s.regions = reg.GetCounter("par.pool.regions").value();
  s.steals = reg.GetCounter("par.pool.steals").value();
  auto& wait = reg.GetHistogram("par.pool.queue_wait_seconds");
  s.chunks = wait.count();
  s.queue_wait_seconds = wait.sum();
  return s;
}

namespace {

std::vector<double> BusyDeltas(const PoolSnapshot& before,
                               const PoolSnapshot& after) {
  std::vector<double> d;
  for (std::size_t i = 0; i < after.busy.size(); ++i) {
    d.push_back(after.busy[i] - (i < before.busy.size() ? before.busy[i] : 0));
  }
  return d;
}

}  // namespace

double ParUtil(const PoolSnapshot& before, const PoolSnapshot& after,
               double wall_seconds) {
  std::vector<double> d = BusyDeltas(before, after);
  if (d.empty() || wall_seconds <= 0) return 0;
  double busy = 0;
  for (double v : d) busy += v;
  return busy / (static_cast<double>(d.size()) * wall_seconds);
}

double Imbalance(const PoolSnapshot& before, const PoolSnapshot& after) {
  std::vector<double> d = BusyDeltas(before, after);
  double sum = 0, max = 0;
  for (double v : d) {
    sum += v;
    max = std::max(max, v);
  }
  if (sum <= 0) return 0;
  return max / (sum / static_cast<double>(d.size()));
}

void AddPoolMetrics(const PoolSnapshot& before, const PoolSnapshot& after,
                    std::map<std::string, Metric>& layer) {
  std::uint64_t chunks = after.chunks - before.chunks;
  layer["par.queue_wait_s"] = Metric{
      chunks > 0 ? (after.queue_wait_seconds - before.queue_wait_seconds) /
                       static_cast<double>(chunks)
                 : 0.0,
      "s"};
  layer["par.imbalance_ratio"] = Metric{Imbalance(before, after), "ratio"};
  layer["par.steals"] =
      Metric{static_cast<double>(after.steals - before.steals), "count"};
}

std::uint64_t CounterValue(const std::string& name) {
  return ipscope::obs::GlobalRegistry().GetCounter(name).value();
}

// --- Store helpers --------------------------------------------------------------

activity::ActivityStore SliceDays(const activity::ActivityStore& full,
                                  int first, int last) {
  activity::ActivityStore delta{full.days()};
  for (int d = 0; d < full.days(); ++d) {
    if (d < first || d > last || !full.DayCovered(d)) {
      delta.SetDayCovered(d, false);
    }
  }
  full.ForEach([&](net::BlockKey key, const activity::ActivityMatrix& m) {
    activity::ActivityMatrix& dst = delta.GetOrCreate(key);
    for (int d = first; d <= last; ++d) {
      if (delta.DayCovered(d)) dst.Row(d) = m.Row(d);
    }
  });
  return delta;
}

namespace {

void MixWord(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
}

}  // namespace

std::uint64_t ContentHash(const activity::ActivityStore& store) {
  return SliceHash(store, 0, store.days() - 1);
}

std::uint64_t SliceHash(const activity::ActivityStore& full, int first,
                        int last) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const int days = full.days();
  std::vector<bool> in(static_cast<std::size_t>(days));
  MixWord(h, static_cast<std::uint64_t>(days));
  for (int d = 0; d < days; ++d) {
    in[static_cast<std::size_t>(d)] =
        d >= first && d <= last && full.DayCovered(d);
    MixWord(h, in[static_cast<std::size_t>(d)] ? 1 : 0);
  }
  MixWord(h, full.BlockCount());
  for (std::size_t i = 0; i < full.BlockCount(); ++i) {
    MixWord(h, full.KeyAt(i));
    const activity::ActivityMatrix& m = full.MatrixAt(i);
    for (int d = 0; d < days; ++d) {
      if (!in[static_cast<std::size_t>(d)]) {
        for (int w = 0; w < 4; ++w) MixWord(h, 0);
        continue;
      }
      for (std::uint64_t word : m.Row(d)) MixWord(h, word);
    }
  }
  return h;
}

// --- Request catalog and stream ---------------------------------------------------

const char* EndpointName(Endpoint e) {
  switch (e) {
    case Endpoint::kPoint: return "point";
    case Endpoint::kPrefix: return "prefix";
    case Endpoint::kAs: return "as";
    case Endpoint::kSummary: return "summary";
    case Endpoint::kChurn: return "churn";
    case Endpoint::kPatterns: return "patterns";
  }
  return "?";
}

namespace {

// Distinct /16 prefixes and ASes in the mix: enough that their mean cost
// does not depend on which ones a seed draws.
constexpr std::size_t kMixKeys = 256;

}  // namespace

Catalog BuildCatalog(const activity::ActivityStore& store,
                     const std::vector<serve::BlockAttribution>& attr,
                     std::uint64_t seed) {
  Catalog c;
  auto add = [&c](std::string body, Endpoint kind) {
    c.frames.push_back(serve::EncodeFrame(body));
    c.bodies.push_back(std::move(body));
    c.kinds.push_back(kind);
    return c.bodies.size() - 1;
  };
  auto keys = store.keys();
  for (net::BlockKey key : keys) {
    add(R"({"endpoint": "point", "block": ")" +
            net::BlockFromKey(key).ToString() + "\"}",
        Endpoint::kPoint);
  }
  c.points = c.bodies.size();

  std::mt19937_64 rng{seed ^ 0x70726566ULL};
  std::set<std::uint32_t> p16s;
  for (std::size_t i = 0;
       i < 4 * kMixKeys && !keys.empty() && p16s.size() < kMixKeys; ++i) {
    p16s.insert(keys[rng() % keys.size()] >> 8);
  }
  for (std::uint32_t p : p16s) {
    net::Prefix prefix{net::IPv4Addr{p << 16}, 16};
    c.prefixes.push_back(add(
        R"({"endpoint": "prefix", "prefix": ")" + prefix.ToString() + "\"}",
        Endpoint::kPrefix));
  }
  std::set<std::uint32_t> asns;
  for (std::size_t i = 0;
       i < 16 * kMixKeys && !attr.empty() && asns.size() < kMixKeys; ++i) {
    asns.insert(attr[rng() % attr.size()].asn);
  }
  for (std::uint32_t asn : asns) {
    c.ases.push_back(add(
        R"({"endpoint": "as", "asn": )" + std::to_string(asn) + "}",
        Endpoint::kAs));
  }
  c.summary = add(R"({"endpoint": "summary"})", Endpoint::kSummary);
  c.churn = add(R"({"endpoint": "churn", "window": 7})", Endpoint::kChurn);
  c.patterns = add(R"({"endpoint": "patterns"})", Endpoint::kPatterns);
  return c;
}

RequestStream::RequestStream(const Catalog& catalog, std::uint64_t seed,
                             bool points_only)
    : catalog_(catalog), rng_(seed), points_only_(points_only) {
  const std::size_t n = catalog.points;
  cdf_.resize(n);
  double sum = 0;
  for (std::size_t r = 0; r < n; ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    cdf_[r] = sum;
  }
  for (double& v : cdf_) v /= sum;
  rank_.resize(n);
  for (std::size_t i = 0; i < n; ++i) rank_[i] = static_cast<std::uint32_t>(i);
  std::mt19937_64 shuffle{seed ^ 0x7a697066ULL};
  std::shuffle(rank_.begin(), rank_.end(), shuffle);
}

std::size_t RequestStream::Next() {
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  double u = unit(rng_);
  if (!points_only_) {
    // The slow kinds stay below 1%, so p99 is a point lookup's.
    if (u < 0.0025 && !catalog_.prefixes.empty()) {
      return catalog_.prefixes[rng_() % catalog_.prefixes.size()];
    }
    if (u < 0.004 && !catalog_.ases.empty()) {
      return catalog_.ases[rng_() % catalog_.ases.size()];
    }
  }
  double z = unit(rng_);
  std::size_t r = static_cast<std::size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), z) - cdf_.begin());
  return rank_[std::min(r, rank_.size() - 1)];
}

// --- Transport -------------------------------------------------------------

Client::Client(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return;
  }
  fd_ = fd;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::Exchange(const std::string& frame, std::string& body) {
  if (fd_ < 0) return false;
  std::size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t n = ::write(fd_, frame.data() + sent, frame.size() - sent);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  auto read_exactly = [this](char* buf, std::size_t want) {
    std::size_t got = 0;
    while (got < want) {
      ssize_t n = ::read(fd_, buf + got, want - got);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      got += static_cast<std::size_t>(n);
    }
    return true;
  };
  char header[serve::kFrameHeaderBytes];
  if (!read_exactly(header, sizeof(header))) return false;
  if (std::memcmp(header, serve::kFrameMagic, 4) != 0) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(header[4 + i]))
           << (8 * i);
  }
  body.resize(len);
  return len == 0 || read_exactly(body.data(), len);
}

void Inspect(std::uint32_t body_index, const std::string& response,
             bool transport_ok, Answer& answer) {
  answer.body = body_index;
  answer.hash = Fnv1a(response);
  answer.snapshot = 0;
  answer.ok = transport_ok && response.rfind(R"({"ok": true)", 0) == 0;
  static constexpr std::string_view kField = R"("snapshot": )";
  std::size_t at = response.find(kField);
  if (at == std::string::npos) return;
  const char* first = response.data() + at + kField.size();
  std::from_chars(first, response.data() + response.size(), answer.snapshot);
}

Daemon::Daemon(serve::Server& server) {
  thread_ = std::thread{[this, &server] {
    serve::TcpOptions tcp;
    tcp.poll_millis = 20;
    auto result = serve::RunTcpServer(
        server, tcp, [this] { return stop_.load(); },
        [this](int bound) {
          std::lock_guard<std::mutex> lock{mu_};
          port_ = bound;
          decided_ = true;
          cv_.notify_all();
        });
    if (!result.ok()) {
      std::lock_guard<std::mutex> lock{mu_};
      error_ = result.error().message;
      port_ = -1;
      decided_ = true;
      cv_.notify_all();
    }
  }};
  std::unique_lock<std::mutex> lock{mu_};
  cv_.wait(lock, [this] { return decided_; });
}

Daemon::~Daemon() { Stop(); }

void Daemon::PinAcceptor(const std::vector<int>& cpus) {
  if (thread_.joinable()) PinThread(thread_.native_handle(), cpus);
}

void Daemon::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

}  // namespace perfbench
