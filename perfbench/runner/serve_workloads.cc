// Server workloads: serve_uniform and serve_hotspot.
//
// Both start the shipped senn_served binary as a child process (which
// inherits the runner's one-CPU pin) and drive it over loopback TCP from
// this process's main thread in a closed loop: the next burst is sent only
// after the previous one's replies arrived. Set-up is the time from spawn
// until the server answers a ping, taken as the median of kSetupReps starts.
// Every kReplyCheckEvery-th reply is kept and compared, after the timed
// phase, with a brute-force kNN over the same POI world.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "runner/workloads.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/batch_server.h"
#include "src/core/server.h"
#include "src/rpc/client.h"
#include "src/rpc/loopback.h"
#include "src/rpc/service.h"
#include "src/rpc/tcp.h"
#include "src/rpc/wire.h"
#include "src/rtree/knn.h"
#include "src/storage/page.h"

namespace perfbench {
namespace {

namespace core = senn::core;
namespace rpc = senn::rpc;
using senn::geom::Vec2;

constexpr int kPois = 1000000;
constexpr int kK = 10;
constexpr int kWorkers = 2;
constexpr int kSetupReps = 5;
/// Timed phases are cut into windows of this length; the metrics are
/// medians over the windows. The untimed warm-up is one window.
constexpr double kWindowSeconds = 1.0;
constexpr uint64_t kReplyCheckEvery = 1024;
constexpr uint64_t kSpanSampleEvery = 64;
/// Query points of each in-process layer measurement of the traced run.
constexpr size_t kLayerPoints = 16384;

struct ServeWorkload {
  const char* name;
  bool hotspot;
  /// Requests per pipelined burst (1 = one request outstanding).
  int burst;
  int batch;
  double batch_cell_m;
  /// Buffer-pool frames; 0 = the in-memory tree.
  size_t buffer_pages;
};

constexpr ServeWorkload kServes[] = {
    {"serve_uniform", false, 1, 1, 500.0, 0},
    {"serve_hotspot", true, 32, 16, 200.0, 256},
};

const ServeWorkload* FindServe(const std::string& name) {
  for (const ServeWorkload& w : kServes) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double SideMeters() { return senn::MilesToMeters(30.0); }

// The workload's query points: uniform over the area, or the hotspot
// recipe of bench_ext_server (90 % within +-25 m of 8 seeded centres).
// NextWindow() draws 8 new centres. One fixed set of 8 decides how well the
// hot pages fit the pool, which made throughput differ by a fifth between
// seeds; a new set every window lets the window median average that out.
class QueryStream {
 public:
  QueryStream(const ServeWorkload& w, uint64_t seed)
      : hotspot_(w.hotspot),
        seed_(seed),
        rng_(w.hotspot ? senn::Rng(seed).Stream("bench-server-hot", 0)
                       : senn::Rng(seed).Stream("perfbench/uniform")) {
    DrawCenters();
  }

  void NextWindow() {
    ++window_;
    DrawCenters();
  }

  rpc::KnnRequest Next() {
    rpc::KnnRequest request;
    request.k = kK;
    if (hotspot_ && rng_.Bernoulli(0.9)) {
      const Vec2& c = centers_[rng_.NextIndex(centers_.size())];
      request.q = {c.x + rng_.Uniform(-25.0, 25.0), c.y + rng_.Uniform(-25.0, 25.0)};
    } else {
      request.q = {rng_.Uniform(0, SideMeters()), rng_.Uniform(0, SideMeters())};
    }
    return request;
  }

 private:
  void DrawCenters() {
    if (!hotspot_) return;
    senn::Rng centers = senn::Rng(seed_).Stream("bench-server-hot-centers", window_);
    centers_.clear();
    for (int c = 0; c < 8; ++c) {
      centers_.push_back({centers.Uniform(0, SideMeters()), centers.Uniform(0, SideMeters())});
    }
  }

  bool hotspot_;
  uint64_t seed_;
  uint64_t window_ = 0;
  senn::Rng rng_;
  std::vector<Vec2> centers_;
};

// One senn_served child process. Its stderr carries the listening line and
// the shutdown counters; both are parsed here.
class ServedProcess {
 public:
  ServedProcess() = default;
  ~ServedProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (err_fd_ >= 0) ::close(err_fd_);
  }
  ServedProcess(const ServedProcess&) = delete;
  ServedProcess& operator=(const ServedProcess&) = delete;

  /// Spawns the server and waits until it prints its port.
  bool Start(const std::string& path, const std::vector<std::string>& args,
             std::string* error) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      *error = "pipe2 failed";
      return false;
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(path.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid == 0) {
      // Child: the server dies with the runner, never outlives it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], 2);
      const int null_fd = ::open("/dev/null", O_WRONLY);
      if (null_fd >= 0) ::dup2(null_fd, 1);
      ::execv(path.c_str(), argv.data());
      ::_exit(127);
    }
    pid_ = pid;
    ::close(fds[1]);
    err_fd_ = fds[0];
    const double deadline = Now() + 120.0;
    while (Now() < deadline) {
      const size_t eol = stderr_.find('\n');
      if (eol != std::string::npos) {
        const std::string line = stderr_.substr(0, eol);
        const size_t at = line.find("listening on ");
        if (at != std::string::npos) {
          const size_t colon = line.find(':', at + 13);
          port_ = static_cast<uint16_t>(std::strtoul(line.c_str() + colon + 1, nullptr, 10));
          stderr_.erase(0, eol + 1);
          return port_ != 0;
        }
        stderr_.erase(0, eol + 1);
        continue;
      }
      if (!ReadSome(deadline)) break;
    }
    *error = "senn_served did not report a port: " + stderr_;
    return false;
  }

  /// SIGINT, then collects the shutdown counters, exit status and peak RSS.
  bool Stop(std::string* error) {
    if (pid_ <= 0) {
      *error = "senn_served is not running";
      return false;
    }
    ::kill(pid_, SIGINT);
    const double deadline = Now() + 60.0;
    while (ReadSome(deadline)) {
    }
    int status = 0;
    struct rusage usage {};
    if (::wait4(pid_, &status, 0, &usage) != pid_) {
      *error = "wait4 failed";
      return false;
    }
    pid_ = -1;
    peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    std::istringstream words(stderr_);
    std::string word;
    while (words >> word) {
      const size_t eq = word.find('=');
      if (eq != std::string::npos) {
        counters_[word.substr(0, eq)] = std::strtoull(word.c_str() + eq + 1, nullptr, 10);
      }
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      *error = "senn_served exited abnormally: " + stderr_;
      return false;
    }
    return true;
  }

  uint16_t port() const { return port_; }
  double peak_rss_mb() const { return peak_rss_mb_; }
  uint64_t counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

 private:
  // Appends available stderr bytes; false on EOF or deadline.
  bool ReadSome(double deadline) {
    const double left_ms = (deadline - Now()) * 1000.0;
    if (left_ms <= 0) return false;
    struct pollfd p {err_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left_ms)) <= 0) return false;
    char buf[4096];
    const ssize_t n = ::read(err_fd_, buf, sizeof(buf));
    if (n <= 0) return false;
    stderr_.append(buf, static_cast<size_t>(n));
    return true;
  }

  pid_t pid_ = -1;
  int err_fd_ = -1;
  uint16_t port_ = 0;
  std::string stderr_;
  std::map<std::string, uint64_t> counters_;
  double peak_rss_mb_ = 0.0;
};

std::vector<std::string> ServedArgs(const ServeWorkload& w, uint64_t seed) {
  std::vector<std::string> args = {
      "--port", "0",
      "--pois", std::to_string(kPois),
      "--area-side-m", std::to_string(SideMeters()),
      "--seed", std::to_string(seed),
      "--workers", std::to_string(kWorkers),
      "--batch", std::to_string(w.batch),
      "--batch-cell", std::to_string(w.batch_cell_m),
  };
  if (w.buffer_pages > 0) {
    args.push_back("--buffer-pages");
    args.push_back(std::to_string(w.buffer_pages));
  }
  return args;
}

// A started server with a connected client.
struct Connection {
  ServedProcess process;
  std::unique_ptr<rpc::TcpClientTransport> transport;
  std::unique_ptr<rpc::Client> client;
};

// Spawns senn_served and pings it; returns the set-up time in seconds.
std::optional<double> StartServer(const ServeWorkload& w, const Options& options,
                                  Connection* conn, Result* result) {
  std::string error;
  const double t0 = Now();
  if (!conn->process.Start(options.served, ServedArgs(w, options.seed), &error)) {
    result->Fail(error);
    return std::nullopt;
  }
  auto transport = rpc::TcpClientTransport::Connect("127.0.0.1", conn->process.port());
  if (!transport.ok()) {
    result->Fail("connect: " + std::string(transport.status().message()));
    return std::nullopt;
  }
  conn->transport = std::move(*transport);
  conn->client = std::make_unique<rpc::Client>(conn->transport.get());
  if (!conn->client->Ping().ok()) {
    result->Fail("ping failed");
    return std::nullopt;
  }
  return Now() - t0;
}

// Closes the client and stops the server.
bool StopServer(Connection* conn, Result* result) {
  conn->client.reset();
  conn->transport.reset();
  std::string error;
  if (!conn->process.Stop(&error)) {
    result->Fail(error);
    return false;
  }
  return true;
}

struct Checked {
  Vec2 q;
  std::vector<core::RankedPoi> neighbors;
};

struct LoopStats {
  std::vector<double> latency_us;
  /// Per window: replies per second, and the end of its slice of
  /// latency_us.
  std::vector<double> window_rate;
  std::vector<size_t> window_end;
  uint64_t attempted = 0;
  uint64_t errors = 0;
  double wall_s = 0.0;
  uint64_t pages = 0;
  uint64_t misses = 0;
  std::vector<Checked> checked;
};

// Closed loop of `windows` back-to-back windows of kWindowSeconds, one
// burst of w.burst requests at a time. With `spans`, every
// kSpanSampleEvery-th burst also records a span.
void RunLoop(const ServeWorkload& w, rpc::Client* client, QueryStream* stream, int windows,
             LoopStats* stats, SpanLog* spans, uint64_t parent) {
  std::vector<rpc::KnnRequest> burst(static_cast<size_t>(w.burst));
  std::vector<uint64_t> ids(burst.size());
  const double start = Now();
  uint64_t bursts = 0;
  for (int window = 0; window < windows; ++window) {
    stream->NextWindow();
    const double window_start = Now();
    const size_t first = stats->latency_us.size();
    while (Now() - window_start < kWindowSeconds) {
      for (rpc::KnnRequest& r : burst) r = stream->Next();
      const double t0 = Now();
      uint64_t span = 0;
      if (spans != nullptr && bursts++ % kSpanSampleEvery == 0) {
        span = spans->Begin("rpc burst", parent);
      }
      for (size_t i = 0; i < burst.size(); ++i) ids[i] = client->SendKnn(burst[i]);
      if (!client->Flush().ok()) {
        stats->errors += burst.size();
        stats->attempted += burst.size();
        break;
      }
      for (size_t i = 0; i < burst.size(); ++i) {
        senn::Result<core::ServerReply> reply = client->Wait(ids[i]);
        const double t1 = Now();
        ++stats->attempted;
        if (!reply.ok()) {
          ++stats->errors;
          continue;
        }
        stats->latency_us.push_back((t1 - t0) * 1e6);
        stats->pages += reply->einn_accesses.total();
        stats->misses += reply->einn_accesses.misses();
        if (stats->attempted % kReplyCheckEvery == 0) {
          stats->checked.push_back({burst[i].q, std::move(reply->neighbors)});
        }
      }
      if (span != 0) spans->End(span);
    }
    stats->window_rate.push_back(static_cast<double>(stats->latency_us.size() - first) /
                                 (Now() - window_start));
    stats->window_end.push_back(stats->latency_us.size());
  }
  stats->wall_s = Now() - start;
}

// Compares the kept replies with brute force; returns the mismatches.
uint64_t CheckReplies(const std::vector<Checked>& checked,
                      const std::vector<core::Poi>& pois) {
  uint64_t wrong = 0;
  for (const Checked& c : checked) {
    if (!SameAnswer(c.neighbors, BruteForceKnn(pois, c.q, kK))) ++wrong;
  }
  return wrong;
}

struct LoopSummary {
  double rate = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

// Medians over the windows of the reply rate, p50 and p99. Every window's
// p99 needs kMinTailSamples samples beyond it.
LoopSummary Summarize(const LoopStats& stats, Result* result) {
  std::vector<double> p50;
  std::vector<double> p99;
  size_t begin = 0;
  for (size_t end : stats.window_end) {
    std::vector<double> window(stats.latency_us.begin() + static_cast<std::ptrdiff_t>(begin),
                               stats.latency_us.begin() + static_cast<std::ptrdiff_t>(end));
    std::sort(window.begin(), window.end());
    if (!TailReportable(window.size(), 0.99)) {
      result->Fail("too few latency samples for p99 in a window: " +
                   std::to_string(window.size()));
    }
    p50.push_back(Percentile(window, 0.50));
    p99.push_back(Percentile(window, 0.99));
    begin = end;
  }
  const LoopSummary s{Median(stats.window_rate), Median(p50), Median(p99)};
  std::printf("%zu windows of %.0f s, %zu replies: median rate %.1f/s, p50 %.3f us, "
              "p99 %.3f us (per-window p99 from %.3f to %.3f us)\n",
              stats.window_end.size(), kWindowSeconds, stats.latency_us.size(), s.rate, s.p50,
              s.p99, *std::min_element(p99.begin(), p99.end()),
              *std::max_element(p99.begin(), p99.end()));
  return s;
}

// Starts the server, warms it up untimed, runs the timed loop, stops the
// server and checks the kept replies.
bool ServeOnce(const ServeWorkload& w, const Options& options,
               const std::vector<core::Poi>& pois, Connection* conn, LoopStats* stats,
               SpanLog* spans, Result* result) {
  QueryStream stream(w, options.seed);
  LoopStats warmup;
  RunLoop(w, conn->client.get(), &stream, 1, &warmup, nullptr, 0);
  const uint64_t loop = spans != nullptr ? spans->Begin("timed closed loop") : 0;
  RunLoop(w, conn->client.get(), &stream, std::max(1, static_cast<int>(options.seconds)), stats,
          spans, loop);
  if (spans != nullptr) spans->End(loop);
  if (!StopServer(conn, result)) return false;
  const uint64_t wrong = CheckReplies(stats->checked, pois);
  result->attempted += stats->attempted;
  result->failed += stats->errors + wrong;
  std::printf("%llu requests in %.3f s; %llu error replies; %zu replies checked against "
              "brute force, %llu wrong; server shed %llu, framing errors %llu\n",
              static_cast<unsigned long long>(stats->attempted), stats->wall_s,
              static_cast<unsigned long long>(stats->errors), stats->checked.size(),
              static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(conn->process.counter("shed")),
              static_cast<unsigned long long>(conn->process.counter("framing_errors")));
  if (stats->checked.empty()) result->Fail("no reply was checked");
  if (wrong > 0) result->Fail(std::to_string(wrong) + " replies differ from brute force");
  if (stats->errors > 0) result->Fail(std::to_string(stats->errors) + " error replies");
  return true;
}

Result RunUntraced(const ServeWorkload& w, const Options& options) {
  Result result;
  const std::vector<core::Poi> pois = WorldPois(options.seed, kPois, SideMeters());
  std::vector<double> setup_s;
  std::unique_ptr<Connection> conn;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (conn != nullptr && !StopServer(conn.get(), &result)) return result;
    conn = std::make_unique<Connection>();
    const std::optional<double> s = StartServer(w, options, conn.get(), &result);
    if (!s) return result;
    std::printf("set-up %d: %.4f s\n", rep, *s);
    setup_s.push_back(*s);
  }
  LoopStats stats;
  if (!ServeOnce(w, options, pois, conn.get(), &stats, nullptr, &result)) return result;
  const LoopSummary lat = Summarize(stats, &result);
  result.Add("setup_s", "s", Median(setup_s));
  result.Add("queries_per_s", "1/s", lat.rate);
  result.Add("latency_p50_us", "us", lat.p50);
  result.Add("latency_p99_us", "us", lat.p99);
  result.Add("peak_rss_mb", "MiB", conn->process.peak_rss_mb());
  return result;
}

// The in-process layers under the server, on the workload's own points.
void InProcessLayers(const ServeWorkload& w, const Options& options,
                     const std::vector<core::Poi>& pois, double tcp_p50_us, SpanLog* spans,
                     Result* result) {
  std::optional<senn::storage::BufferPoolOptions> pool;
  if (w.buffer_pages > 0) {
    pool.emplace();
    pool->capacity_pages = w.buffer_pages;
  }
  core::SpatialServer server(pois, core::SpatialServer::DefaultTreeOptions(),
                             senn::rtree::AccessCountMode::kOnExpand, pool);
  QueryStream stream(w, options.seed);
  std::vector<rpc::KnnRequest> requests;
  for (size_t i = 0; i < kLayerPoints; ++i) requests.push_back(stream.Next());
  const size_t n = requests.size();
  auto per = [&](const char* name, double scale) {
    return spans->Total(name) * scale / static_cast<double>(n);
  };

  std::vector<core::ServerReply> replies;
  replies.reserve(n);
  uint64_t id = spans->Begin("core::SpatialServer::QueryKnn");
  for (const rpc::KnnRequest& r : requests) replies.push_back(server.QueryKnn(r.q, r.k));
  spans->End(id);
  result->Add("core.query_knn_us", "us", per("core::SpatialServer::QueryKnn", 1e6));

  size_t found = 0;
  id = spans->Begin("rtree::BestFirstKnn");
  for (const rpc::KnnRequest& r : requests) {
    found += senn::rtree::BestFirstKnn(server.tree(), r.q, r.k).size();
  }
  spans->End(id);
  if (found != n * static_cast<size_t>(kK)) result->Fail("BestFirstKnn returned short lists");
  result->Add("rtree.best_first_knn_us", "us", per("rtree::BestFirstKnn", 1e6));

  // The four codec calls of one k=10 exchange, each frame through a
  // FrameDecoder as the server and the client see it.
  rpc::FrameDecoder server_side;
  rpc::FrameDecoder client_side;
  std::vector<uint8_t> bytes;
  rpc::Frame frame;
  uint64_t decoded = 0;
  id = spans->Begin("rpc codec");
  for (size_t i = 0; i < n; ++i) {
    bytes.clear();
    rpc::EncodeKnnRequest(i + 1, requests[i], &bytes);
    (void)server_side.Feed(bytes.data(), bytes.size());
    if (server_side.Next(&frame)) decoded += rpc::DecodeKnnRequest(frame.payload).ok();
    bytes.clear();
    rpc::EncodeKnnReply(i + 1, replies[i], &bytes);
    (void)client_side.Feed(bytes.data(), bytes.size());
    if (client_side.Next(&frame)) decoded += rpc::DecodeKnnReply(frame.payload).ok();
  }
  spans->End(id);
  if (decoded != 2 * n) result->Fail("codec round trip failed");
  result->Add("rpc.codec_ns_per_request", "ns", per("rpc codec", 1e9));

  // The workload's bursts as dispatch groups, answered in process.
  rpc::ServiceOptions service_options;
  service_options.batch.max_group = w.batch;
  service_options.batch.cluster_cell_m = w.batch_cell_m;
  rpc::QueryService service(&server, service_options);
  const size_t burst = static_cast<size_t>(w.burst);
  std::vector<std::vector<rpc::Frame>> groups;
  for (size_t i = 0; i < n; i += burst) {
    std::vector<uint8_t> wire;
    for (size_t j = i; j < std::min(n, i + burst); ++j) {
      rpc::EncodeKnnRequest(j + 1, requests[j], &wire);
    }
    rpc::FrameDecoder decoder;
    (void)decoder.Feed(wire.data(), wire.size());
    groups.emplace_back();
    while (decoder.Next(&frame)) groups.back().push_back(frame);
  }
  std::vector<uint8_t> out;
  id = spans->Begin("rpc::QueryService::AnswerGroup");
  for (const auto& g : groups) {
    out.clear();
    service.AnswerGroup(g, &out);
  }
  spans->End(id);
  result->Add("rpc.answer_group_us_per_request", "us",
              per("rpc::QueryService::AnswerGroup", 1e6));

  rpc::LoopbackTransport loopback(&service);
  rpc::Client client(&loopback);
  std::vector<double> loop_us;
  std::vector<uint64_t> ids;
  id = spans->Begin("rpc::Client over LoopbackTransport");
  for (size_t i = 0; i < n; i += burst) {
    ids.clear();
    const double t0 = Now();
    for (size_t j = i; j < std::min(n, i + burst); ++j) ids.push_back(client.SendKnn(requests[j]));
    (void)client.Flush();
    for (uint64_t rid : ids) {
      if (!client.Wait(rid).ok()) result->Fail("loopback request failed");
      loop_us.push_back((Now() - t0) * 1e6);
    }
  }
  spans->End(id);
  std::sort(loop_us.begin(), loop_us.end());
  const double loopback_p50 = Percentile(loop_us, 0.50);
  result->Add("rpc.loopback_latency_us", "us", loopback_p50);
  result->Add("rpc.tcp_overhead_us", "us", tcp_p50_us - loopback_p50);

  // BatchServer against per-request QueryKnn over the same bursts and the
  // same (by now warm) pool.
  std::vector<std::vector<core::BatchQuery>> batches;
  for (size_t i = 0; i < n; i += burst) {
    batches.emplace_back();
    for (size_t j = i; j < std::min(n, i + burst); ++j) {
      batches.back().push_back({requests[j].q, requests[j].k, {}, 0});
    }
  }
  id = spans->Begin("sequential QueryKnn");
  for (const auto& b : batches) {
    for (const core::BatchQuery& q : b) server.QueryKnn(q.q, q.k);
  }
  spans->End(id);
  core::BatchOptions batch_options = service_options.batch;
  core::BatchServer batch(&server, batch_options);
  std::vector<size_t> cluster_sizes;
  uint64_t batch_pages = 0;
  id = spans->Begin("core::BatchServer::AnswerBatch");
  for (const auto& b : batches) {
    for (const core::ServerReply& r : batch.AnswerBatch(b, nullptr, nullptr, &cluster_sizes)) {
      batch_pages += r.einn_accesses.total();
    }
  }
  spans->End(id);
  double members = 0.0;
  for (size_t s : cluster_sizes) members += static_cast<double>(s);
  result->Add("core.sequential_us_per_query", "us", per("sequential QueryKnn", 1e6));
  result->Add("core.batch_us_per_query", "us", per("core::BatchServer::AnswerBatch", 1e6));
  result->Add("core.batch_avg_cluster_size", "count",
              cluster_sizes.empty() ? 0.0 : members / static_cast<double>(cluster_sizes.size()));
  result->Add("core.batch_pages_per_query", "pages",
              static_cast<double>(batch_pages) / static_cast<double>(n));
}

Result RunTraced(const ServeWorkload& w, const Options& options, SpanLog* spans) {
  Result result;
  const std::vector<core::Poi> pois = WorldPois(options.seed, kPois, SideMeters());
  LoopStats stats;
  {
    Connection conn;
    const uint64_t setup = spans->Begin("senn_served start");
    const std::optional<double> s = StartServer(w, options, &conn, &result);
    spans->End(setup);
    if (!s) return result;
    if (!ServeOnce(w, options, pois, &conn, &stats, spans, &result)) return result;
    result.Add("traced.setup_s", "s", *s);
    const double groups = static_cast<double>(conn.process.counter("groups"));
    result.Add("rpc.avg_group_size", "count",
               groups > 0 ? static_cast<double>(conn.process.counter("requests")) / groups
                          : 0.0);
    result.Add("rpc.requests_shed", "count",
               static_cast<double>(conn.process.counter("shed")));
    result.Add("rpc.framing_errors", "count",
               static_cast<double>(conn.process.counter("framing_errors")));
  }
  const LoopSummary lat = Summarize(stats, &result);
  const double replies = static_cast<double>(stats.latency_us.size());
  result.Add("traced.queries_per_s", "1/s", lat.rate);
  result.Add("traced.latency_p50_us", "us", lat.p50);
  result.Add("traced.latency_p99_us", "us", lat.p99);
  result.Add("traced.latency_samples", "count", replies);
  result.Add("rtree.pages_per_query", "pages", static_cast<double>(stats.pages) / replies);
  if (w.buffer_pages > 0) {
    result.Add("storage.miss_pages_per_query", "pages",
               static_cast<double>(stats.misses) / replies);
    result.Add("storage.hit_rate", "ratio",
               stats.pages > 0 ? static_cast<double>(stats.pages - stats.misses) /
                                     static_cast<double>(stats.pages)
                               : 0.0);
  }
  InProcessLayers(w, options, pois, lat.p50, spans, &result);
  return result;
}

}  // namespace

bool IsServeWorkload(const std::string& name) { return FindServe(name) != nullptr; }

Result RunServe(const Options& options, SpanLog* spans) {
  const ServeWorkload& w = *FindServe(options.workload);
  return options.trace ? RunTraced(w, options, spans) : RunUntraced(w, options);
}

}  // namespace perfbench
