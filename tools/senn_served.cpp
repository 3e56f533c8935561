// senn_served — the standalone kNN query server (src/rpc/).
//
// Builds the same POI world a simulator with the same --seed/--pois/
// --area-side-m would build (the "world/poi" Rng stream), puts a
// SpatialServer (optionally paged) under an rpc::Server, and serves the
// binary wire protocol until SIGINT/SIGTERM. On shutdown it prints the
// dispatch and engine counters plus the metrics registry JSON.
//
// Drive it with the rpc::Client library, e.g. bench_ext_server against a
// already-running instance, or a quick smoke test:
//
//   ./build/tools/senn_served --port 7707 &
//   (the client side of tests/rpc/tcp_pipeline_test.cpp shows the calls)
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include <poll.h>
#include <unistd.h>

#include "src/common/rng.h"
#include "src/core/server.h"
#include "src/obs/metrics.h"
#include "src/rpc/server.h"
#include "src/sim/params.h"
#include "src/storage/page.h"

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --port N               listen port (default 0 = ephemeral, printed)\n"
      "  --bind ADDR            numeric IPv4 bind address (default 127.0.0.1)\n"
      "  --workers N            event-loop threads (default 2)\n"
      "  --batch N              answer a pipelined burst in shared EINN\n"
      "                         traversals of <= N co-located queries\n"
      "                         (default 1 = verbatim per-query answering)\n"
      "  --batch-cell M         co-location tile side in meters (default 500)\n"
      "  --pois N               POI count (default 10000)\n"
      "  --area-side-m M        world side length in meters (default 10000)\n"
      "  --seed S               world seed (default 1; a simulator with the\n"
      "                         same seed/pois/area sees the same POIs)\n"
      "  --buffer-pages N       paged storage with an N-frame pool (0 =\n"
      "                         unbounded; default: in-memory, no pool)\n"
      "  --replacement lru|clock  pool replacement policy (default lru)\n"
      "  --max-inflight N       admission-control cap on in-flight requests\n"
      "                         (default 4096; 0 disables shedding)\n",
      argv0);
  std::exit(2);
}

// Signal flag: the handler only sets it; the main loop polls.
volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace senn;

  uint16_t port = 0;
  std::string bind = "127.0.0.1";
  int workers = 2;
  int batch = 1;
  double batch_cell = 500.0;
  int pois = 10000;
  double side = 10000.0;
  uint64_t seed = 1;
  bool paged = false;
  storage::BufferPoolOptions pool;
  size_t max_inflight = 4096;

  auto need = [&](int i) {
    if (i + 1 >= argc) Usage(argv[0]);
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--port") {
      port = static_cast<uint16_t>(std::strtoul(need(i++), nullptr, 10));
    } else if (arg == "--bind") {
      bind = need(i++);
    } else if (arg == "--workers") {
      workers = static_cast<int>(std::strtol(need(i++), nullptr, 10));
      if (workers < 1) Usage(argv[0]);
    } else if (arg == "--batch") {
      batch = static_cast<int>(std::strtol(need(i++), nullptr, 10));
      if (batch < 1) Usage(argv[0]);
    } else if (arg == "--batch-cell") {
      batch_cell = std::strtod(need(i++), nullptr);
      if (batch_cell <= 0) Usage(argv[0]);
    } else if (arg == "--pois") {
      pois = static_cast<int>(std::strtol(need(i++), nullptr, 10));
      if (pois < 1) Usage(argv[0]);
    } else if (arg == "--area-side-m") {
      side = std::strtod(need(i++), nullptr);
      if (side <= 0) Usage(argv[0]);
    } else if (arg == "--seed") {
      seed = std::strtoull(need(i++), nullptr, 10);
    } else if (arg == "--buffer-pages") {
      paged = true;
      pool.capacity_pages = std::strtoul(need(i++), nullptr, 10);
    } else if (arg == "--replacement") {
      std::string v = need(i++);
      if (v == "lru") {
        pool.policy = storage::ReplacementPolicy::kLru;
      } else if (v == "clock") {
        pool.policy = storage::ReplacementPolicy::kClock;
      } else {
        Usage(argv[0]);
      }
    } else if (arg == "--max-inflight") {
      max_inflight = std::strtoul(need(i++), nullptr, 10);
    } else {
      Usage(argv[0]);
    }
  }

  // The simulator's world recipe: POIs uniform over the area, from the
  // seed's "world/poi" stream, x drawn before y. They are written straight
  // as tree entries, which the server packs in place.
  Rng rng(seed);
  Rng poi_rng = rng.Stream("world/poi");
  std::vector<rtree::ObjectEntry> entries;
  entries.reserve(static_cast<size_t>(pois));
  for (int i = 0; i < pois; ++i) {
    const double x = poi_rng.Uniform(0, side);
    const double y = poi_rng.Uniform(0, side);
    entries.push_back({{x, y}, i});
  }
  core::SpatialServer spatial(
      std::move(entries), core::SpatialServer::DefaultTreeOptions(),
      rtree::AccessCountMode::kOnExpand,
      paged ? std::optional<storage::BufferPoolOptions>(pool) : std::nullopt);

  obs::MetricsRegistry metrics;
  rpc::ServerOptions options;
  options.bind_address = bind;
  options.port = port;
  options.worker_threads = workers;
  options.service.batch.max_group = batch;
  options.service.batch.cluster_cell_m = batch_cell;
  options.max_inflight_requests = max_inflight;
  rpc::Server server(&spatial, options, &metrics);
  // Installed before the listening line goes out: a client may connect,
  // finish and send SIGINT before this thread runs again, and the default
  // action would kill the process instead of shutting it down cleanly.
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "senn_served: %s\n", st.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "senn_served: listening on %s:%u (%d workers, batch %d)\n",
               bind.c_str(), server.port(), workers, batch);

  while (g_stop == 0) {
    // Idle wait; all work happens on the server's threads.
    ::poll(nullptr, 0, 200);
  }
  server.Stop();

  const rpc::ServerCounters c = server.counters();
  const rpc::ServiceStats s = server.service().stats();
  const core::BatchStats b = server.service().batch_stats();
  std::fprintf(stderr,
               "senn_served: shutting down\n"
               "  connections  accepted=%llu closed=%llu\n"
               "  frames       received=%llu framing_errors=%llu\n"
               "  dispatch     groups=%llu requests=%llu replies=%llu errors=%llu "
               "pings=%llu shed=%llu\n"
               "  engine       clusters=%llu batched_queries=%llu singleton=%llu\n",
               static_cast<unsigned long long>(c.connections_accepted),
               static_cast<unsigned long long>(c.connections_closed),
               static_cast<unsigned long long>(c.frames_received),
               static_cast<unsigned long long>(c.framing_errors),
               static_cast<unsigned long long>(s.groups),
               static_cast<unsigned long long>(s.requests),
               static_cast<unsigned long long>(s.replies),
               static_cast<unsigned long long>(s.errors),
               static_cast<unsigned long long>(s.pings),
               static_cast<unsigned long long>(c.requests_shed),
               static_cast<unsigned long long>(b.clusters),
               static_cast<unsigned long long>(b.batched_queries),
               static_cast<unsigned long long>(b.singleton_queries));
  std::printf("%s\n", metrics.ToJson().c_str());
  return 0;
}
