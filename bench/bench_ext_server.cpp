// Extension bench: the standalone rpc server (src/rpc/server.h).
//
// bench_ext_batch measures what shared EINN traversals save when the batch
// is handed to the engine directly; this bench measures the same effect at
// the other end of the wire. An in-process rpc::Server answers a hotspot
// query stream over real loopback TCP while the sweep varies the three
// knobs a deployment would tune:
//   * connections     — concurrent pipelined clients (one thread each);
//   * pipeline depth  — requests per burst before the client waits;
//   * batch cap       — the service's max_group (1 = verbatim sequential
//     QueryKnn); swept internally, not a flag.
//
// Each sweep point gets a freshly built server over the same POI world with
// a cold 64-frame LRU pool, so page counts are comparable down a column.
// Replies carry the engine's access counters on the wire, so pages/query is
// summed client-side from decoded replies — the bench doubles as an
// end-to-end check that accounting survives the codec. The claim under
// test: with deep pipelines on a hotspot workload, pages/query falls as the
// batch cap grows (bursts arrive as dispatch groups; co-located group
// members share one traversal). Emitted machine-readable as
// BENCH_server.json.
//
// Wall-clock timing is inherent here (real sockets, real threads); this
// file is a bench, outside the senn_lint determinism scope, and none of the
// timed numbers feed a simulation result.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/core/server.h"
#include "src/rpc/client.h"
#include "src/rpc/server.h"
#include "src/rpc/tcp.h"
#include "src/storage/page.h"

namespace {

using namespace senn;

struct PointResult {
  int connections = 0;
  int depth = 0;
  int max_group = 0;
  uint64_t queries = 0;
  double throughput_qps = 0.0;
  double mean_burst_latency_us = 0.0;
  double pages_per_query = 0.0;
  double misses_per_query = 0.0;
  double avg_group_size = 0.0;
};

struct ClientTally {
  uint64_t queries = 0;
  uint64_t logical_pages = 0;
  uint64_t misses = 0;
  double busy_us = 0.0;  // sum of burst latencies
  uint64_t bursts = 0;
  bool failed = false;
};

std::vector<core::Poi> BuildPois(uint64_t seed, int n, double side) {
  Rng rng = Rng(seed).Stream("bench-server-pois");
  std::vector<core::Poi> pois;
  pois.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    pois.push_back({i, {rng.Uniform(0, side), rng.Uniform(0, side)}});
  }
  return pois;
}

// Hotspot stream: the co-location regime batching exists for (same recipe
// as bench_ext_batch so the two benches describe the same workload).
std::vector<rpc::KnnRequest> BuildQueries(uint64_t seed, uint64_t client, int n,
                                          double side, int k) {
  Rng centers_rng = Rng(seed).Stream("bench-server-hot-centers");
  std::vector<geom::Vec2> centers;
  for (int c = 0; c < 8; ++c) {
    centers.push_back({centers_rng.Uniform(0, side), centers_rng.Uniform(0, side)});
  }
  Rng rng = Rng(seed).Stream("bench-server-hot", client);
  std::vector<rpc::KnnRequest> queries;
  queries.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    rpc::KnnRequest request;
    if (rng.Bernoulli(0.9)) {
      const geom::Vec2& c = centers[rng.NextIndex(centers.size())];
      request.q = {c.x + rng.Uniform(-25.0, 25.0), c.y + rng.Uniform(-25.0, 25.0)};
    } else {
      request.q = {rng.Uniform(0, side), rng.Uniform(0, side)};
    }
    request.k = k;
    queries.push_back(request);
  }
  return queries;
}

// One client thread: answers its query list in pipelined bursts of `depth`.
void RunClient(const rpc::Server& server, const std::vector<rpc::KnnRequest>& queries,
               int depth, ClientTally* tally) {
  auto transport = rpc::TcpClientTransport::Connect("127.0.0.1", server.port());
  if (!transport.ok()) {
    tally->failed = true;
    return;
  }
  rpc::Client client(transport->get());
  size_t next = 0;
  while (next < queries.size()) {
    const size_t burst = std::min<size_t>(static_cast<size_t>(depth),
                                          queries.size() - next);
    std::vector<uint64_t> ids;
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < burst; ++i) ids.push_back(client.SendKnn(queries[next + i]));
    if (!client.Flush().ok()) {
      tally->failed = true;
      return;
    }
    for (uint64_t id : ids) {
      Result<core::ServerReply> reply = client.Wait(id);
      if (!reply.ok()) {
        tally->failed = true;
        return;
      }
      tally->logical_pages += reply->einn_accesses.total();
      tally->misses += reply->einn_accesses.misses();
      ++tally->queries;
    }
    const auto t1 = std::chrono::steady_clock::now();
    tally->busy_us +=
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(t1 - t0)
            .count();
    ++tally->bursts;
    next += burst;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintRunBanner("Extension: rpc server throughput/latency", args);

  const double side = 30000.0;  // meters
  const int poi_count = args.full ? 100000 : 20000;
  const int queries_per_point = args.full ? 8192 : 1024;
  const int k = 10;
  const std::vector<int> connection_counts = args.full
                                                 ? std::vector<int>{1, 2, 4, 8}
                                                 : std::vector<int>{1, 4};
  const std::vector<int> depths =
      args.full ? std::vector<int>{1, 8, 32} : std::vector<int>{1, 16};
  const std::vector<int> batch_caps =
      args.full ? std::vector<int>{1, 2, 4, 8, 16, 32} : std::vector<int>{1, 4, 16};

  std::vector<core::Poi> pois = BuildPois(args.seed, poi_count, side);

  std::printf("%d POIs, %d queries/point, k=%d, hotspot stream, "
              "64-frame LRU pool, cold per point\n\n",
              poi_count, queries_per_point, k);
  std::printf("%5s %6s %5s %12s %14s %10s %10s %9s\n", "conns", "depth", "cap",
              "qps", "burst-lat us", "pages/q", "misses/q", "avg group");
  std::printf("csv,connections,depth,max_group,throughput_qps,"
              "mean_burst_latency_us,pages_per_query,misses_per_query,"
              "avg_group_size\n");

  std::vector<PointResult> sweep;
  for (int conns : connection_counts) {
    for (int depth : depths) {
      for (int cap : batch_caps) {
        // Fresh server per point: same tree (same build), cold pool.
        storage::BufferPoolOptions pool;
        pool.capacity_pages = 64;
        core::SpatialServer engine(pois, core::SpatialServer::DefaultTreeOptions(),
                                   rtree::AccessCountMode::kOnExpand, pool);
        rpc::ServerOptions options;
        options.worker_threads = 2;
        options.service.batch.max_group = cap;
        options.service.batch.cluster_cell_m = 200.0;
        rpc::Server server(&engine, options);
        Status started = server.Start();
        if (!started.ok()) {
          std::fprintf(stderr, "server start failed: %s\n",
                       std::string(started.message()).c_str());
          return 1;
        }

        const int per_client = queries_per_point / conns;
        std::vector<ClientTally> tallies(static_cast<size_t>(conns));
        std::vector<std::thread> threads;
        const auto wall0 = std::chrono::steady_clock::now();
        for (int c = 0; c < conns; ++c) {
          threads.emplace_back([&, c] {
            const std::vector<rpc::KnnRequest> queries = BuildQueries(
                args.seed, static_cast<uint64_t>(c), per_client, side, k);
            RunClient(server, queries, depth, &tallies[static_cast<size_t>(c)]);
          });
        }
        for (std::thread& t : threads) t.join();
        const auto wall1 = std::chrono::steady_clock::now();
        const core::BatchStats batch = server.service().batch_stats();
        const rpc::ServerCounters counters = server.counters();
        server.Stop();

        PointResult p;
        p.connections = conns;
        p.depth = depth;
        p.max_group = cap;
        for (const ClientTally& t : tallies) {
          if (t.failed) {
            std::fprintf(stderr, "client thread failed mid-sweep\n");
            return 1;
          }
          p.queries += t.queries;
          p.pages_per_query += static_cast<double>(t.logical_pages);
          p.misses_per_query += static_cast<double>(t.misses);
          p.mean_burst_latency_us += t.busy_us;
        }
        const double wall_s =
            std::chrono::duration_cast<std::chrono::duration<double>>(wall1 - wall0)
                .count();
        uint64_t bursts = 0;
        for (const ClientTally& t : tallies) bursts += t.bursts;
        p.throughput_qps = static_cast<double>(p.queries) / wall_s;
        p.mean_burst_latency_us /= static_cast<double>(bursts);
        p.pages_per_query /= static_cast<double>(p.queries);
        p.misses_per_query /= static_cast<double>(p.queries);
        p.avg_group_size = counters.groups_dispatched == 0
                               ? 0.0
                               : static_cast<double>(batch.queries) /
                                     static_cast<double>(counters.groups_dispatched);
        sweep.push_back(p);

        std::printf("%5d %6d %5d %12.0f %14.1f %10.3f %10.3f %9.2f\n", conns, depth,
                    cap, p.throughput_qps, p.mean_burst_latency_us, p.pages_per_query,
                    p.misses_per_query, p.avg_group_size);
        std::printf("csv,%d,%d,%d,%.1f,%.2f,%.4f,%.4f,%.3f\n", conns, depth, cap,
                    p.throughput_qps, p.mean_burst_latency_us, p.pages_per_query,
                    p.misses_per_query, p.avg_group_size);
      }
    }
  }

  // The claim the sweep exists to demonstrate: with the deepest pipeline,
  // growing the batch cap from 1 (no sharing) to the maximum cuts the
  // per-query page cost — the wire path preserves what bench_ext_batch
  // measures engine-side. Compared endpoint to endpoint (not per step):
  // group composition depends on socket read boundaries, so intermediate
  // caps may jitter, but the no-sharing/full-sharing gap must survive.
  bool pages_drop = true;
  for (int conns : connection_counts) {
    const int deepest = depths.back();
    double at_cap1 = -1.0, at_max = -1.0;
    for (const PointResult& p : sweep) {
      if (p.connections != conns || p.depth != deepest) continue;
      if (p.max_group == batch_caps.front()) at_cap1 = p.pages_per_query;
      if (p.max_group == batch_caps.back()) at_max = p.pages_per_query;
    }
    if (!(at_max < at_cap1)) pages_drop = false;
  }
  std::printf("\nhotspot pages/query drops from cap %d to cap %d at depth %d: %s\n",
              batch_caps.front(), batch_caps.back(), depths.back(),
              pages_drop ? "yes" : "NO — sharing regressed over the wire");

  const char* json_path = "BENCH_server.json";
  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(f,
               "{\"seed\":%llu,\"mode\":\"%s\",\"pois\":%d,\"queries_per_point\":%d,"
               "\"k\":%d,\"hotspot_pages_drop\":%s,\"sweep\":[",
               static_cast<unsigned long long>(args.seed), args.full ? "full" : "quick",
               poi_count, queries_per_point, k, pages_drop ? "true" : "false");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const PointResult& p = sweep[i];
    std::fprintf(f,
                 "%s{\"connections\":%d,\"depth\":%d,\"max_group\":%d,"
                 "\"queries\":%llu,\"throughput_qps\":%.1f,"
                 "\"mean_burst_latency_us\":%.2f,\"pages_per_query\":%.4f,"
                 "\"misses_per_query\":%.4f,\"avg_group_size\":%.3f}",
                 i > 0 ? "," : "", p.connections, p.depth, p.max_group,
                 static_cast<unsigned long long>(p.queries), p.throughput_qps,
                 p.mean_burst_latency_us, p.pages_per_query, p.misses_per_query,
                 p.avg_group_size);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("json: %s\n", json_path);
  return pages_drop ? 0 : 1;
}
