// The simulator's layers, measured in serve_uniform's traced run.
//
// The world is Table 4 Los Angeles at 1/2 linear scale with free movement
// and 5x the paper's query rate, where the peer-sharing path does most of
// the work. Its constructor, Run(), a query-rate-0 Run() (mobility alone)
// and replays of SENN's client-side stages over the end-of-run world are
// timed from here; the replayed answers are checked against brute force.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "runner/workloads.h"
#include "src/core/senn.h"
#include "src/core/server.h"
#include "src/geom/circle.h"
#include "src/geom/disk_cover.h"
#include "src/roadnet/generator.h"
#include "src/roadnet/shortest_path.h"
#include "src/sim/neighbor_grid.h"
#include "src/sim/simulator.h"

namespace perfbench {
namespace {

using senn::geom::Vec2;
namespace core = senn::core;
namespace sim = senn::sim;

struct SimWorkload {
  /// Linear scale-down of Table 4 Los Angeles (area, hosts, POIs and the
  /// query rate shrink by scale^2; densities stay the paper's).
  double scale;
  sim::MovementMode mode;
  /// Multiplier on the (scaled) paper query rate.
  double rate_multiplier;
  double duration_s;
};

constexpr SimWorkload kRush = {2.0, sim::MovementMode::kFreeMovement, 5.0, 600.0};

// kRush moves freely and never routes, so the roadnet layer is measured on
// the road world of the paper's main setting: Table 4 Los Angeles at 1/3
// linear scale.
constexpr SimWorkload kRoadWorld = {3.0, sim::MovementMode::kRoadNetwork, 1.0, 0.0};

// Same density-preserving scale-down as `senn_sim --area 30x30 --scale S`.
sim::SimulationConfig MakeConfig(const SimWorkload& w, uint64_t seed) {
  sim::SimulationConfig cfg;
  cfg.params = sim::Table4(sim::Region::kLosAngeles);
  const double area_factor = w.scale * w.scale;
  cfg.params.area_side_miles /= w.scale;
  cfg.params.poi_number =
      std::max(1, static_cast<int>(cfg.params.poi_number / area_factor + 0.5));
  cfg.params.mh_number =
      std::max(1, static_cast<int>(cfg.params.mh_number / area_factor + 0.5));
  cfg.params.queries_per_minute =
      cfg.params.queries_per_minute / area_factor * w.rate_multiplier;
  cfg.mode = w.mode;
  cfg.seed = seed;
  cfg.duration_s = w.duration_s;
  return cfg;
}

// A replayed query: a point and the caches of the hosts within Tx_Range of
// it at the end of a run, in grid scan order, as the simulator harvests
// them over an ideal channel.
struct PeerView {
  Vec2 q;
  std::vector<const core::CachedResult*> caches;
};

// kReplayPoints query points drawn uniformly over the area from the seed.
// Host positions would weight the densest spots by their host count, whose
// share varies from seed to seed.
std::vector<PeerView> ReplayViews(const sim::Simulator& world,
                                  const sim::SimulationConfig& cfg) {
  constexpr int kReplayPoints = 32768;
  const auto& hosts = world.hosts();
  const double side = cfg.params.AreaSideMeters();
  const double tx = cfg.params.tx_range_m;
  sim::NeighborGrid grid(side, std::max(tx, 50.0));
  for (const auto& h : hosts) grid.Insert(h->id(), h->position());
  senn::Rng rng = senn::Rng(cfg.seed).Stream("perfbench/replay");
  std::vector<PeerView> views(kReplayPoints);
  std::vector<int32_t> ids;
  for (PeerView& view : views) {
    view.q = {rng.Uniform(0, side), rng.Uniform(0, side)};
    ids.clear();
    grid.QueryRadius(view.q, tx, &ids);
    for (int32_t id : ids) {
      const core::CachedResult* cached = hosts[static_cast<size_t>(id)]->cache().Get();
      if (cached != nullptr && !cached->Empty()) view.caches.push_back(cached);
    }
  }
  return views;
}

// Checks SennProcessor::Execute's answers on the views against brute force,
// then times Prepare (the client-side SENN stages) and the multi-peer disk
// cover tests it makes on the same views.
void ReplayLayers(const sim::Simulator& world, const sim::SimulationConfig& cfg,
                  const std::vector<PeerView>& views, SpanLog* spans, Result* result) {
  // A fresh server with the simulator's tree and accounting options, so the
  // replay leaves the world's own server untouched; the request size is the
  // cache size, as the simulator sets it.
  core::SpatialServer server(world.pois(), core::SpatialServer::DefaultTreeOptions(),
                             cfg.page_count_mode);
  core::SennOptions options = cfg.senn;
  options.server_request_k = cfg.params.cache_size;
  core::SennProcessor senn(&server, options);
  const int k = cfg.params.k_nn;
  uint64_t wrong = 0;
  for (const PeerView& v : views) {
    ++result->attempted;
    if (!SameAnswer(senn.Execute(v.q, k, v.caches).neighbors,
                    BruteForceKnn(world.pois(), v.q, k))) {
      ++wrong;
    }
  }
  result->failed += wrong;
  if (wrong > 0) {
    result->Fail(std::to_string(wrong) + " replayed SENN answers differ from brute force");
  }

  const uint64_t prepare = spans->Begin("core::SennProcessor::Prepare");
  for (const PeerView& v : views) {
    core::PendingSenn pending = senn.Prepare(v.q, k, v.caches);
    (void)pending;
  }
  spans->End(prepare);
  result->Add("core.senn_prepare_us", "us",
              spans->Total("core::SennProcessor::Prepare") * 1e6 /
                  static_cast<double>(std::max<size_t>(views.size(), 1)));

  // The cover tests of kNN_multiple: the certain region is the union of
  // the peers' known disks; each candidate's disk is tested in ascending
  // distance until the first failure (multi_peer.cc's loop).
  std::vector<std::vector<senn::geom::Circle>> regions(views.size());
  std::vector<std::vector<double>> radii(views.size());
  for (size_t i = 0; i < views.size(); ++i) {
    for (const core::CachedResult* c : views[i].caches) {
      regions[i].emplace_back(c->query_location, c->Radius());
      for (const core::RankedPoi& n : c->neighbors) {
        radii[i].push_back(senn::geom::Dist(views[i].q, n.position));
      }
    }
    std::sort(radii[i].begin(), radii[i].end());
  }
  uint64_t calls = 0;
  const uint64_t cover = spans->Begin("geom::DiskCoveredByUnion");
  for (size_t i = 0; i < views.size(); ++i) {
    if (regions[i].empty()) continue;
    for (double r : radii[i]) {
      ++calls;
      if (!senn::geom::DiskCoveredByUnion(senn::geom::Circle(views[i].q, r), regions[i])) break;
    }
  }
  spans->End(cover);
  result->Add("geom.disk_cover_us", "us",
              calls == 0 ? 0.0
                         : spans->Total("geom::DiskCoveredByUnion") * 1e6 /
                               static_cast<double>(calls));
}

// kRoadWorld's road network, regenerated with the simulator's recipe
// (simulator.cc, BuildWorld) and timed, then routed on seeded node pairs.
// A one-host world of the same config must build the same graph.
void RoadLayers(uint64_t seed, SpanLog* spans, Result* result) {
  sim::SimulationConfig cfg = MakeConfig(kRoadWorld, seed);
  cfg.params.mh_number = 1;
  cfg.warm_start = false;
  const sim::Simulator world(cfg);
  const double side = cfg.params.AreaSideMeters();
  senn::roadnet::RoadNetworkConfig road;
  road.area_side_m = side;
  road.block_spacing_m = side <= 10000.0 ? 200.0 : 400.0;
  road.diagonal_highways = side <= 10000.0 ? 1 : 4;
  senn::Rng road_rng = senn::Rng(seed).Stream("world/road");
  const uint64_t gen = spans->Begin("roadnet::GenerateRoadNetwork");
  senn::roadnet::Graph graph = senn::roadnet::GenerateRoadNetwork(road, &road_rng);
  spans->End(gen);
  if (world.graph() == nullptr || graph.node_count() != world.graph()->node_count() ||
      graph.edge_count() != world.graph()->edge_count()) {
    result->Fail("regenerated road network differs from the simulator's");
  }
  result->Add("roadnet.generate_s", "s", spans->Total("roadnet::GenerateRoadNetwork"));

  senn::roadnet::Router router(&graph);
  senn::Rng pair_rng = senn::Rng(seed).Stream("perfbench/paths");
  constexpr int kPairs = 400;
  const uint64_t paths = spans->Begin("roadnet::Router::FindPath");
  for (int i = 0; i < kPairs; ++i) {
    const auto src = static_cast<senn::roadnet::NodeId>(pair_rng.NextIndex(graph.node_count()));
    const auto dst = static_cast<senn::roadnet::NodeId>(pair_rng.NextIndex(graph.node_count()));
    router.FindPath(src, dst);
  }
  spans->End(paths);
  result->Add("roadnet.find_path_us", "us",
              spans->Total("roadnet::Router::FindPath") * 1e6 / kPairs);
}

}  // namespace

void MeasureSimLayers(uint64_t seed, SpanLog* spans, Result* result) {
  const sim::SimulationConfig cfg = MakeConfig(kRush, seed);
  sim::SimulationConfig cold = cfg;
  cold.warm_start = false;
  {
    const uint64_t id = spans->Begin("sim::Simulator(warm_start=false)");
    sim::Simulator world(cold);
    spans->End(id);
  }
  const double world_build_s = spans->Total("sim::Simulator(warm_start=false)");

  const uint64_t ctor = spans->Begin("sim::Simulator");
  sim::Simulator world(cfg);
  const double setup_s = spans->End(ctor);
  const uint64_t run = spans->Begin("sim::Simulator::Run");
  const sim::SimulationResult r = world.Run();
  const double run_s = spans->End(run);

  // Mobility alone: the same world at query rate 0 (host Advance plus
  // NeighborGrid::Move every step). Caches are irrelevant, so no warm start.
  sim::SimulationConfig still = cold;
  still.params.queries_per_minute = 0.0;
  double mobility_s = 0.0;
  {
    sim::Simulator idle(still);
    const uint64_t id = spans->Begin("mobility (Run at query rate 0)");
    idle.Run();
    mobility_s = spans->End(id);
  }
  const double host_steps = static_cast<double>(cfg.params.mh_number) *
                            (cfg.duration_s / std::max(cfg.time_step_s, 1e-3));

  ReplayLayers(world, cfg, ReplayViews(world, cfg), spans, result);
  RoadLayers(seed, spans, result);

  std::printf("simulator: set-up %.4f s, Run() %.4f s, %llu measured queries, "
              "%.2f %% to the server\n",
              setup_s, run_s, static_cast<unsigned long long>(r.measured_queries),
              r.pct_server);
  result->Add("sim.world_build_s", "s", world_build_s);
  result->Add("sim.warm_start_s", "s", std::max(0.0, setup_s - world_build_s));
  result->Add("sim.queries_per_s", "1/s", static_cast<double>(r.measured_queries) / run_s);
  result->Add("mobility.run_s", "s", mobility_s);
  result->Add("mobility.ns_per_host_step", "ns", mobility_s * 1e9 / host_steps);
  result->Add("sim.query_path_s", "s", run_s - mobility_s);
  result->Add("sim.sqrr_pct", "%", r.pct_server);
  result->Add("sim.peers_in_range", "count", r.peers_in_range.mean());
  result->Add("net.p2p_messages_per_query", "count", r.p2p_messages_per_query.mean());
  result->Add("rtree.einn_pages_per_server_query", "pages", r.einn_pages.mean());
  result->Add("rtree.inn_pages_per_server_query", "pages", r.inn_pages.mean());
}

}  // namespace perfbench
