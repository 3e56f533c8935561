// senn_sim — command-line front end for the simulation engine.
//
// Runs one simulation with any parameter overridden from the shell and
// prints the aggregate metrics (plus an optional per-query CSV trace), so
// experiments beyond the canned benches need no C++:
//
//   senn_sim --region la --area 2x2 --mode road --tx 150 --duration 1800
//   senn_sim --region riverside --area 30x30 --scale 5 --k 7 --trace /tmp/q.csv
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/core/snnn.h"
#include "src/obs/chrome_trace.h"
#include "src/roadnet/ch.h"
#include "src/roadnet/locate.h"
#include "src/sim/report.h"
#include "src/sim/simulator.h"
#include "src/sim/sweep.h"
#include "src/sim/trace.h"

namespace {

using namespace senn;

[[noreturn]] void Usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --region la|suburbia|riverside   parameter set (default la)\n"
      "  --area 2x2|30x30                 Table 3 or Table 4 scale (default 2x2)\n"
      "  --mode road|free                 movement mode (default road)\n"
      "  --scale S                        linear density-preserving scale-down (default 1)\n"
      "  --duration S                     simulated seconds (default: the set's T_execution)\n"
      "  --tx METERS                      transmission range override\n"
      "  --cache N                        cache capacity override (at most 32766)\n"
      "  --speed MPH                      M_Velocity override\n"
      "  --k N                            lambda_kNN override (at most 32766)\n"
      "  --seed N                         master seed (default 1)\n"
      "  --step S                         movement time step seconds (default 1)\n"
      "  --stationary-fraction            M_Percentage as population split (default: duty cycle)\n"
      "  --no-multi-peer                  disable kNN_multiple (ablation)\n"
      "  --ship-region                    region-aware server protocol (extension)\n"
      "  --loss P                         per-transmission loss probability (default 0)\n"
      "  --latency-mean S                 mean one-way link latency seconds (default 0)\n"
      "  --reply-timeout S                reply collection deadline seconds (default 0.25)\n"
      "  --retries N                      rebroadcasts after silent rounds (default 2)\n"
      "  --buffer-pages N|unbounded       answer through the paged storage engine with an\n"
      "                                   N-frame buffer pool (unbounded = every page resident)\n"
      "  --replacement lru|clock          buffer-pool replacement policy (default lru)\n"
      "  --continuous                     continuous-query mode: every host advances one\n"
      "                                   long-lived kNN query (core/continuous.h) instead\n"
      "                                   of issuing independent snapshot queries; needs\n"
      "                                   no --trace/--trace-out (steps are not span-traced)\n"
      "  --safe-region off|disk|insq      validity-region construction continuous queries\n"
      "                                   maintain (default off; see core/safe_region.h)\n"
      "  --shards N                       run N decorrelated seed shards and merge\n"
      "  --threads N                      sweep-engine workers for the shards\n"
      "                                   (default 1; 0 = all cores)\n"
      "  --snnn N                         after the run, answer N network-NN (SNNN)\n"
      "                                   queries over shard 0's world and report the\n"
      "                                   oracle cost (road mode only)\n"
      "  --distance-oracle dijkstra|ch    SNNN network-distance backend: fresh Dijkstra\n"
      "                                   per candidate (default) or the contraction-\n"
      "                                   hierarchy bucket oracle — identical answers,\n"
      "                                   different cost\n"
      "  --json                           also print the metrics as one JSON line\n"
      "  --trace FILE                     write a per-query CSV trace (shard 0 only)\n"
      "  --trace-out FILE                 write a Chrome trace_event JSON of per-query\n"
      "                                   phase spans (shard 0 only; open in Perfetto)\n"
      "  --trace-sample N                 trace every N-th query only (default 1)\n",
      argv0);
  std::exit(2);
}

double ScaledDown(double value, double area_factor) { return value / area_factor; }

}  // namespace

int main(int argc, char** argv) {
  sim::Region region = sim::Region::kLosAngeles;
  bool big_area = false;
  sim::SimulationConfig cfg;
  double scale = 1.0;
  std::string trace_path;
  std::string trace_out_path;
  uint64_t trace_sample = 1;
  double tx = -1, cache = -1, speed = -1, k = -1;
  int shards = 1, threads = 1;
  bool print_json = false;
  int snnn_queries = 0;
  bool snnn_use_ch = false;

  auto need = [&](int i) {
    if (i + 1 >= argc) Usage(argv[0]);
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--region") {
      std::string v = need(i++);
      if (v == "la") {
        region = sim::Region::kLosAngeles;
      } else if (v == "suburbia") {
        region = sim::Region::kSyntheticSuburbia;
      } else if (v == "riverside") {
        region = sim::Region::kRiverside;
      } else {
        Usage(argv[0]);
      }
    } else if (arg == "--area") {
      std::string v = need(i++);
      big_area = v == "30x30";
      if (!big_area && v != "2x2") Usage(argv[0]);
    } else if (arg == "--mode") {
      std::string v = need(i++);
      cfg.mode = v == "free" ? sim::MovementMode::kFreeMovement
                             : sim::MovementMode::kRoadNetwork;
      if (v != "free" && v != "road") Usage(argv[0]);
    } else if (arg == "--scale") {
      scale = std::strtod(need(i++), nullptr);
    } else if (arg == "--duration") {
      cfg.duration_s = std::strtod(need(i++), nullptr);
    } else if (arg == "--tx") {
      tx = std::strtod(need(i++), nullptr);
    } else if (arg == "--cache") {
      cache = std::strtod(need(i++), nullptr);
    } else if (arg == "--speed") {
      speed = std::strtod(need(i++), nullptr);
    } else if (arg == "--k") {
      k = std::strtod(need(i++), nullptr);
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(need(i++), nullptr, 10);
    } else if (arg == "--step") {
      cfg.time_step_s = std::strtod(need(i++), nullptr);
    } else if (arg == "--stationary-fraction") {
      cfg.m_percentage_mode = sim::MPercentageMode::kStationaryFraction;
    } else if (arg == "--no-multi-peer") {
      cfg.senn.enable_multi_peer = false;
    } else if (arg == "--ship-region") {
      cfg.senn.ship_region = true;
    } else if (arg == "--loss") {
      cfg.channel.loss = std::strtod(need(i++), nullptr);
      if (cfg.channel.loss < 0.0 || cfg.channel.loss > 1.0) Usage(argv[0]);
    } else if (arg == "--latency-mean") {
      cfg.channel.latency_mean_s = std::strtod(need(i++), nullptr);
      if (cfg.channel.latency_mean_s < 0.0) Usage(argv[0]);
    } else if (arg == "--reply-timeout") {
      cfg.channel.reply_timeout_s = std::strtod(need(i++), nullptr);
      if (cfg.channel.reply_timeout_s < 0.0) Usage(argv[0]);
    } else if (arg == "--retries") {
      cfg.channel.max_retries = static_cast<int>(std::strtol(need(i++), nullptr, 10));
      if (cfg.channel.max_retries < 0) Usage(argv[0]);
    } else if (arg == "--buffer-pages") {
      std::string v = need(i++);
      cfg.paged_storage = true;
      if (v == "unbounded") {
        cfg.buffer.capacity_pages = 0;
      } else {
        long pages = std::strtol(v.c_str(), nullptr, 10);
        if (pages < 1) Usage(argv[0]);
        cfg.buffer.capacity_pages = static_cast<size_t>(pages);
      }
    } else if (arg == "--replacement") {
      std::string v = need(i++);
      if (v == "lru") {
        cfg.buffer.policy = storage::ReplacementPolicy::kLru;
      } else if (v == "clock") {
        cfg.buffer.policy = storage::ReplacementPolicy::kClock;
      } else {
        Usage(argv[0]);
      }
    } else if (arg == "--continuous") {
      cfg.continuous = true;
    } else if (arg == "--safe-region") {
      std::string v = need(i++);
      if (v == "off") {
        cfg.safe_region = core::SafeRegionMode::kOff;
      } else if (v == "disk") {
        cfg.safe_region = core::SafeRegionMode::kDisk;
      } else if (v == "insq") {
        cfg.safe_region = core::SafeRegionMode::kInsq;
      } else {
        Usage(argv[0]);
      }
    } else if (arg == "--shards") {
      shards = static_cast<int>(std::strtol(need(i++), nullptr, 10));
      if (shards < 1) Usage(argv[0]);
    } else if (arg == "--threads") {
      threads = static_cast<int>(std::strtol(need(i++), nullptr, 10));
    } else if (arg == "--snnn") {
      snnn_queries = static_cast<int>(std::strtol(need(i++), nullptr, 10));
      if (snnn_queries < 1) Usage(argv[0]);
    } else if (arg == "--distance-oracle") {
      std::string v = need(i++);
      if (v == "dijkstra") {
        snnn_use_ch = false;
      } else if (v == "ch") {
        snnn_use_ch = true;
      } else {
        Usage(argv[0]);
      }
    } else if (arg == "--json") {
      print_json = true;
    } else if (arg == "--trace") {
      trace_path = need(i++);
    } else if (arg == "--trace-out") {
      trace_out_path = need(i++);
    } else if (arg == "--trace-sample") {
      trace_sample = std::strtoull(need(i++), nullptr, 10);
      if (trace_sample < 1) Usage(argv[0]);
    } else {
      Usage(argv[0]);
    }
  }

  cfg.params = big_area ? sim::Table4(region) : sim::Table3(region);
  if (scale > 1.0) {
    double area_factor = scale * scale;
    cfg.params.area_side_miles /= scale;
    cfg.params.poi_number =
        std::max(1, static_cast<int>(ScaledDown(cfg.params.poi_number, area_factor) + 0.5));
    cfg.params.mh_number =
        std::max(1, static_cast<int>(ScaledDown(cfg.params.mh_number, area_factor) + 0.5));
    cfg.params.queries_per_minute = ScaledDown(cfg.params.queries_per_minute, area_factor);
  }
  if (tx > 0) cfg.params.tx_range_m = tx;
  if (cache > 0) cfg.params.cache_size = static_cast<int>(cache);
  if (speed > 0) cfg.params.velocity_mph = speed;
  if (k > 0) {
    cfg.params.k_nn = static_cast<int>(k);
    cfg.params.cache_size = std::max(cfg.params.cache_size, cfg.params.k_nn);
  }
  if (Status limits = sim::ValidateServerLimits(cfg); !limits.ok()) {
    std::fprintf(stderr, "%s\n", limits.message().c_str());
    return 2;
  }
  if (cfg.continuous && (!trace_path.empty() || !trace_out_path.empty())) {
    // Continuous steps are not span-traced; reject the conflict up front.
    std::fprintf(stderr, "--continuous steps are not traced; drop --trace/--trace-out\n");
    return 2;
  }

  sim::PrintParameterSet(cfg.params);
  std::printf("  %-22s %10s\n", "Movement mode", sim::MovementModeName(cfg.mode));
  std::printf("  %-22s %10llu\n", "Seed",
              static_cast<unsigned long long>(cfg.seed));
  if (!cfg.channel.Ideal()) {
    std::printf("  %-22s loss=%.2f latency=%.0fms timeout=%.0fms retries=%d\n", "Channel",
                cfg.channel.loss, cfg.channel.latency_mean_s * 1000.0,
                cfg.channel.reply_timeout_s * 1000.0, cfg.channel.max_retries);
  }
  if (cfg.continuous) {
    std::printf("  %-22s safe-region=%s\n", "Continuous mode",
                core::SafeRegionModeName(cfg.safe_region));
  }
  if (shards > 1) {
    std::printf("  %-22s %10d (x%d threads)\n", "Seed shards", shards,
                sim::ResolveThreads(threads));
  }
  if (cfg.paged_storage) {
    if (cfg.buffer.capacity_pages == 0) {
      std::printf("  %-22s  unbounded (%s)\n", "Buffer pool",
                  storage::ReplacementPolicyName(cfg.buffer.policy));
    } else {
      std::printf("  %-22s %10zu pages (%s)\n", "Buffer pool", cfg.buffer.capacity_pages,
                  storage::ReplacementPolicyName(cfg.buffer.policy));
    }
  }

  sim::QueryTrace trace;
  obs::ChromeTraceWriter chrome_trace;
  obs::MetricsRegistry phase_metrics;
  obs::PhaseMetricsSink metrics_sink(&phase_metrics);
  obs::TeeSink span_tee;
  span_tee.Add(&chrome_trace);
  span_tee.Add(&metrics_sink);
  sim::SimulationResult r;
  if (!trace_path.empty() || !trace_out_path.empty()) {
    // The trace sinks are single-threaded; run the traced shard on its own
    // simulator and the rest on the pool. Shard 0 alone is deterministic
    // regardless of how the remaining shards are scheduled, so the trace
    // files are byte-identical at any --threads.
    sim::Simulator traced(sim::ShardConfig(cfg, 0));
    if (!trace_path.empty()) traced.AttachTrace(&trace);
    if (!trace_out_path.empty()) traced.AttachSpanSink(&span_tee, trace_sample);
    std::vector<sim::SimulationResult> parts{traced.Run()};
    std::vector<sim::SimulationConfig> rest;
    for (int s = 1; s < shards; ++s) rest.push_back(sim::ShardConfig(cfg, s));
    std::vector<sim::SimulationResult> rest_results =
        sim::RunConfigs(rest, sim::SweepOptions{threads});
    parts.insert(parts.end(), rest_results.begin(), rest_results.end());
    r = sim::MergeResults(parts);
  } else {
    r = sim::RunSeedShards(cfg, shards, sim::SweepOptions{threads});
  }

  std::printf("\nresults over %llu measured queries (%.0f simulated seconds):\n",
              static_cast<unsigned long long>(r.measured_queries), r.simulated_seconds);
  std::printf("  server           %6.1f %%   (SQRR)\n", r.pct_server);
  std::printf("  single-peer      %6.1f %%\n", r.pct_single_peer);
  std::printf("  multi-peer       %6.1f %%\n", r.pct_multi_peer);
  std::printf("  peers in range   %6.1f (mean)\n", r.peers_in_range.mean());
  std::printf("  p2p msgs/query   %6.2f   (%.0f bytes)\n", r.p2p_messages_per_query.mean(),
              r.p2p_bytes_per_query.mean());
  std::printf("  query latency    p50 %.1f ms   p95 %.1f ms   p99 %.1f ms\n",
              r.latency_p50.value() * 1000.0, r.latency_p95.value() * 1000.0,
              r.latency_p99.value() * 1000.0);
  if (r.transmissions_lost > 0 || r.replies_missed > 0 || r.retries_per_query.sum() > 0) {
    std::printf("  channel          %llu transmissions lost, %llu replies missed, "
                "%.2f retries/query\n",
                static_cast<unsigned long long>(r.transmissions_lost),
                static_cast<unsigned long long>(r.replies_missed),
                r.retries_per_query.mean());
    std::printf("  loss-induced server fallbacks %llu (%.1f %% of queries)\n",
                static_cast<unsigned long long>(r.loss_induced_server_fallbacks),
                r.measured_queries > 0
                    ? 100.0 * static_cast<double>(r.loss_induced_server_fallbacks) /
                          static_cast<double>(r.measured_queries)
                    : 0.0);
  }
  if (r.by_server > 0) {
    std::printf("  pages/server q   %6.2f EINN, %.2f INN\n", r.einn_pages.mean(),
                r.inn_pages.mean());
  }
  if (cfg.paged_storage && r.buffer.total() > 0) {
    std::printf("  buffer pool      %6.1f %% hit rate (%llu hits / %llu accesses), "
                "%.2f miss pages/server q\n",
                100.0 * r.buffer.rate(), static_cast<unsigned long long>(r.buffer.hits()),
                static_cast<unsigned long long>(r.buffer.total()),
                r.einn_miss_pages.mean());
  }
  if (cfg.continuous && r.continuous_steps > 0) {
    const double n = static_cast<double>(r.continuous_steps);
    std::printf("  continuous steps %llu by source: safe-region %.1f %%  peer-region "
                "%.1f %%  own-cache %.1f %%  peer %.1f %%  server %.1f %%\n",
                static_cast<unsigned long long>(r.continuous_steps),
                100.0 * static_cast<double>(r.continuous_safe_region_steps) / n,
                100.0 * static_cast<double>(r.continuous_peer_region_steps) / n,
                100.0 * static_cast<double>(r.continuous_own_cache_steps) / n,
                100.0 * static_cast<double>(r.continuous_peer_steps) / n,
                100.0 * static_cast<double>(r.continuous_server_steps) / n);
    if (r.continuous_uncertain_steps > 0) {
      std::printf("  uncertain steps  %llu (best-effort answers)\n",
                  static_cast<unsigned long long>(r.continuous_uncertain_steps));
    }
    if (r.continuous_region_area_m2.count() > 0) {
      std::printf("  safe regions     %llu built, %.4f km^2 mean area, %llu rival-fetch "
                  "pages\n",
                  static_cast<unsigned long long>(r.continuous_region_area_m2.count()),
                  r.continuous_region_area_m2.mean() * 1e-6,
                  static_cast<unsigned long long>(r.continuous_region_pages));
    }
  }

  if (print_json) std::printf("json %s\n", sim::SimulationResultJson(r).c_str());

  if (!trace_path.empty()) {
    Status s = trace.WriteCsvToFile(trace_path);
    if (!s.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("trace: %zu events -> %s\n", trace.size(), trace_path.c_str());
  }
  if (!trace_out_path.empty()) {
    // Per-phase cost table (shard 0): the phase decomposition behind the
    // paper's Figs. 10-13 aggregates. Ticks are logical span ticks, not
    // wall time; the arg histograms carry the physical quantities.
    std::printf("\nper-phase costs (traced shard, %llu spans):\n",
                static_cast<unsigned long long>(chrome_trace.span_count()));
    std::printf("  %-14s %10s %12s\n", "phase", "spans", "mean args");
    for (int p = 0; p < obs::kPhaseCount; ++p) {
      const char* name = obs::PhaseName(static_cast<obs::Phase>(p));
      uint64_t count = phase_metrics.counter(std::string("span/") + name);
      if (count == 0) continue;
      std::printf("  %-14s %10llu", name, static_cast<unsigned long long>(count));
      for (const auto& [hname, stats] : phase_metrics.histograms()) {
        const std::string prefix = std::string(name) + "/";
        if (hname.rfind(prefix, 0) != 0 || hname == prefix + "ticks") continue;
        std::printf("  %s=%.2f", hname.c_str() + prefix.size(), stats.mean());
      }
      std::printf("\n");
    }
    Status s = chrome_trace.WriteToFile(trace_out_path);
    if (!s.ok()) {
      std::fprintf(stderr, "trace-out write failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("trace-out: %zu spans -> %s (open in https://ui.perfetto.dev)\n",
                chrome_trace.span_count(), trace_out_path.c_str());
  }

  if (snnn_queries > 0) {
    // Post-run SNNN evaluation (Algorithm 2): rebuild shard 0's world —
    // deterministic, so this is exactly the road network and POI set the
    // simulation used — and answer N network-NN queries through the chosen
    // distance oracle. Both backends return identical result sets
    // (tests/core/snnn_oracle_test.cpp); the point of the flag is the cost
    // comparison, reported below as settled nodes and wall time.
    sim::Simulator world(sim::ShardConfig(cfg, 0));
    const roadnet::Graph* graph = world.graph();
    if (graph == nullptr) {
      std::fprintf(stderr, "--snnn requires --mode road (free movement has no road graph)\n");
      return 1;
    }
    roadnet::EdgeLocator locator(graph, 150.0);
    core::SpatialServer server(world.pois());

    obs::MetricsRegistry snnn_metrics;
    roadnet::DijkstraOracle dijkstra(graph);
    std::unique_ptr<roadnet::ch::Hierarchy> hier;
    std::unique_ptr<roadnet::ch::BucketOracle> bucket;
    roadnet::DistanceOracle* oracle = &dijkstra;
    std::printf("\nSNNN over shard 0's world (%zu nodes, %zu edges, %zu POIs):\n",
                graph->node_count(), graph->edge_count(), world.pois().size());
    if (snnn_use_ch) {
      auto t0 = std::chrono::steady_clock::now();
      hier = std::make_unique<roadnet::ch::Hierarchy>(
          roadnet::ch::Hierarchy::Build(*graph, {}, &snnn_metrics));
      double build_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      bucket = std::make_unique<roadnet::ch::BucketOracle>(hier.get(), &snnn_metrics);
      oracle = bucket.get();
      std::printf("  ch build         %6.1f ms   (%llu overlay edges + %llu shortcuts)\n",
                  build_ms,
                  static_cast<unsigned long long>(hier->stats().input_edges),
                  static_cast<unsigned long long>(hier->stats().shortcuts));
    }

    core::SnnnProcessor snnn(graph, &locator, {}, oracle);
    double side = cfg.params.AreaSideMeters();
    Rng snnn_rng = Rng(cfg.seed).Stream("snnn_cli");
    int snnn_k = cfg.params.k_nn;
    size_t results_returned = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (int q = 0; q < snnn_queries; ++q) {
      geom::Vec2 point{snnn_rng.Uniform(0, side), snnn_rng.Uniform(0, side)};
      core::ServerNnSource source(&server, point);
      results_returned += snnn.Execute(point, snnn_k, &source).size();
    }
    double total_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    std::printf("  oracle           %10s\n", oracle->name());
    std::printf("  queries          %10d   (k=%d, %zu results)\n", snnn_queries, snnn_k,
                results_returned);
    std::printf("  settled nodes    %10llu   (%.0f per query)\n",
                static_cast<unsigned long long>(oracle->settled_nodes()),
                static_cast<double>(oracle->settled_nodes()) / snnn_queries);
    std::printf("  query time       %10.2f ms total, %.3f ms per query\n", total_ms,
                total_ms / snnn_queries);
  }
  return 0;
}
