// The simulation engine of Section 4.1: a mobile host module (movement and
// query launch patterns for every host) and a server module (R*-tree spatial
// searches with page-access accounting), wired together through the SENN
// query processor.
//
// Differences from the paper's setup, made for laptop-scale reproduction and
// recorded in EXPERIMENTS.md:
//  * `duration_s` can shorten T_execution; to still measure steady-state
//    rates, caches can be warm-started: each host is primed with the exact
//    kNN result of a query issued at a synthetic past location (its own
//    position displaced by a random draw of the time since its last query
//    times its speed). Stationary hosts are primed at their position, which
//    is exactly their steady state.
//  * the road network is synthesized (see roadnet/generator.h) instead of
//    digitized from TIGER/LINE files.
//
// RNG stream layout. All randomness derives from `SimulationConfig::seed`
// through named counter-based streams (Rng::Stream), never from draw order:
//   "world/poi"   POI placement
//   "world/road"  road-network synthesis
//   "host", i     host i's placement, M_Percentage draw, and movement
//   "warmstart"   warm-start replay order
//   "workload"    query launch times, querying host, and per-query k
//   "net", n      channel draws (loss, latency) of the n-th executed query
// Consequently a run is a pure function of its config: two Run()s with equal
// configs produce bit-identical SimulationResults, regardless of how many
// simulations execute concurrently elsewhere in the process (see sim/sweep.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/stats.h"
#include "src/core/senn.h"
#include "src/core/server.h"
#include "src/mobility/road_mover.h"
#include "src/net/channel.h"
#include "src/obs/trace.h"
#include "src/net/exchange.h"
#include "src/mobility/waypoint.h"
#include "src/roadnet/generator.h"
#include "src/roadnet/locate.h"
#include "src/rpc/loopback.h"
#include "src/sim/mobile_host.h"
#include "src/sim/neighbor_grid.h"
#include "src/sim/params.h"
#include "src/sim/trace.h"

namespace senn::sim {

/// How the M_Percentage parameter is realized. The paper says only "mobile
/// host movement percentage"; the duty-cycle reading (every host moves
/// M_Percentage of the time, pausing in between) reproduces the paper's
/// reported server-load levels, while the population reading (a fixed
/// 1 - M_Percentage of hosts never move) leaves permanently-stationary
/// cache providers and noticeably lowers server load. Duty cycle is the
/// default; bench_ablation_mpercentage contrasts the two.
enum class MPercentageMode {
  kDutyCycle = 0,
  kStationaryFraction = 1,
};

/// Full configuration of one simulation run.
struct SimulationConfig {
  ParameterSet params;
  MovementMode mode = MovementMode::kRoadNetwork;
  MPercentageMode m_percentage_mode = MPercentageMode::kDutyCycle;
  uint64_t seed = 1;

  /// Simulated duration in seconds; <= 0 means the paper's full
  /// T_execution. Benches use shorter runs plus cache warm-start.
  double duration_s = -1.0;
  /// Fraction of the duration treated as warm-up (measurements discarded).
  double warmup_fraction = 0.2;
  /// Movement integration step (seconds).
  double time_step_s = 1.0;
  /// Prime host caches to approximate steady state (see header comment).
  bool warm_start = true;
  /// Mean pause at waypoints (seconds); <= 0 derives the pause from
  /// M_Percentage in duty-cycle mode (pause = trip_time * (1-M)/M).
  double mean_pause_s = -1.0;
  /// Preferred max trip length for road movement; <= 0 derives from area.
  double max_trip_m = -1.0;

  /// Draw each query's k uniformly from [k_min, k_max] instead of the fixed
  /// params.k_nn (Section 4.2.4 does this for the k sweep).
  bool randomize_k = false;
  int k_min = 1;
  int k_max = 9;

  /// SENN algorithm switches (multi-peer backend, ablations). The server
  /// request size is always overridden with params.cache_size (policy 2).
  core::SennOptions senn;

  /// Road generator overrides; negative block spacing derives a default
  /// from the region density.
  double road_block_spacing_m = -1.0;

  /// How the server charges R*-tree page accesses (Figure 17 uses
  /// kOnEnqueue; see rtree/best_first.h for the two accounting styles).
  rtree::AccessCountMode page_count_mode = rtree::AccessCountMode::kOnExpand;

  /// Wireless channel of the P2P exchange (src/net/). The default is the
  /// ideal channel — lossless and instantaneous — which reproduces the
  /// pre-networking simulator bit-for-bit (golden-JSON tested). Warm-start
  /// priming always runs over an ideal channel: it models the steady state
  /// already accumulated before the measured window.
  net::ChannelConfig channel;

  /// When true the server answers through the paged storage engine
  /// (src/storage/): EINN traversals fetch R*-tree nodes through a buffer
  /// pool sized by `buffer`, and the result additionally reports physical
  /// misses and the pool hit rate. Logical page counts are unchanged — the
  /// default (off) and an unbounded pool both reproduce the historical
  /// metrics bit-for-bit (golden-JSON tested).
  bool paged_storage = false;
  storage::BufferPoolOptions buffer;

  /// Continuous-query mode: every host holds one core::ContinuousKnn (k =
  /// params.k_nn) across the whole run, and each launch advances that query
  /// at the host's current position instead of issuing an independent
  /// snapshot query. Steps resolve through (in order) the safe region, the
  /// Lemma 3.2 own-cache recheck, shared peer safe regions, peer caches,
  /// and finally the server. Requires a fixed k (randomize_k == false).
  bool continuous = false;
  /// Safe-region construction maintained by continuous queries (see
  /// core/safe_region.h). Ignored unless `continuous` is set.
  core::SafeRegionMode safe_region = core::SafeRegionMode::kOff;
};

/// Whether every server reply of a run fits one frame (rpc::kMaxKnnK POIs):
/// a contact asks for the cache size or a larger k, and an INSQ rival fetch
/// may return the whole POI table. senn_sim refuses a failing config up
/// front; the Simulator constructor asserts it.
Status ValidateServerLimits(const SimulationConfig& config);

/// Aggregated outcome of a run (the quantities Figures 9-17 plot).
struct SimulationResult {
  uint64_t measured_queries = 0;
  uint64_t by_single_peer = 0;
  uint64_t by_multi_peer = 0;
  uint64_t by_server = 0;

  /// Percentages of measured queries (the Y axes of Figures 9-16).
  double pct_single_peer = 0.0;
  double pct_multi_peer = 0.0;
  double pct_server = 0.0;  // this is the SQRR metric

  /// R*-tree pages accessed per server-bound query (Figure 17 inputs).
  RunningStats einn_pages;
  RunningStats inn_pages;

  /// Storage-engine metrics (all zero unless `paged_storage` is on).
  /// Physical (buffer-pool miss) pages per server-bound EINN query; with an
  /// unbounded pool these are the cold first-touch reads only.
  RunningStats einn_miss_pages;
  /// Pool-wide hit/miss tally over the measured window (exact-merging
  /// across seed shards — counts are summed, the rate is recomputed).
  HitRate buffer;

  /// Peers reachable per query (diagnostic).
  RunningStats peers_in_range;

  /// P2P communication overhead ("it may increase the communication
  /// overheads among mobile hosts", Section 2): per query, broadcasts
  /// (including rebroadcast retries) plus every reply transmission put on
  /// the air; reply payloads carry the cached POIs (net::ReplyBytes).
  RunningStats p2p_messages_per_query;
  RunningStats p2p_bytes_per_query;

  /// Query latency over the messaging subsystem: exchange time (reply
  /// collection, timeouts, retries) plus the server round trip for
  /// server-resolved queries. All zero on the ideal channel.
  RunningStats query_latency_s;
  P2Quantile latency_p50{0.50};
  P2Quantile latency_p95{0.95};
  P2Quantile latency_p99{0.99};
  /// Silent collection rounds that triggered a rebroadcast.
  RunningStats retries_per_query;
  /// Transmissions the channel dropped (REQ receptions or replies).
  uint64_t transmissions_lost = 0;
  /// Candidate replies that never made any round's deadline (lost or late).
  uint64_t replies_missed = 0;
  /// Server contacts that the full peer set would have avoided — the
  /// channel, not the cache population, forced them.
  uint64_t loss_induced_server_fallbacks = 0;

  /// Continuous-query metrics (all zero unless `continuous` is on). Steps
  /// partition exactly by answering source:
  /// continuous_steps == safe_region + peer_region + own_cache + peer +
  /// uncertain + server. Every step also counts as a measured query, and
  /// server-answered steps feed by_server / einn_pages, so pct_server stays
  /// the SQRR metric (server contacts per issued step).
  uint64_t continuous_steps = 0;
  uint64_t continuous_safe_region_steps = 0;
  uint64_t continuous_peer_region_steps = 0;
  uint64_t continuous_own_cache_steps = 0;
  uint64_t continuous_peer_steps = 0;
  uint64_t continuous_uncertain_steps = 0;
  uint64_t continuous_server_steps = 0;
  /// Logical R*-tree accesses of the INSQ rival fetches (they ride on
  /// answering server replies; kInsq mode only).
  uint64_t continuous_region_pages = 0;
  /// Area (m^2) of each safe region installed during the measured window.
  RunningStats continuous_region_area_m2;

  double simulated_seconds = 0.0;
};

/// Owns the world (POIs, server, road network, hosts) and runs the loop.
class Simulator {
 public:
  explicit Simulator(SimulationConfig config);
  ~Simulator();

  /// Runs the configured duration and returns the aggregated metrics.
  SimulationResult Run();

  /// Attaches an event sink that receives one QueryEvent per executed query
  /// (including warm-up queries, flagged unmeasured). Pass nullptr to
  /// detach. The trace must outlive the next Run() call.
  void AttachTrace(QueryTrace* trace) { trace_ = trace; }

  /// Attaches a structured span sink (src/obs/): every `sample_every`-th
  /// executed query (by query sequence number, so sampling is deterministic)
  /// emits per-phase spans with sim-time timestamps. Pass nullptr to detach.
  /// The sink must outlive the next Run() call. Warm-start priming runs
  /// before time zero and is never traced.
  void AttachSpanSink(obs::TraceSink* sink, uint64_t sample_every = 1) {
    span_sink_ = sink;
    span_sample_ = sample_every == 0 ? 1 : sample_every;
  }

  /// World accessors (used by the examples).
  const core::SpatialServer& server() const { return *server_; }
  /// Dispatch counters of the wire path every server contact takes.
  rpc::ServiceStats service_stats() const { return link_->stats(); }
  const roadnet::Graph* graph() const { return graph_.get(); }
  const std::vector<std::unique_ptr<MobileHost>>& hosts() const { return hosts_; }
  const std::vector<core::Poi>& pois() const { return pois_; }

 private:
  /// What one launch's wireless exchange cost, server round trip included.
  struct ChannelMetrics {
    double p2p_messages = 0.0;
    double p2p_bytes = 0.0;
    double latency_s = 0.0;
    int retries = 0;
    uint64_t transmissions_lost = 0;
    uint64_t replies_missed = 0;
    /// A server contact the complete peer set would have avoided.
    bool loss_induced = false;
  };

  /// One snapshot query, from PrepareQuery to AccountQuery: the client-side
  /// stages ran, the channel metrics are drawn, and a query that needs the
  /// server is answered by ContactServer.
  struct PendingQuery {
    MobileHost* host = nullptr;
    uint64_t qid = 0;
    double now = 0.0;
    int k = 0;
    bool measuring = false;
    geom::Vec2 q;
    core::PendingSenn pending;
    /// Kept alive until the server contact (spans were all closed by Prepare).
    std::optional<obs::QueryTracer> tracer;
    ChannelMetrics channel;
    /// The plain INN baseline of a server-answered query (Fig. 17).
    rtree::AccessCounter inn_accesses;
  };

  void BuildWorld();
  void WarmStartCaches();
  /// Client-side half of a snapshot query: harvest, wireless exchange, SENN
  /// peer stages, channel draws (server RTT included).
  void PrepareQuery(MobileHost* host, double now, int k, bool measuring, PendingQuery* out);
  /// Channel metrics of an exchange over the current candidates_; draws the
  /// server RTT from `net_rng` when the launch reaches the server.
  ChannelMetrics MeasureChannel(const net::ExchangeResult& ex, bool to_server,
                                Rng* net_rng) const;
  /// Server-independent tail: applies cache policy 1.
  void FinalizeQuery(PendingQuery* pq);
  /// Metric/trace accounting of one completed snapshot query.
  void AccountQuery(const PendingQuery& pq, SimulationResult* result);
  /// Counts a measured launch (snapshot query or continuous step): its
  /// peers and its channel metrics.
  static void AccountLaunch(int peers_consulted, const ChannelMetrics& channel,
                            SimulationResult* result);
  /// Counts a server-answered launch and its logical (and, paged, physical)
  /// page accesses.
  void AccountServerPages(const rtree::AccessCounter& einn, const rtree::AccessCounter& inn,
                          SimulationResult* result) const;
  /// The server contact: answers one prepared query over the link and
  /// finishes it, right after its launch, so a later launch in the same
  /// step sees the new cache. Also measures the query's INN baseline.
  void ContactServer(PendingQuery* pq);
  /// One launch of continuous mode: advances `host`'s ContinuousKnn at its
  /// current position (local fast paths first; otherwise the wireless
  /// exchange harvests peer caches AND peer safe regions) and accounts the
  /// step. Steps call core::ContinuousKnn, which reaches the server over
  /// the same link, instead of the snapshot query path.
  void ExecuteContinuousStep(MobileHost* host, bool measuring, SimulationResult* result);

  SimulationConfig config_;
  Rng rng_;
  std::vector<core::Poi> pois_;
  std::unique_ptr<core::SpatialServer> server_;
  /// The wire path to server_ that every server contact takes.
  std::unique_ptr<rpc::LoopbackLink> link_;
  std::unique_ptr<core::SennProcessor> senn_;
  std::unique_ptr<roadnet::Graph> graph_;
  std::unique_ptr<roadnet::Router> router_;
  std::vector<std::unique_ptr<MobileHost>> hosts_;
  std::unique_ptr<NeighborGrid> grid_;
  QueryTrace* trace_ = nullptr;
  obs::TraceSink* span_sink_ = nullptr;
  uint64_t span_sample_ = 1;
  /// Sequence number of the executed query; names its "net" RNG stream.
  uint64_t query_seq_ = 0;
  // Scratch buffers reused across queries.
  std::vector<int32_t> neighbor_ids_;
  std::vector<const core::CachedResult*> peer_caches_;
  std::vector<const core::CachedResult*> full_caches_;
  std::vector<net::PeerProfile> candidates_;
  std::vector<const core::CachedResult*> candidate_caches_;
  std::vector<char> arrived_;
  /// Continuous mode: safe regions of the harvested peers, aligned with
  /// peer_caches_ assembly (only regions whose reply arrived are visible).
  std::vector<const core::SafeRegion*> peer_regions_;
};

}  // namespace senn::sim
