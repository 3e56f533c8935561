#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <string>

namespace senn::sim {

Status ValidateServerLimits(const SimulationConfig& config) {
  const ParameterSet& p = config.params;
  const int largest_k =
      std::max({p.cache_size, p.k_nn, config.randomize_k ? config.k_max : 0});
  const std::string cap = std::to_string(rpc::kMaxKnnK);
  if (largest_k > rpc::kMaxKnnK) {
    return Status::InvalidArgument("the cache size and k may not exceed " + cap);
  }
  if (config.continuous && config.safe_region == core::SafeRegionMode::kInsq &&
      p.poi_number > rpc::kMaxKnnK) {
    return Status::InvalidArgument("INSQ rival fetches may return every POI: at most " + cap +
                                   " POIs");
  }
  return Status::OK();
}

Simulator::Simulator(SimulationConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  // Policy 2: server queries always request cache_size POIs.
  config_.senn.server_request_k = config_.params.cache_size;
  // Continuous mode advances one long-lived query per host with a fixed k
  // (simulator.h); senn_sim rejects conflicting flags before construction.
  assert(!(config_.continuous && config_.randomize_k) &&
         "continuous queries keep k fixed for their lifetime");
  assert(ValidateServerLimits(config_).ok() && "every server reply must fit one frame");
  BuildWorld();
}

Simulator::~Simulator() = default;

void Simulator::BuildWorld() {
  const ParameterSet& p = config_.params;
  const double side = p.AreaSideMeters();

  // POIs uniformly distributed over the area (gas stations). Every
  // subsystem draws from its own named stream (see the RNG stream layout in
  // simulator.h) so the world is a pure function of the seed, independent of
  // build order or thread schedule.
  Rng poi_rng = rng_.Stream("world/poi");
  pois_.reserve(static_cast<size_t>(p.poi_number));
  for (int i = 0; i < p.poi_number; ++i) {
    pois_.push_back({i, {poi_rng.Uniform(0, side), poi_rng.Uniform(0, side)}});
  }
  server_ = std::make_unique<core::SpatialServer>(
      core::PoiEntries(pois_), core::SpatialServer::DefaultTreeOptions(),
      config_.page_count_mode,
      config_.paged_storage ? std::optional<storage::BufferPoolOptions>(config_.buffer)
                            : std::nullopt);
  // Every server contact crosses the rpc wire path; the simulator calls
  // server_ itself only to measure (the INN baseline) and to reset stats.
  link_ = std::make_unique<rpc::LoopbackLink>(server_.get());
  senn_ = std::make_unique<core::SennProcessor>(link_.get(), config_.senn);

  // Road network (road mode only).
  if (config_.mode == MovementMode::kRoadNetwork) {
    roadnet::RoadNetworkConfig road;
    road.area_side_m = side;
    if (config_.road_block_spacing_m > 0) {
      road.block_spacing_m = config_.road_block_spacing_m;
    } else {
      // Denser street grid for small areas, coarser for county scale so the
      // graph stays tractable; both preserve class structure.
      road.block_spacing_m = side <= 10000.0 ? 200.0 : 400.0;
    }
    road.diagonal_highways = side <= 10000.0 ? 1 : 4;
    Rng road_rng = rng_.Stream("world/road");
    graph_ = std::make_unique<roadnet::Graph>(GenerateRoadNetwork(road, &road_rng));
    router_ = std::make_unique<roadnet::Router>(graph_.get());
  }

  // Mobile hosts. Trips span the whole area by default (classic random
  // waypoint); max_trip_m can cap them to bound route-planning cost.
  double max_trip = config_.max_trip_m > 0 ? config_.max_trip_m : side;
  // Duty-cycle mode: every host moves, pausing so that the moving fraction
  // of time equals M_Percentage. The mean trip duration is estimated from
  // the trip sampling scheme (mean distance between uniform points in a
  // square is 0.5214 * side, capped by the trip radius whose mean uniform
  // distance is 2R/3; network paths run ~25% longer than Euclidean).
  double mean_pause = config_.mean_pause_s;
  if (mean_pause <= 0.0) {
    double trip_len = config_.mode == MovementMode::kRoadNetwork
                          ? std::min(max_trip * (2.0 / 3.0), 0.5214 * side) * 1.25
                          : 0.5214 * side;
    double trip_duration = trip_len / std::max(p.VelocityMps(), 0.1);
    double m = std::clamp(p.move_percentage, 0.05, 1.0);
    mean_pause = trip_duration * (1.0 - m) / m;
  }
  hosts_.reserve(static_cast<size_t>(p.mh_number));
  grid_ = std::make_unique<NeighborGrid>(side, std::max(p.tx_range_m, 50.0));
  for (int i = 0; i < p.mh_number; ++i) {
    // One stream per host: its placement, M_Percentage draw, and every later
    // movement decision depend only on (seed, host id).
    Rng host_rng = rng_.Stream("host", static_cast<uint64_t>(i));
    bool moving =
        config_.m_percentage_mode == MPercentageMode::kDutyCycle
            ? p.move_percentage > 0.0
            : host_rng.Bernoulli(p.move_percentage);
    std::unique_ptr<mobility::Mover> mover;
    if (!moving) {
      // senn-lint: allow(L7-rng-stream): sound outcome-gated draw —
      // host_rng is private to this host and both the Bernoulli above and
      // every branch below consume the SAME per-host stream, so any replica
      // that re-derives (seed, host id) takes the identical branch and
      // stays in sync. The hazard the rule targets is a shared stream
      // gated on a per-replica outcome; this stream is not shared.
      geom::Vec2 start{host_rng.Uniform(0, side), host_rng.Uniform(0, side)};
      mover = std::make_unique<mobility::StationaryMover>(start);
    } else if (config_.mode == MovementMode::kRoadNetwork) {
      roadnet::NodeId start =
          static_cast<roadnet::NodeId>(host_rng.NextIndex(graph_->node_count()));
      mobility::RoadMoverConfig mcfg;
      mcfg.nominal_speed_mps = p.VelocityMps();
      mcfg.mean_pause_s = mean_pause;
      mcfg.max_trip_m = max_trip;
      mover = std::make_unique<mobility::RoadMover>(mcfg, graph_.get(), router_.get(),
                                                    start, &host_rng);
    } else {
      mobility::WaypointConfig wcfg;
      wcfg.area_side_m = side;
      wcfg.speed_mps = p.VelocityMps();
      wcfg.mean_pause_s = mean_pause;
      geom::Vec2 start{host_rng.Uniform(0, side), host_rng.Uniform(0, side)};
      mover = std::make_unique<mobility::WaypointMover>(wcfg, start, &host_rng);
    }
    auto host = std::make_unique<MobileHost>(static_cast<int32_t>(i), std::move(mover),
                                             p.cache_size, moving, host_rng);
    grid_->Insert(host->id(), host->position());
    hosts_.push_back(std::move(host));
  }

  if (config_.warm_start) WarmStartCaches();

  // Continuous mode: one long-lived query per host, seeded from whatever the
  // warm start put in its cache (an exact server/SENN prefix, so priming —
  // including the INSQ rival fetch — is sound). Priming page traffic models
  // state accumulated before the measured window and is not charged.
  if (config_.continuous) {
    core::ContinuousOptions copts;
    copts.safe_region = config_.safe_region;
    for (std::unique_ptr<MobileHost>& host : hosts_) {
      auto cont = std::make_unique<core::ContinuousKnn>(senn_.get(), p.k_nn, copts);
      const core::CachedResult* cached = host->cache().Get();
      if (cached != nullptr && !cached->Empty()) cont->Prime(*cached);
      host->AttachContinuous(std::move(cont));
    }
  }
}

void Simulator::WarmStartCaches() {
  // Prime every host's cache to approximate the steady state a long run
  // converges to, in two sweeps:
  //  1. every host gets the exact server answer of a query issued at a
  //     synthetic past location (its position displaced by a draw of the
  //     time since its last query times its travel speed);
  //  2. each host's *last query* is then replayed through the real SENN
  //     pipeline against the sweep-1 world, in random order, so the cache
  //     SIZE distribution matches steady state too: hosts whose last query
  //     was peer-answered keep only the (thin) certain prefix, exactly as
  //     cache policy 1 prescribes, while server-answered hosts keep C_Size
  //     POIs (policy 2).
  const ParameterSet& p = config_.params;
  const double side = p.AreaSideMeters();
  // Mean time since a host's last query: hosts / system query rate.
  const double mean_gap_s =
      p.queries_per_minute > 0
          ? static_cast<double>(p.mh_number) / p.queries_per_minute * 60.0
          : 900.0;
  // Effective travel speed: nominal velocity discounted by pause time.
  const double travel_speed = p.VelocityMps() * std::clamp(p.move_percentage, 0.1, 1.0);
  std::vector<geom::Vec2> warm_qloc(hosts_.size());
  for (std::unique_ptr<MobileHost>& host : hosts_) {
    geom::Vec2 qloc = host->position();
    if (host->moving()) {
      double gap = host->rng().Exponential(mean_gap_s);
      double dist = std::min(gap * travel_speed, side);
      double angle = host->rng().Uniform(0, 2.0 * M_PI);
      qloc.x = std::clamp(qloc.x + dist * std::cos(angle), 0.0, side);
      qloc.y = std::clamp(qloc.y + dist * std::sin(angle), 0.0, side);
    }
    warm_qloc[static_cast<size_t>(host->id())] = qloc;
    core::ServerReply reply = link_->QueryKnn(qloc, p.cache_size, {}, 0, nullptr);
    core::CachedResult result;
    result.query_location = qloc;
    result.neighbors = std::move(reply.neighbors);
    result.timestamp = 0.0;
    host->cache().Store(std::move(result));
  }
  // Sweep 2: replay, in random order. Peers are gathered around the warm
  // query location with a grid over the warm locations.
  NeighborGrid warm_grid(side, std::max(p.tx_range_m, 50.0));
  for (const std::unique_ptr<MobileHost>& host : hosts_) {
    // A peer shares what it cached *at its current position*; during the
    // replayed (past) query the provider population is approximated by the
    // hosts' current positions.
    warm_grid.Insert(host->id(), host->position());
  }
  std::vector<int32_t> order(hosts_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
  Rng warm_rng = rng_.Stream("warmstart");
  warm_rng.Shuffle(&order);
  std::vector<int32_t> ids;
  std::vector<const core::CachedResult*> caches;
  for (int32_t id : order) {
    MobileHost* host = hosts_[static_cast<size_t>(id)].get();
    geom::Vec2 qloc = warm_qloc[static_cast<size_t>(id)];
    ids.clear();
    warm_grid.QueryRadius(qloc, p.tx_range_m, &ids);
    caches.clear();
    for (int32_t peer : ids) {
      if (peer == id) continue;  // replaying this host's own query
      const core::CachedResult* cached = hosts_[static_cast<size_t>(peer)]->cache().Get();
      if (cached != nullptr && !cached->Empty()) caches.push_back(cached);
    }
    int k = config_.randomize_k
                ? static_cast<int>(host->rng().UniformInt(config_.k_min, config_.k_max))
                : p.k_nn;
    core::SennOutcome outcome = senn_->Execute(qloc, k, caches);
    if (outcome.certain_prefix.empty()) continue;
    core::CachedResult result;
    result.query_location = qloc;
    result.neighbors = outcome.certain_prefix;
    result.timestamp = 0.0;
    host->cache().Store(std::move(result));
  }
  server_->ResetStats();  // priming traffic is not part of the experiment
}

void Simulator::PrepareQuery(MobileHost* host, double now, int k, bool measuring,
                             PendingQuery* out) {
  const uint64_t qid = query_seq_++;
  out->host = host;
  out->qid = qid;
  out->now = now;
  out->k = k;
  out->measuring = measuring;
  // Structured tracing: the tracer exists only for sampled queries; a null
  // pointer keeps every span site a single pointer compare. Timestamps are
  // sim time in microseconds — never wall clock — so traces are
  // byte-reproducible regardless of thread count (see src/obs/trace.h).
  if (span_sink_ != nullptr && qid % span_sample_ == 0) {
    out->tracer.emplace(span_sink_, qid, static_cast<uint64_t>(std::llround(now * 1e6)));
  }
  obs::QueryTracer* tracer = out->tracer.has_value() ? &*out->tracer : nullptr;

  geom::Vec2 q = host->position();
  out->q = q;
  Rng net_rng = rng_.Stream("net", qid);
  net::ExchangeResult ex;
  {
    obs::ScopedSpan harvest(tracer, obs::Phase::kPeerHarvest);
    neighbor_ids_.clear();
    grid_->QueryRadius(q, config_.params.tx_range_m, &neighbor_ids_);

    // Radio candidates: reachable peers with non-empty caches, in grid scan
    // order. The querying host's own cache participates ("a mobile host will
    // first attempt to answer each spatial query from its local cache") but
    // never crosses the air, so it is not an exchange candidate.
    candidates_.clear();
    candidate_caches_.clear();
    full_caches_.clear();
    int self_slot = -1;
    for (int32_t id : neighbor_ids_) {
      const core::CachedResult* cached = hosts_[static_cast<size_t>(id)]->cache().Get();
      if (cached == nullptr || cached->Empty()) continue;
      full_caches_.push_back(cached);
      if (id == host->id()) {
        self_slot = static_cast<int>(full_caches_.size()) - 1;
        continue;
      }
      candidates_.push_back({id, cached->neighbors.size()});
      candidate_caches_.push_back(cached);
    }

    // Run the wireless exchange: broadcast REQ, collect replies until the
    // deadline, rebroadcast after silent rounds. Channel draws come from the
    // query's own named stream, so the run stays a pure function of the seed.
    {
      obs::ScopedSpan exchange(tracer, obs::Phase::kNetExchange);
      ex = net::RunExchange(config_.channel, candidates_, &net_rng);
      exchange.AddArg("candidates", static_cast<uint64_t>(candidates_.size()));
      exchange.AddArg("arrived", static_cast<uint64_t>(ex.arrived.size()));
      exchange.AddArg("retries", static_cast<uint64_t>(ex.retries));
      exchange.AddArg("lost", ex.transmissions_lost);
    }
    arrived_.assign(candidates_.size(), 0);
    for (int idx : ex.arrived) arrived_[static_cast<size_t>(idx)] = 1;

    // Assemble the harvested peer set, preserving grid scan order (what the
    // pre-networking simulator passed; SENN re-sorts by Heuristic 3.3). A
    // partial harvest is a normal case — SENN verifies with what arrived.
    peer_caches_.clear();
    size_t cursor = 0;
    for (size_t slot = 0; slot < full_caches_.size(); ++slot) {
      if (static_cast<int>(slot) == self_slot) {
        peer_caches_.push_back(full_caches_[slot]);
        continue;
      }
      if (arrived_[cursor++]) peer_caches_.push_back(full_caches_[slot]);
    }
    harvest.AddArg("reachable", static_cast<uint64_t>(full_caches_.size()));
    harvest.AddArg("harvested", static_cast<uint64_t>(peer_caches_.size()));
  }

  out->pending = senn_->Prepare(q, k, peer_caches_, tracer);
  const bool to_server = out->pending.outcome.resolution == core::Resolution::kServer;
  out->channel = MeasureChannel(ex, to_server, &net_rng);
  // A server contact is loss-induced when the complete peer set (the ideal
  // channel's harvest) would have certified the answer locally. Evaluated
  // while the full_caches_ scratch is still this query's.
  out->channel.loss_induced =
      to_server && out->channel.replies_missed > 0 && senn_->ResolvesLocally(q, k, full_caches_);
}

Simulator::ChannelMetrics Simulator::MeasureChannel(const net::ExchangeResult& ex,
                                                    bool to_server, Rng* net_rng) const {
  ChannelMetrics m;
  m.p2p_messages = ex.messages_sent;
  m.p2p_bytes = ex.bytes_sent;
  m.retries = ex.retries;
  m.transmissions_lost = ex.transmissions_lost;
  m.replies_missed = candidates_.size() - ex.arrived.size();
  m.latency_s = ex.elapsed_s;
  // The RTT is drawn when the query is prepared, before the contact runs,
  // so the "net" stream's draws do not depend on the transport.
  if (to_server) m.latency_s += net::DrawServerRtt(config_.channel, net_rng);
  return m;
}

void Simulator::FinalizeQuery(PendingQuery* pq) {
  // Cache policy 1: keep the certain neighbors of the most recent query.
  const core::SennOutcome& outcome = pq->pending.outcome;
  if (!outcome.certain_prefix.empty()) {
    core::CachedResult result;
    result.query_location = pq->q;
    result.neighbors = outcome.certain_prefix;
    result.timestamp = pq->now;
    pq->host->cache().Store(std::move(result));
  }
}

void Simulator::ContactServer(PendingQuery* pq) {
  // The contact runs on the query's own tracer, inside the server_einn span.
  obs::QueryTracer* tracer = pq->tracer.has_value() ? &*pq->tracer : nullptr;
  obs::ScopedSpan server_span(tracer, obs::Phase::kServerEinn);
  const core::ServerReply reply = senn_->Contact(pq->pending, tracer);
  senn_->Finish(&pq->pending, reply);
  pq->inn_accesses = server_->InnBaseline(pq->q, pq->pending.heap_capacity);
  server_span.AddArg("einn_pages", reply.einn_accesses.total());
  server_span.AddArg("inn_pages", pq->inn_accesses.total());
  server_span.AddArg("returned", static_cast<uint64_t>(reply.neighbors.size()));
}

void Simulator::AccountQuery(const PendingQuery& pq, SimulationResult* result) {
  const core::SennOutcome& outcome = pq.pending.outcome;
  if (trace_ != nullptr) {
    QueryEvent event;
    event.time_s = pq.now;
    event.host_id = pq.host->id();
    event.k = pq.k;
    event.resolution = outcome.resolution;
    event.peers_in_range = outcome.peers_consulted;
    event.certain_count = static_cast<int>(outcome.certain_prefix.size());
    event.einn_pages = outcome.einn_accesses.total();
    event.inn_pages = pq.inn_accesses.total();
    event.measured = pq.measuring;
    trace_->Record(event);
  }
  if (!pq.measuring) return;
  AccountLaunch(outcome.peers_consulted, pq.channel, result);
  switch (outcome.resolution) {
    case core::Resolution::kSinglePeer:
      ++result->by_single_peer;
      break;
    case core::Resolution::kMultiPeer:
      ++result->by_multi_peer;
      break;
    case core::Resolution::kUncertain:
      // Counted with the peer-answered fraction (no server contact);
      // disabled in the default configuration.
      ++result->by_multi_peer;
      break;
    case core::Resolution::kServer:
      AccountServerPages(outcome.einn_accesses, pq.inn_accesses, result);
      break;
  }
}

void Simulator::AccountLaunch(int peers_consulted, const ChannelMetrics& channel,
                              SimulationResult* result) {
  ++result->measured_queries;
  result->peers_in_range.Add(static_cast<double>(peers_consulted));
  result->p2p_messages_per_query.Add(channel.p2p_messages);
  result->p2p_bytes_per_query.Add(channel.p2p_bytes);
  result->query_latency_s.Add(channel.latency_s);
  result->latency_p50.Add(channel.latency_s);
  result->latency_p95.Add(channel.latency_s);
  result->latency_p99.Add(channel.latency_s);
  result->retries_per_query.Add(static_cast<double>(channel.retries));
  result->transmissions_lost += channel.transmissions_lost;
  result->replies_missed += channel.replies_missed;
  if (channel.loss_induced) ++result->loss_induced_server_fallbacks;
}

void Simulator::AccountServerPages(const rtree::AccessCounter& einn,
                                   const rtree::AccessCounter& inn,
                                   SimulationResult* result) const {
  ++result->by_server;
  result->einn_pages.Add(static_cast<double>(einn.total()));
  result->inn_pages.Add(static_cast<double>(inn.total()));
  if (config_.paged_storage) {
    // Physical (buffer-pool miss) cost of the answering run. The logical
    // count above is pool-independent; only this differs across pool sizes
    // and policies.
    const uint64_t misses = einn.misses();
    result->einn_miss_pages.Add(static_cast<double>(misses));
    result->buffer.AddMisses(misses);
    result->buffer.AddHits(einn.total() - misses);
  }
}

void Simulator::ExecuteContinuousStep(MobileHost* host, bool measuring,
                                      SimulationResult* result) {
  core::ContinuousKnn* cont = host->continuous();
  assert(cont != nullptr && "continuous mode attaches a ContinuousKnn per host");
  const geom::Vec2 q = host->position();
  const uint64_t regions_before = cont->stats().regions_built;

  core::StepResult step;
  ChannelMetrics channel;

  if (std::optional<core::StepResult> local = cont->TryLocal(q)) {
    // Zero-communication step: nothing crosses the air and no channel draws
    // happen ("net" streams name only communicating launches, so skipping
    // the qid here keeps the run a pure function of the config).
    step = *std::move(local);
  } else {
    const uint64_t qid = query_seq_++;
    Rng net_rng = rng_.Stream("net", qid);
    neighbor_ids_.clear();
    grid_->QueryRadius(q, config_.params.tx_range_m, &neighbor_ids_);
    // Radio candidates: reachable peers with a non-empty rolling cache (the
    // continuous cache — the snapshot NnCache is stale past the warm start
    // here). A peer's safe region rides in the same reply as its cached
    // POIs: the region members are a prefix of them, so reply sizing is
    // unchanged. The querying host's own state never crosses the air; the
    // ContinuousKnn consults it internally.
    candidates_.clear();
    candidate_caches_.clear();
    peer_regions_.clear();
    for (int32_t id : neighbor_ids_) {
      if (id == host->id()) continue;
      const MobileHost* peer = hosts_[static_cast<size_t>(id)].get();
      const core::ContinuousKnn* peer_cont = peer->continuous();
      const core::CachedResult& cached = peer_cont->shared_cache();
      if (cached.Empty()) continue;
      candidates_.push_back({id, cached.neighbors.size()});
      candidate_caches_.push_back(&cached);
      peer_regions_.push_back(&peer_cont->safe_region());
    }
    net::ExchangeResult ex = net::RunExchange(config_.channel, candidates_, &net_rng);
    arrived_.assign(candidates_.size(), 0);
    for (int idx : ex.arrived) arrived_[static_cast<size_t>(idx)] = 1;
    // Keep caches and regions of the peers whose reply made a deadline,
    // compacting the region list in place to stay aligned with the caches.
    peer_caches_.clear();
    size_t kept = 0;
    for (size_t slot = 0; slot < candidates_.size(); ++slot) {
      if (arrived_[slot] == 0) continue;
      peer_caches_.push_back(candidate_caches_[slot]);
      peer_regions_[kept++] = peer_regions_[slot];
    }
    peer_regions_.resize(kept);

    step = cont->ResolveWithPeers(q, peer_caches_, peer_regions_);
    channel = MeasureChannel(ex, step.source == core::StepSource::kServer, &net_rng);
  }

  if (!measuring) return;
  ++result->continuous_steps;
  AccountLaunch(step.peers_consulted, channel, result);
  switch (step.source) {
    case core::StepSource::kSafeRegion:
      ++result->continuous_safe_region_steps;
      break;
    case core::StepSource::kPeerRegion:
      ++result->continuous_peer_region_steps;
      break;
    case core::StepSource::kOwnCache:
      ++result->continuous_own_cache_steps;
      break;
    case core::StepSource::kSinglePeer:
      ++result->continuous_peer_steps;
      ++result->by_single_peer;
      break;
    case core::StepSource::kMultiPeer:
      ++result->continuous_peer_steps;
      ++result->by_multi_peer;
      break;
    case core::StepSource::kUncertain:
      // Best-effort answer (accept_uncertain runs only). Grouped with the
      // peer-answered fraction for the by_* classification — matching the
      // snapshot path — but visible separately in its own counter.
      ++result->continuous_uncertain_steps;
      ++result->by_multi_peer;
      break;
    case core::StepSource::kServer:
      ++result->continuous_server_steps;
      // The INN baseline at the size SENN requested from the server.
      AccountServerPages(step.einn_accesses,
                         server_->InnBaseline(q, senn_->HeapCapacity(cont->k())), result);
      break;
    case core::StepSource::kStepSourceCount:
      break;
  }
  result->continuous_region_pages += step.region_pages;
  if (cont->stats().regions_built > regions_before && cont->safe_region().Valid()) {
    result->continuous_region_area_m2.Add(cont->safe_region().Area());
  }
}

SimulationResult Simulator::Run() {
  const ParameterSet& p = config_.params;
  SimulationResult result;
  const double duration =
      config_.duration_s > 0 ? config_.duration_s : p.execution_hours * kSecondsPerHour;
  const double warmup_end = duration * config_.warmup_fraction;
  const double dt = std::max(config_.time_step_s, 1e-3);
  const double queries_per_second = p.queries_per_minute / kSecondsPerMinute;

  Rng workload_rng = rng_.Stream("workload");
  double now = 0.0;
  while (now < duration) {
    // Advance movement and keep the neighbor grid current.
    for (std::unique_ptr<MobileHost>& host : hosts_) {
      if (!host->moving()) continue;
      geom::Vec2 before = host->position();
      host->Advance(dt);
      grid_->Move(host->id(), before, host->position());
    }
    now += dt;

    // Query launches: a Poisson number of randomly selected hosts per step
    // (the paper draws interval lengths from a Poisson process and selects a
    // random subset sized by lambda_Query).
    uint64_t launches = workload_rng.Poisson(queries_per_second * dt);
    bool measuring = now >= warmup_end;
    for (uint64_t q = 0; q < launches; ++q) {
      MobileHost* host = hosts_[workload_rng.NextIndex(hosts_.size())].get();
      if (config_.continuous) {
        // Continuous mode: advance the host's long-lived query instead of
        // issuing an independent snapshot query.
        ExecuteContinuousStep(host, measuring, &result);
        continue;
      }
      int k = config_.randomize_k
                  ? static_cast<int>(workload_rng.UniformInt(config_.k_min, config_.k_max))
                  : p.k_nn;
      PendingQuery pq;
      PrepareQuery(host, now, k, measuring, &pq);
      if (pq.pending.needs_server) ContactServer(&pq);
      FinalizeQuery(&pq);
      AccountQuery(pq, &result);
    }
  }

  result.simulated_seconds = duration;
  if (result.measured_queries > 0) {
    double n = static_cast<double>(result.measured_queries);
    result.pct_single_peer = 100.0 * static_cast<double>(result.by_single_peer) / n;
    result.pct_multi_peer = 100.0 * static_cast<double>(result.by_multi_peer) / n;
    result.pct_server = 100.0 * static_cast<double>(result.by_server) / n;
  }
  return result;
}

}  // namespace senn::sim
