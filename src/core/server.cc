#include "src/core/server.h"

#include <algorithm>
#include <span>
#include <utility>

#include "src/core/range.h"
#include "src/geom/region.h"
#include "src/obs/trace.h"
#include "src/rtree/bulk_load.h"

namespace senn::core {

std::vector<rtree::ObjectEntry> PoiEntries(std::span<const Poi> pois) {
  std::vector<rtree::ObjectEntry> entries;
  entries.reserve(pois.size());
  for (const Poi& poi : pois) entries.push_back({poi.position, poi.id});
  return entries;
}

namespace {

// The entries of `pois`, with the POIs freed before the tree is packed.
std::vector<rtree::ObjectEntry> ConsumePois(std::vector<Poi> pois) {
  std::vector<rtree::ObjectEntry> entries = PoiEntries(pois);
  std::vector<Poi>().swap(pois);
  return entries;
}

}  // namespace

SpatialServer::SpatialServer(std::vector<rtree::ObjectEntry> entries,
                             rtree::RStarTree::Options tree_options,
                             rtree::AccessCountMode count_mode,
                             std::optional<storage::BufferPoolOptions> storage)
    : tree_(rtree::BulkLoadPacked(std::move(entries), tree_options)), count_mode_(count_mode) {
  // Static POI sets are packed with STR: tighter leaves and much faster
  // construction than one-at-a-time insertion for county-scale data. The
  // sorted entries become the tree's leaf array, the only copy kept.
  if (storage.has_value()) {
    pager_ = std::make_unique<storage::NodePager>(tree_, *storage);
  }
}

SpatialServer::SpatialServer(std::vector<Poi> pois, rtree::RStarTree::Options tree_options,
                             rtree::AccessCountMode count_mode,
                             std::optional<storage::BufferPoolOptions> storage)
    : SpatialServer(ConsumePois(std::move(pois)), tree_options, count_mode, storage) {}

namespace {

/// The polygon work (geom::MbrCoveredByDiskUnion's units) one region query
/// may spend on coverage tests. Past it the search prunes by distance alone:
/// the answer stays exact, only covered subtrees are read.
constexpr uint64_t kRegionCoverBudget = 1u << 20;

/// The region-aware search's policy: three pruning sources — the client's
/// horizon (its k-th candidate distance, the state's upper bound), the
/// running k-th-best distance over ALL objects seen (region-known ones
/// included: they occupy result ranks on the client side), and region
/// coverage of whole subtrees. The reach is the state's: that bound,
/// tightened to the worst of the k best candidates outside the region.
struct RegionPolicy {
  const rtree::PackedTree& tree;
  rtree::KnnState& state;
  const std::vector<geom::Circle>& region;
  rtree::AccessCounter* counter;
  rtree::NodePageHook* hook;
  /// Polygon work left for this query's coverage tests.
  uint64_t cover_budget = kRegionCoverBudget;

  bool Charge(rtree::NodeId id, uint32_t) {
    return rtree::ChargeNodeAccess(tree, id, counter, hook);
  }
  bool Queue(const rtree::PackedTree::Branch& b, uint32_t, double* key) {
    *key = b.mbr.MinDist(state.q());
    if (*key > state.bound()) return false;
    // Region-covered subtrees contain only client-known POIs. Skip them
    // only once the dynamic bound is saturated: before that, reading them
    // feeds the bound with true nearby distances (skipping early would
    // widen the search and cost more than it saves).
    return !state.bound_saturated() ||
           !geom::MbrCoveredByDiskUnion(b.mbr, region, {}, &cover_budget);
  }
  void ScanLeaf(std::span<const rtree::ObjectEntry> objects) {
    for (const rtree::ObjectEntry& o : objects) {
      const double d = geom::Dist(state.q(), o.position);
      if (d > state.bound()) continue;
      state.Feed(d);
      if (std::none_of(region.begin(), region.end(),
                       [&](const geom::Circle& c) { return c.Contains(o.position); })) {
        state.candidates.Offer(d, o);
      }
    }
  }
  bool Admit(const rtree::QueuedNode&) const { return true; }
  double Reach() const { return state.reach(); }
};

/// Runs `search` inside a buffer_fetch span carrying the pool's hit, miss
/// and eviction deltas; without a tracer or a pool there is no span.
template <class Search>
void InFetchSpan(const storage::NodePager* pager, obs::QueryTracer* tracer, Search&& search) {
  obs::ScopedSpan fetch(pager != nullptr ? tracer : nullptr, obs::Phase::kBufferFetch);
  const storage::BufferPoolStats before =
      fetch.active() ? pager->pool().stats() : storage::BufferPoolStats{};
  search();
  if (!fetch.active()) return;
  const storage::BufferPoolStats& after = pager->pool().stats();
  fetch.AddArg("hits", after.hits - before.hits);
  fetch.AddArg("misses", after.misses - before.misses);
  fetch.AddArg("evictions", after.evictions - before.evictions);
}

}  // namespace

ServerReply SpatialServer::QueryKnn(geom::Vec2 q, int k, rtree::PruneBounds bounds,
                                    int already_certified, obs::QueryTracer* tracer) {
  ServerReply reply;
  // EINN with the client's bounds, through the storage engine when one is
  // configured.
  InFetchSpan(pager_.get(), tracer, [&] {
    const rtree::EinnQuery einn{.q = q,
                                .bounds = bounds,
                                .needed = std::max(0, k - already_certified),
                                .prune_to_k = k,
                                .count_mode = count_mode_};
    const std::span<const rtree::Candidate> found =
        rtree::EinnSearch(tree_, einn, &scratch_, &reply.einn_accesses, pager_.get());
    reply.neighbors.reserve(found.size());
    for (const rtree::Candidate& c : found) {
      reply.neighbors.push_back({c.object->id, c.object->position, c.distance});
    }
  });
  RecordAnsweredQuery(reply.einn_accesses);
  return reply;
}

ServerReply SpatialServer::QueryKnnWithRegion(geom::Vec2 q, int k, double horizon,
                                              const std::vector<geom::Circle>& region,
                                              obs::QueryTracer* tracer) {
  ServerReply reply;
  if (k <= 0) {
    // No rank to fill: an empty reply, and no page is read.
    RecordAnsweredQuery(reply.einn_accesses);
    return reply;
  }
  InFetchSpan(pager_.get(), tracer, [&] {
    rtree::PruneBounds bounds;
    bounds.upper = horizon;
    scratch_.query.Reset(q, bounds, k, k);
    RegionPolicy policy{tree_, scratch_.query, region, &reply.einn_accesses, pager_.get()};
    // Every expanded node is charged, whatever the server's count mode.
    const double stop = rtree::BestFirstSearch(tree_, rtree::AccessCountMode::kOnExpand,
                                               pager_.get(), &scratch_.heap, policy);
    // A candidate is reported only while no queued node is nearer: those
    // at or beyond the key that stopped the search stay unreported.
    for (const rtree::Candidate& c : scratch_.query.candidates.Sorted()) {
      if (c.distance >= stop) break;
      reply.neighbors.push_back({c.object->id, c.object->position, c.distance});
    }
  });
  RecordAnsweredQuery(reply.einn_accesses);
  return reply;
}

ServerReply SpatialServer::QueryRange(geom::Vec2 q, double radius, double inner) {
  ServerReply reply;
  reply.neighbors =
      PrunedCircleQuery(tree_, q, radius, inner, &reply.einn_accesses, pager_.get());
  RecordAnsweredQuery(reply.einn_accesses);
  return reply;
}

ServerReply SpatialServer::QueryRivals(geom::Vec2 q, double radius, size_t max_rivals) {
  ServerReply reply;
  reply.neighbors =
      PrunedCircleQuery(tree_, q, radius, 0.0, &reply.einn_accesses, nullptr, max_rivals);
  return reply;
}

rtree::AccessCounter SpatialServer::InnBaseline(geom::Vec2 q, int k) const {
  const rtree::EinnQuery inn{.q = q,
                             .bounds = {},
                             .needed = std::max(0, k),
                             .prune_to_k = k,
                             .count_mode = count_mode_};
  rtree::BestFirstScratch scratch;
  rtree::AccessCounter accesses;
  rtree::EinnSearch(tree_, inn, &scratch, &accesses);
  return accesses;
}

}  // namespace senn::core
