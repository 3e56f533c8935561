#include "src/core/server.h"

#include <algorithm>
#include <queue>

#include "src/core/range.h"
#include "src/geom/region.h"
#include "src/obs/trace.h"
#include "src/rtree/bulk_load.h"

namespace senn::core {

SpatialServer::SpatialServer(std::vector<Poi> pois, rtree::RStarTree::Options tree_options,
                             rtree::AccessCountMode count_mode,
                             std::optional<storage::BufferPoolOptions> storage)
    : poi_count_(pois.size()), tree_(tree_options), count_mode_(count_mode) {
  // Static POI sets are packed with STR: tighter leaves and much faster
  // construction than one-at-a-time insertion for county-scale data. The
  // tree is the only copy kept: the POIs are freed before the packing.
  std::vector<rtree::ObjectEntry> entries;
  entries.reserve(pois.size());
  for (const Poi& poi : pois) entries.push_back({poi.position, poi.id});
  std::vector<Poi>().swap(pois);
  tree_ = rtree::BulkLoad(std::move(entries), tree_options);
  if (storage.has_value()) {
    pager_ = std::make_unique<storage::NodePager>(&tree_, *storage);
  }
}

ServerReply SpatialServer::QueryKnn(geom::Vec2 q, int k, rtree::PruneBounds bounds,
                                    int already_certified, obs::QueryTracer* tracer) {
  ServerReply reply;
  int needed = k - already_certified;
  if (needed < 0) needed = 0;

  {
    // EINN with the client's bounds, through the storage engine when one is
    // configured; buffer_fetch brackets its pool activity.
    obs::ScopedSpan fetch(pager_ != nullptr ? tracer : nullptr, obs::Phase::kBufferFetch);
    const storage::BufferPoolStats before =
        fetch.active() ? pager_->pool().stats() : storage::BufferPoolStats{};
    rtree::BestFirstNnIterator einn(tree_, q, bounds, count_mode_, k, pager_.get());
    while (static_cast<int>(reply.neighbors.size()) < needed) {
      auto n = einn.Next();
      if (!n.has_value()) break;
      reply.neighbors.push_back({n->object.id, n->object.position, n->distance});
    }
    reply.einn_accesses = einn.accesses();
    if (fetch.active()) {
      const storage::BufferPoolStats& after = pager_->pool().stats();
      fetch.AddArg("hits", after.hits - before.hits);
      fetch.AddArg("misses", after.misses - before.misses);
      fetch.AddArg("evictions", after.evictions - before.evictions);
    }
  }

  RecordAnsweredQuery(reply.einn_accesses);
  return reply;
}

ServerReply SpatialServer::QueryKnnWithRegion(geom::Vec2 q, int k, double horizon,
                                              const std::vector<geom::Circle>& region,
                                              obs::QueryTracer* tracer) {
  ServerReply reply;
  // Best-first search with three pruning sources: the client's horizon (its
  // k-th candidate distance), the running k-th-best distance over ALL seen
  // objects (region-known ones included — they occupy result ranks on the
  // client side), and region coverage of whole subtrees.
  struct Item {
    double key;
    const rtree::RStarTree::Node* node;  // null for objects
    RankedPoi poi;
  };
  // Same tie rule as BestFirstNnIterator: at equal key nodes pop before
  // objects (a node with MINDIST == d may hide a co-distant smaller-id
  // object), and co-distant objects pop in ascending id.
  auto greater = [](const Item& a, const Item& b) {
    // senn-lint: allow(L5-float-eq): strict-weak-order tie detection. Both
    // keys come from the same MinDist/Dist code path, so "equal" means
    // bit-identical, and exact ties must fall through to the id rules.
    if (a.key != b.key) return a.key > b.key;
    const bool a_object = a.node == nullptr;
    const bool b_object = b.node == nullptr;
    if (a_object != b_object) return a_object;
    if (a_object) return a.poi.id > b.poi.id;
    return false;
  };
  std::priority_queue<Item, std::vector<Item>, decltype(greater)> queue(greater);
  std::priority_queue<double> best;  // max-heap of the k best seen distances
  auto effective_bound = [&]() {
    double bound = horizon;
    if (static_cast<int>(best.size()) >= k) bound = std::min(bound, best.top());
    return bound;
  };
  auto feed = [&](double d) {
    if (static_cast<int>(best.size()) < k) {
      best.push(d);
    } else if (d < best.top()) {
      best.pop();
      best.push(d);
    }
  };
  auto in_region = [&](geom::Vec2 p) {
    for (const geom::Circle& c : region) {
      if (c.Contains(p)) return true;
    }
    return false;
  };
  auto expand = [&](const rtree::RStarTree::Node* node) {
    const bool pinned = rtree::ChargeNodeAccess(node, &reply.einn_accesses, pager_.get());
    for (const rtree::RStarTree::Slot& s : node->slots) {
      if (node->IsLeaf()) {
        double d = geom::Dist(q, s.object.position);
        if (d > effective_bound()) continue;
        feed(d);
        if (!in_region(s.object.position)) {
          queue.push({d, nullptr, {s.object.id, s.object.position, d}});
        }
      } else {
        if (s.mbr.MinDist(q) > effective_bound()) continue;
        // Region-covered subtrees contain only client-known POIs. Skip them
        // only once the dynamic bound is saturated: before that, reading
        // them feeds the bound with true nearby distances (skipping early
        // would widen the search and cost more than it saves).
        if (static_cast<int>(best.size()) >= k &&
            geom::MbrCoveredByDiskUnion(s.mbr, region)) {
          continue;
        }
        queue.push({s.mbr.MinDist(q), s.child.get(), {}});
      }
    }
    if (pinned) pager_->Unpin(node);
  };
  {
    obs::ScopedSpan fetch(pager_ != nullptr ? tracer : nullptr, obs::Phase::kBufferFetch);
    const storage::BufferPoolStats before =
        fetch.active() ? pager_->pool().stats() : storage::BufferPoolStats{};
    expand(tree_.root());
    while (!queue.empty()) {
      Item item = queue.top();
      if (item.key > effective_bound() && item.node != nullptr) break;
      queue.pop();
      if (item.node != nullptr) {
        expand(item.node);
      } else {
        reply.neighbors.push_back(item.poi);
        if (static_cast<int>(reply.neighbors.size()) >= k) break;  // plenty for the merge
      }
    }
    if (fetch.active()) {
      const storage::BufferPoolStats& after = pager_->pool().stats();
      fetch.AddArg("hits", after.hits - before.hits);
      fetch.AddArg("misses", after.misses - before.misses);
      fetch.AddArg("evictions", after.evictions - before.evictions);
    }
  }

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

rtree::AccessCounter SpatialServer::InnBaseline(geom::Vec2 q, int k) const {
  rtree::BestFirstNnIterator inn(tree_, q, {}, count_mode_, k);
  for (int i = 0; i < k; ++i) {
    if (!inn.Next().has_value()) break;
  }
  return inn.accesses();
}

}  // namespace senn::core
