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
    : poi_count_(pois.size()), count_mode_(count_mode) {
  // Static POI sets are packed with STR: tighter leaves and much faster
  // construction than one-at-a-time insertion for county-scale data. The
  // tree is the only copy kept: the POIs are freed before the packing, and
  // the sorted entries become the tree's leaf array.
  std::vector<rtree::ObjectEntry> entries;
  entries.reserve(pois.size());
  for (const Poi& poi : pois) entries.push_back({poi.position, poi.id});
  std::vector<Poi>().swap(pois);
  tree_ = rtree::BulkLoadPacked(std::move(entries), tree_options);
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
  if (k <= 0) {
    // No rank to fill: an empty reply, and no page is read.
    RecordAnsweredQuery(reply.einn_accesses);
    return reply;
  }
  // Best-first search with three pruning sources: the client's horizon (its
  // k-th candidate distance), the running k-th-best distance over ALL seen
  // objects (region-known ones included — they occupy result ranks on the
  // client side), and region coverage of whole subtrees. The queue is
  // BestFirstNnIterator's, with its pop order.
  std::priority_queue<rtree::BestFirstItem, std::vector<rtree::BestFirstItem>,
                      rtree::BestFirstGreater>
      queue{rtree::BestFirstGreater(&tree_)};
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
  auto expand = [&](rtree::NodeId id) {
    const bool pinned =
        rtree::ChargeNodeAccess(tree_, id, &reply.einn_accesses, pager_.get());
    const rtree::PackedTree::Node& node = tree_.node(id);
    if (node.IsLeaf()) {
      for (uint32_t i = node.first; i < node.first + node.count; ++i) {
        const rtree::ObjectEntry& o = tree_.object(i);
        double d = geom::Dist(q, o.position);
        if (d > effective_bound()) continue;
        feed(d);
        if (!in_region(o.position)) queue.push({d, i, false});
      }
    } else {
      for (const rtree::PackedTree::Branch& b : tree_.branches(node)) {
        if (b.mbr.MinDist(q) > effective_bound()) continue;
        // Region-covered subtrees contain only client-known POIs. Skip them
        // only once the dynamic bound is saturated: before that, reading
        // them feeds the bound with true nearby distances (skipping early
        // would widen the search and cost more than it saves).
        if (static_cast<int>(best.size()) >= k &&
            geom::MbrCoveredByDiskUnion(b.mbr, region)) {
          continue;
        }
        queue.push({b.mbr.MinDist(q), b.child, true});
      }
    }
    if (pinned) pager_->Unpin(id);
  };
  {
    obs::ScopedSpan fetch(pager_ != nullptr ? tracer : nullptr, obs::Phase::kBufferFetch);
    const storage::BufferPoolStats before =
        fetch.active() ? pager_->pool().stats() : storage::BufferPoolStats{};
    expand(rtree::PackedTree::root());
    while (!queue.empty()) {
      const rtree::BestFirstItem item = queue.top();
      if (item.key > effective_bound() && item.is_node) break;
      queue.pop();
      if (item.is_node) {
        expand(item.index);
      } else {
        const rtree::ObjectEntry& o = tree_.object(item.index);
        reply.neighbors.push_back({o.id, o.position, item.key});
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
