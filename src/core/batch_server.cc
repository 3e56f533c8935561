#include "src/core/batch_server.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <span>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace senn::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Canonical content order within a tile: co-located requests with equal
/// parameters are interchangeable, so sorting by content (input index as the
/// final tie) makes the cluster assignment invariant under input shuffles.
/// Not a distance rank — a total order over request tuples.
bool ContentBefore(const BatchQuery& a, const BatchQuery& b) {
  if (a.q.x != b.q.x) return a.q.x < b.q.x;
  if (a.q.y != b.q.y) return a.q.y < b.q.y;
  if (a.k != b.k) return a.k < b.k;
  if (a.already_certified != b.already_certified) {
    return a.already_certified < b.already_certified;
  }
  if (a.bounds.lower.has_value() != b.bounds.lower.has_value()) {
    return b.bounds.lower.has_value();
  }
  if (a.bounds.lower.has_value() && *a.bounds.lower != *b.bounds.lower) {
    return *a.bounds.lower < *b.bounds.lower;
  }
  if (a.bounds.lower_id_cut != b.bounds.lower_id_cut) {
    return a.bounds.lower_id_cut < b.bounds.lower_id_cut;
  }
  if (a.bounds.upper.has_value() != b.bounds.upper.has_value()) {
    return b.bounds.upper.has_value();
  }
  if (a.bounds.upper.has_value() && *a.bounds.upper != *b.bounds.upper) {
    return *a.bounds.upper < *b.bounds.upper;
  }
  return false;
}

}  // namespace

BatchServer::BatchServer(SpatialServer* server, BatchOptions options)
    : server_(server), options_(options) {
  if (options_.cluster_cell_m <= 0.0) options_.cluster_cell_m = 1.0;
  if (options_.max_group < 1) options_.max_group = 1;
}

std::vector<std::vector<size_t>> BatchServer::FormClusters(
    const std::vector<BatchQuery>& queries) const {
  // The neighbor_grid tiling idiom, keyed sparsely: queries land in square
  // tiles by floor division, so co-located points share a tile and a point
  // exactly on a boundary belongs to the higher tile. One sort by
  // (x-tile, y-tile, content, input index) lays the tiles out in tile order,
  // each tile's members in canonical order; chunking every tile's run by
  // max_group then yields the clusters.
  const double cell = options_.cluster_cell_m;
  std::vector<std::pair<int64_t, int64_t>> tile(queries.size());
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const geom::Vec2 p = queries[i].q;
    tile[i] = {static_cast<int64_t>(std::floor(p.x / cell)),
               static_cast<int64_t>(std::floor(p.y / cell))};
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (tile[a] != tile[b]) return tile[a] < tile[b];
    if (ContentBefore(queries[a], queries[b])) return true;
    if (ContentBefore(queries[b], queries[a])) return false;
    return a < b;  // content-identical: interchangeable, keep input order
  });
  std::vector<std::vector<size_t>> clusters;
  const size_t max_group = static_cast<size_t>(options_.max_group);
  for (size_t begin = 0; begin < order.size();) {
    size_t tile_end = begin + 1;
    while (tile_end < order.size() && tile[order[tile_end]] == tile[order[begin]]) {
      ++tile_end;
    }
    while (begin < tile_end) {
      const size_t end = std::min(tile_end, begin + max_group);
      clusters.emplace_back(order.begin() + static_cast<ptrdiff_t>(begin),
                            order.begin() + static_cast<ptrdiff_t>(end));
      begin = end;
    }
  }
  return clusters;
}

std::vector<ServerReply> BatchServer::AnswerBatch(const std::vector<BatchQuery>& queries,
                                                  obs::QueryTracer* tracer,
                                                  obs::MetricsRegistry* metrics,
                                                  std::vector<size_t>* cluster_sizes) {
  std::vector<ServerReply> replies(queries.size());
  for (const std::vector<size_t>& members : FormClusters(queries)) {
    if (cluster_sizes != nullptr) cluster_sizes->push_back(members.size());
    if (members.size() == 1) {
      // Sequential delegation: a cluster of one is exactly a QueryKnn call
      // (ServerStats bookkeeping included), which is what makes batch size 1
      // byte-identical to today's server path.
      const BatchQuery& bq = queries[members.front()];
      replies[members.front()] =
          server_->QueryKnn(bq.q, bq.k, bq.bounds, bq.already_certified, tracer);
      ++stats_.queries;
      ++stats_.singleton_queries;
      continue;
    }
    AnswerCluster(queries, members, &replies, tracer, metrics);
  }
  return replies;
}

void BatchServer::AnswerCluster(const std::vector<BatchQuery>& queries,
                                const std::vector<size_t>& members,
                                std::vector<ServerReply>* replies,
                                obs::QueryTracer* tracer, obs::MetricsRegistry* metrics) {
  const rtree::PackedTree& tree = server_->tree();
  storage::NodePager* pager = server_->mutable_pager();
  const rtree::AccessCountMode mode = server_->count_mode();
  const uint32_t m = static_cast<uint32_t>(members.size());

  obs::ScopedSpan span(tracer, obs::Phase::kServerBatchEinn);

  // Per-query prune state: the sequential BestFirstNnIterator's bounds
  // translated to the shared traversal, plus the bounded candidate heap that
  // replaces the global queue's object entries.
  struct PerQuery {
    const BatchQuery* in = nullptr;
    ServerReply* out = nullptr;
    int needed = 0;
    // Dynamic top-k bound: best k object distances fed to this query so far
    // (lower-bound-known objects included, exactly like the sequential
    // iterator).
    std::priority_queue<double> best;
    // Best `needed` eligible objects so far: max-heap under the system
    // (distance, id) rank, front = worst.
    std::vector<rtree::Neighbor> cand;
  };
  std::vector<PerQuery> pq(m);
  for (uint32_t j = 0; j < m; ++j) {
    const BatchQuery& bq = queries[members[j]];
    pq[j].in = &bq;
    pq[j].out = &(*replies)[members[j]];
    pq[j].needed = std::max(0, bq.k - bq.already_certified);
  }

  auto by_rank = [](const rtree::Neighbor& a, const rtree::Neighbor& b) {
    return RanksBefore(a.distance, a.object.id, b.distance, b.object.id);
  };
  auto feed = [](PerQuery& p, double d) {
    if (p.in->k <= 0) return;  // degenerate request: no bound to maintain
    if (static_cast<int>(p.best.size()) < p.in->k) {
      p.best.push(d);
    } else if (d < p.best.top()) {
      p.best.pop();
      p.best.push(d);
    }
  };
  auto eff_upper = [](const PerQuery& p) {
    double upper = p.in->bounds.upper.value_or(kInf);
    if (p.in->k > 0 && static_cast<int>(p.best.size()) >= p.in->k) {
      upper = std::min(upper, p.best.top());
    }
    return upper;
  };
  // The largest MINDIST this query can still want: its effective upper
  // bound, tightened to the worst candidate once the candidate heap is full.
  auto reach = [&](const PerQuery& p) {
    double limit = eff_upper(p);
    if (static_cast<int>(p.cand.size()) >= p.needed) {
      limit = std::min(limit, p.cand.front().distance);
    }
    return limit;
  };
  // The live-query prune rule: a query still wants a node unless the upper
  // bound, downward (MAXDIST < lower) pruning, or its full candidate heap
  // rules the node out. MINDIST == the worst candidate's distance survives
  // the last test: the node may hold a co-distant object with a smaller id.
  // MAXDIST only matters under a lower bound, so only then is it computed.
  auto wants_node = [&](const PerQuery& p, const geom::Mbr& mbr, double mindist) {
    if (p.needed <= 0) return false;
    if (mindist > reach(p)) return false;
    return !p.in->bounds.lower.has_value() || mbr.MaxDist(p.in->q) >= *p.in->bounds.lower;
  };

  // The shared node queue: min-over-wanting-queries MINDIST, equal keys in
  // push order (node identity never enters the order).
  // Each item's push-time wanting queries live in `wanted_arena` at
  // [wanted_begin, wanted_begin + wanted_count), so a queued node costs no
  // allocation of its own.
  struct NodeItem {
    double key = 0.0;
    uint64_t seq = 0;
    rtree::NodeId node = 0;
    geom::Mbr mbr;
    uint32_t wanted_begin = 0;
    uint32_t wanted_count = 0;
  };
  struct NodeGreater {
    bool operator()(const NodeItem& a, const NodeItem& b) const {
      // senn-lint: allow(L5-float-eq): strict-weak-order tie detection —
      // both keys come from the same MinDist code path, so equal means
      // bit-identical, and exact ties must fall through to the FIFO rule.
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };
  // A binary heap under NodeGreater (the std::priority_queue algorithm,
  // hence the same pop order), kept as a vector so pops move items out.
  std::vector<NodeItem> queue;
  std::vector<uint32_t> wanted_arena;
  auto wanted_of = [&](const NodeItem& item) {
    return std::span<const uint32_t>(wanted_arena)
        .subspan(item.wanted_begin, item.wanted_count);
  };
  uint64_t push_seq = 0;

  rtree::AccessCounter cluster_counter;
  // One fetch per node for the whole cluster (the double-charge fix):
  // attributed to the first wanting query, classified shared when >= 2
  // queries read it. Per-query misses therefore partition the cluster's
  // unique-page misses.
  auto charge = [&](rtree::NodeId node, std::span<const uint32_t> wanted) {
    return rtree::ChargeBatchNodeAccess(tree, node, &pq[wanted.front()].out->einn_accesses,
                                        &cluster_counter, wanted.size() >= 2, pager);
  };

  auto expand = [&](rtree::NodeId id, std::span<const uint32_t> wanted) {
    const rtree::PackedTree::Node& node = tree.node(id);
    if (node.IsLeaf()) {
      for (const rtree::ObjectEntry& o : tree.objects(node)) {
        for (uint32_t j : wanted) {
          PerQuery& p = pq[j];
          double d = geom::Dist(p.in->q, o.position);
          // Lower-bound-known objects feed the dynamic bound but are never
          // reported — including the boundary id-cut rule of the sequential
          // iterator (knn.cc): a co-distant object past the client's rank
          // cut lost the id tie-break and must still be reported.
          if (p.in->bounds.lower.has_value() &&
              (d < *p.in->bounds.lower ||
               // senn-lint: allow(L5-float-eq): bit-exact boundary tie —
               // the client's lower bound is a cached radius from the same
               // Dist() chain; same rule as the sequential EINN leaf scan.
               (d == *p.in->bounds.lower && o.id <= p.in->bounds.lower_id_cut))) {
            feed(p, d);
            continue;
          }
          if (d > eff_upper(p)) continue;
          feed(p, d);
          if (p.needed <= 0) continue;
          if (static_cast<int>(p.cand.size()) < p.needed) {
            p.cand.push_back({o, d});
            std::push_heap(p.cand.begin(), p.cand.end(), by_rank);
          } else if (RanksBefore(d, o.id, p.cand.front().distance,
                                 p.cand.front().object.id)) {
            std::pop_heap(p.cand.begin(), p.cand.end(), by_rank);
            p.cand.back() = {o, d};
            std::push_heap(p.cand.begin(), p.cand.end(), by_rank);
          }
        }
      }
      return;
    }
    for (const rtree::PackedTree::Branch& b : tree.branches(node)) {
      NodeItem item;
      item.node = b.child;
      item.mbr = b.mbr;
      item.wanted_begin = static_cast<uint32_t>(wanted_arena.size());
      double key = kInf;
      for (uint32_t j : wanted) {
        const double mindist = b.mbr.MinDist(pq[j].in->q);
        if (!wants_node(pq[j], b.mbr, mindist)) continue;
        wanted_arena.push_back(j);
        key = std::min(key, mindist);
      }
      item.wanted_count = static_cast<uint32_t>(wanted_arena.size()) - item.wanted_begin;
      if (item.wanted_count == 0) continue;
      item.key = key;
      item.seq = push_seq++;
      if (mode == rtree::AccessCountMode::kOnEnqueue) {
        // Enqueue accounting fetches the child as it enters the queue;
        // the pin is transient (expansion reads the queued copy).
        if (charge(item.node, wanted_of(item))) pager->Unpin(item.node);
      }
      queue.push_back(item);
      std::push_heap(queue.begin(), queue.end(), NodeGreater{});
    }
  };

  // One buffer for the wanting queries of the node being expanded (`wanted`
  // of expand never aliases the arena, which expand appends to).
  std::vector<uint32_t> live(m);
  for (uint32_t j = 0; j < m; ++j) live[j] = j;
  // The root is always fetched once for the cluster, in both accounting
  // modes — the batch mirror of the sequential constructor's root charge.
  {
    const bool pinned = charge(rtree::PackedTree::root(), live);
    expand(rtree::PackedTree::root(), live);
    if (pinned) pager->Unpin(rtree::PackedTree::root());
  }

  while (!queue.empty()) {
    // Early stop: keys pop in non-decreasing order and every query's reach
    // only shrinks, so once the front key exceeds the largest reach of any
    // query still short of answers, no queued node will ever be wanted. The
    // nodes left behind are exactly the dead pops of a full drain, which
    // charge nothing (expand accounting) or were charged at push (enqueue
    // accounting), so stopping moves no counter.
    double max_reach = -kInf;
    for (const PerQuery& p : pq) {
      if (p.needed > 0) max_reach = std::max(max_reach, reach(p));
    }
    if (queue.front().key > max_reach) break;

    std::pop_heap(queue.begin(), queue.end(), NodeGreater{});
    const NodeItem item = queue.back();
    queue.pop_back();
    // Pop-time re-check against the tightened per-query state: a node every
    // pushing query has since pruned is skipped — without a fetch in expand
    // accounting (enqueue accounting already charged it, like the
    // sequential iterator charges queued-but-prunable nodes).
    live.clear();
    for (uint32_t j : wanted_of(item)) {
      if (wants_node(pq[j], item.mbr, item.mbr.MinDist(pq[j].in->q))) live.push_back(j);
    }
    if (live.empty()) continue;
    bool pinned = false;
    if (mode == rtree::AccessCountMode::kOnExpand) pinned = charge(item.node, live);
    expand(item.node, live);
    if (pinned) pager->Unpin(item.node);
  }

  // Per-query finalization: candidates in ascending rank order become the
  // reply, then the ServerStats fold — exactly what QueryKnn records.
  for (uint32_t j = 0; j < m; ++j) {
    PerQuery& p = pq[j];
    std::sort(p.cand.begin(), p.cand.end(), by_rank);
    p.out->neighbors.reserve(p.cand.size());
    for (const rtree::Neighbor& n : p.cand) {
      p.out->neighbors.push_back({n.object.id, n.object.position, n.distance});
    }
    server_->RecordAnsweredQuery(p.out->einn_accesses);
  }

  stats_.queries += m;
  stats_.batched_queries += m;
  stats_.clusters += 1;
  stats_.shared_traversal += cluster_counter;

  span.AddArg("queries", m);
  span.AddArg("pages", cluster_counter.total());
  span.AddArg("misses", cluster_counter.misses());
  span.AddArg("shared_misses", cluster_counter.shared_misses);
  if (metrics != nullptr) {
    metrics->Inc("batch/clusters");
    metrics->Inc("batch/batched_queries", m);
    metrics->Observe("batch/cluster_size", static_cast<double>(m));
    metrics->Observe("batch/cluster_pages", static_cast<double>(cluster_counter.total()));
    metrics->Observe("batch/cluster_misses",
                     static_cast<double>(cluster_counter.misses()));
    metrics->Observe("batch/cluster_shared_misses",
                     static_cast<double>(cluster_counter.shared_misses));
  }
}

}  // namespace senn::core
