#include "src/core/batch_server.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <queue>
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
  // exactly on a boundary belongs to the higher tile. std::map (never a hash
  // map) fixes the tile iteration order to (x-tile, y-tile).
  std::map<std::pair<int64_t, int64_t>, std::vector<size_t>> tiles;
  const double cell = options_.cluster_cell_m;
  for (size_t i = 0; i < queries.size(); ++i) {
    const geom::Vec2 p = queries[i].q;
    tiles[{static_cast<int64_t>(std::floor(p.x / cell)),
           static_cast<int64_t>(std::floor(p.y / cell))}]
        .push_back(i);
  }
  std::vector<std::vector<size_t>> clusters;
  for (auto& [tile, members] : tiles) {
    std::sort(members.begin(), members.end(), [&](size_t a, size_t b) {
      if (ContentBefore(queries[a], queries[b])) return true;
      if (ContentBefore(queries[b], queries[a])) return false;
      return a < b;  // content-identical: interchangeable, keep input order
    });
    for (size_t begin = 0; begin < members.size();
         begin += static_cast<size_t>(options_.max_group)) {
      const size_t end =
          std::min(members.size(), begin + static_cast<size_t>(options_.max_group));
      clusters.emplace_back(members.begin() + static_cast<ptrdiff_t>(begin),
                            members.begin() + static_cast<ptrdiff_t>(end));
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
  const rtree::RStarTree& tree = server_->tree();
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
  // The live-query prune rule: a query still wants a node unless the upper
  // bound, downward (MAXDIST < lower) pruning, or its full candidate heap
  // rules the node out. MINDIST == the worst candidate's distance survives
  // the last test: the node may hold a co-distant object with a smaller id.
  auto wants_node = [&](const PerQuery& p, double mindist, double maxdist) {
    if (p.needed <= 0) return false;
    if (mindist > eff_upper(p)) return false;
    if (p.in->bounds.lower.has_value() && maxdist < *p.in->bounds.lower) return false;
    if (static_cast<int>(p.cand.size()) >= p.needed &&
        mindist > p.cand.front().distance) {
      return false;
    }
    return true;
  };

  // The shared node queue: min-over-wanting-queries MINDIST, equal keys in
  // push order (node identity, i.e. the pointer, never enters the order).
  struct NodeItem {
    double key = 0.0;
    uint64_t seq = 0;
    const rtree::RStarTree::Node* node = nullptr;
    geom::Mbr mbr;
    std::vector<uint32_t> wanted;  // cluster-local indices, push-time
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
  std::priority_queue<NodeItem, std::vector<NodeItem>, NodeGreater> queue;
  uint64_t push_seq = 0;

  rtree::AccessCounter cluster_counter;
  // One fetch per node for the whole cluster (the double-charge fix):
  // attributed to the first wanting query, classified shared when >= 2
  // queries read it. Per-query misses therefore partition the cluster's
  // unique-page misses.
  auto charge = [&](const rtree::RStarTree::Node* node,
                    const std::vector<uint32_t>& wanted) {
    return rtree::ChargeBatchNodeAccess(node, &pq[wanted.front()].out->einn_accesses,
                                        &cluster_counter, wanted.size() >= 2, pager);
  };

  auto expand = [&](const rtree::RStarTree::Node* node,
                    const std::vector<uint32_t>& wanted) {
    for (const rtree::RStarTree::Slot& s : node->slots) {
      if (node->IsLeaf()) {
        for (uint32_t j : wanted) {
          PerQuery& p = pq[j];
          double d = geom::Dist(p.in->q, s.object.position);
          // Lower-bound-known objects feed the dynamic bound but are never
          // reported — including the boundary id-cut rule of the sequential
          // iterator (knn.cc): a co-distant object past the client's rank
          // cut lost the id tie-break and must still be reported.
          if (p.in->bounds.lower.has_value() &&
              (d < *p.in->bounds.lower ||
               // senn-lint: allow(L5-float-eq): bit-exact boundary tie —
               // the client's lower bound is a cached radius from the same
               // Dist() chain; same rule as the sequential EINN leaf scan.
               (d == *p.in->bounds.lower && s.object.id <= p.in->bounds.lower_id_cut))) {
            feed(p, d);
            continue;
          }
          if (d > eff_upper(p)) continue;
          feed(p, d);
          if (p.needed <= 0) continue;
          if (static_cast<int>(p.cand.size()) < p.needed) {
            p.cand.push_back({s.object, d});
            std::push_heap(p.cand.begin(), p.cand.end(), by_rank);
          } else if (RanksBefore(d, s.object.id, p.cand.front().distance,
                                 p.cand.front().object.id)) {
            std::pop_heap(p.cand.begin(), p.cand.end(), by_rank);
            p.cand.back() = {s.object, d};
            std::push_heap(p.cand.begin(), p.cand.end(), by_rank);
          }
        }
      } else {
        NodeItem item;
        item.node = s.child.get();
        item.mbr = s.mbr;
        double key = kInf;
        for (uint32_t j : wanted) {
          PerQuery& p = pq[j];
          const double mindist = s.mbr.MinDist(p.in->q);
          if (!wants_node(p, mindist, s.mbr.MaxDist(p.in->q))) continue;
          item.wanted.push_back(j);
          key = std::min(key, mindist);
        }
        if (item.wanted.empty()) continue;
        item.key = key;
        item.seq = push_seq++;
        if (mode == rtree::AccessCountMode::kOnEnqueue) {
          // Enqueue accounting fetches the child as it enters the queue;
          // the pin is transient (expansion reads the queued copy).
          if (charge(item.node, item.wanted)) pager->Unpin(item.node);
        }
        queue.push(std::move(item));
      }
    }
  };

  // The root is always fetched once for the cluster, in both accounting
  // modes — the batch mirror of the sequential constructor's root charge.
  {
    std::vector<uint32_t> all(m);
    for (uint32_t j = 0; j < m; ++j) all[j] = j;
    const bool pinned = charge(tree.root(), all);
    expand(tree.root(), all);
    if (pinned) pager->Unpin(tree.root());
  }

  while (!queue.empty()) {
    NodeItem item = queue.top();
    queue.pop();
    // Pop-time re-check against the tightened per-query state: a node every
    // pushing query has since pruned is skipped — without a fetch in expand
    // accounting (enqueue accounting already charged it, like the
    // sequential iterator charges queued-but-prunable nodes).
    std::vector<uint32_t> live;
    live.reserve(item.wanted.size());
    for (uint32_t j : item.wanted) {
      const PerQuery& p = pq[j];
      if (wants_node(p, item.mbr.MinDist(p.in->q), item.mbr.MaxDist(p.in->q))) {
        live.push_back(j);
      }
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
