#include "src/core/batch_server.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
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
  // max_group then yields the clusters. A tile index stays the floor's
  // double: any finite request is valid, and p / cell past the int64_t range
  // (or infinite, for a cell under 1 m) would make an integer cast undefined.
  const double cell = options_.cluster_cell_m;
  std::vector<std::pair<double, double>> tile(queries.size());
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const geom::Vec2 p = queries[i].q;
    tile[i] = {std::floor(p.x / cell), std::floor(p.y / cell)};
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
      // A cluster of one runs the sequential EINN policy: exactly a
      // QueryKnn call (ServerStats bookkeeping included), which makes batch
      // size 1 byte-identical to the sequential path. The cluster policy's
      // pop-time re-check and candidate reach would charge a lone query
      // differently under enqueue accounting and through a pool.
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

namespace {

/// The shared traversal's policy (the algorithm of batch_server.h): every
/// live query prunes, at push and again at pop; one charge per node for
/// the cluster; the reach is the largest reach of the queries.
struct ClusterPolicy {
  const rtree::PackedTree& tree;
  storage::NodePager* pager;
  BatchServer::ClusterScratch& scratch;
  /// The cluster's queries: a prefix of scratch.queries.
  std::span<BatchServer::ClusterScratch::Query> queries;
  rtree::AccessCounter* cluster_counter;

  std::span<const uint32_t> WantedAt(uint32_t seq) const {
    const BatchServer::ClusterScratch::Queued& queued = scratch.queued[seq];
    return std::span<const uint32_t>(scratch.wanted_arena)
        .subspan(queued.wanted_begin, queued.wanted_count);
  }

  /// One fetch per node for the whole cluster: attributed to the first
  /// wanting query, classified shared when two or more queries read it, so
  /// per-query misses partition the cluster's unique-page misses.
  bool Charge(rtree::NodeId id, uint32_t seq) {
    const std::span<const uint32_t> wanted =
        seq == rtree::kExpanding ? std::span<const uint32_t>(scratch.live) : WantedAt(seq);
    return rtree::ChargeBatchNodeAccess(tree, id,
                                        &queries[wanted.front()].out->einn_accesses,
                                        cluster_counter, wanted.size() >= 2, pager);
  }

  /// Queues the child under the least MINDIST of the expanding node's live
  /// queries that want it; they are recorded, indexed by push sequence, in
  /// the arena (which `live` never aliases). A query wants a node unless
  /// the upper bound, downward pruning or its full candidate bag rules it
  /// out; MINDIST equal to the worst candidate's distance survives, since
  /// the node may hold a co-distant object of smaller id.
  bool Queue(const rtree::PackedTree::Branch& b, uint32_t, double* key) {
    const uint32_t begin = static_cast<uint32_t>(scratch.wanted_arena.size());
    *key = kInf;
    for (uint32_t j : scratch.live) {
      const rtree::KnnState& p = queries[j].state;
      const double mindist = b.mbr.MinDist(p.q());
      if (!p.Admits(b.mbr, mindist, p.reach())) continue;
      scratch.wanted_arena.push_back(j);
      *key = std::min(*key, mindist);
    }
    const uint32_t count = static_cast<uint32_t>(scratch.wanted_arena.size()) - begin;
    if (count == 0) return false;
    scratch.queued.push_back({&b.mbr, begin, count});
    return true;
  }

  void ScanLeaf(std::span<const rtree::ObjectEntry> objects) {
    // Per-query state is independent: each live query scans the leaf.
    for (uint32_t j : scratch.live) queries[j].state.Scan(objects);
  }

  /// The node's push-time wanting queries that still want it become the
  /// live list; a node none wants is skipped unfetched.
  bool Admit(const rtree::QueuedNode& item) {
    const geom::Mbr& mbr = *scratch.queued[item.seq].mbr;
    scratch.live.clear();
    for (uint32_t j : WantedAt(item.seq)) {
      const rtree::KnnState& p = queries[j].state;
      if (p.Admits(mbr, mbr.MinDist(p.q()), p.reach())) scratch.live.push_back(j);
    }
    return !scratch.live.empty();
  }

  /// A query that needs no answer has reach -inf, so it never extends this.
  double Reach() const {
    double reach = -kInf;
    for (const BatchServer::ClusterScratch::Query& p : queries) {
      reach = std::max(reach, p.state.reach());
    }
    return reach;
  }
};

}  // namespace

void BatchServer::AnswerCluster(const std::vector<BatchQuery>& queries,
                                const std::vector<size_t>& members,
                                std::vector<ServerReply>* replies,
                                obs::QueryTracer* tracer, obs::MetricsRegistry* metrics) {
  const uint32_t m = static_cast<uint32_t>(members.size());
  obs::ScopedSpan span(tracer, obs::Phase::kServerBatchEinn);

  // Per-query prune state: sequential EINN's state, with the bag sized to
  // the answers the query still needs. The root is expanded for all of them.
  // The states only grow in number, so their storage is reused.
  if (scratch_.queries.size() < m) scratch_.queries.resize(m);
  const std::span<ClusterScratch::Query> cluster(scratch_.queries.data(), m);
  scratch_.queued.clear();
  scratch_.wanted_arena.clear();
  scratch_.live.clear();
  for (uint32_t j = 0; j < m; ++j) {
    const BatchQuery& bq = queries[members[j]];
    cluster[j].out = &(*replies)[members[j]];
    cluster[j].state.Reset(bq.q, bq.bounds, bq.k, std::max(0, bq.k - bq.already_certified));
    scratch_.live.push_back(j);
  }

  rtree::AccessCounter cluster_counter;
  ClusterPolicy policy{server_->tree(), server_->mutable_pager(), scratch_, cluster,
                       &cluster_counter};
  rtree::BestFirstSearch(server_->tree(), server_->count_mode(), server_->mutable_pager(),
                         &scratch_.heap, policy);

  // Per-query finalization: candidates in ascending rank order become the
  // reply, then the ServerStats fold — exactly what QueryKnn records.
  for (ClusterScratch::Query& p : cluster) {
    const std::span<const rtree::Candidate> found = p.state.candidates.Sorted();
    p.out->neighbors.reserve(found.size());
    for (const rtree::Candidate& c : found) {
      p.out->neighbors.push_back({c.object->id, c.object->position, c.distance});
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
