// The remote spatial database server.
//
// Indexes the POI data set with an R*-tree (branching factor 30, as in the
// paper) and answers kNN queries with EINN — the best-first incremental NN
// algorithm extended with the client's pruning bounds (Section 3.3) —
// recording the node (page) accesses of each answering traversal.
//
// The paper's server module also runs the original INN algorithm beside
// EINN "to compare the performance improvement with respect to page
// accesses" (Section 4.4). That comparison is an evaluation tool, not part
// of answering a query, so the server never runs it on its own: the
// simulator, which measures it, asks for it explicitly through
// InnBaseline().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/core/server_link.h"
#include "src/core/types.h"
#include "src/geom/circle.h"
#include "src/geom/vec2.h"
#include "src/rtree/knn.h"
#include "src/rtree/packed_tree.h"
#include "src/rtree/rstar_tree.h"
#include "src/storage/node_pager.h"

namespace senn::obs {
class QueryTracer;
}

namespace senn::core {

/// Cumulative server-side counters of the answering traversals.
struct ServerStats {
  uint64_t queries = 0;
  rtree::AccessCounter einn;
};

/// The tree entries of `pois`, in order: one (position, id) per POI.
std::vector<rtree::ObjectEntry> PoiEntries(std::span<const Poi> pois);

/// The spatial database server. The packed R*-tree (rtree/packed_tree.h)
/// is its only copy of the POI set: the constructor consumes its input, and
/// the STR-sorted entries become the tree's leaf array. A server stays
/// where it was built (no copy, no move): its storage engine points at its
/// tree. It is the ServerLink of in-process clients, and `final`, so that
/// its own callers (the served path: core::BatchServer, rpc::QueryService)
/// call it directly.
class SpatialServer final : public ServerLink {
 public:
  /// Builds the R*-tree over the POI entries (PoiEntries) with STR,
  /// straight into the packed layout; DefaultTreeOptions() is the paper's
  /// branching factor of 30. Pass the entries by move: then they are the
  /// only full-size array of the build, sorted in place with a bounded
  /// buffer (rtree/bulk_load.h) into the tree's leaf array. `tree_options`
  /// has no default here, so a one-argument braced list such as
  /// `SpatialServer({})` still means POIs.
  ///
  /// `storage`, when given, puts a paged storage engine (src/storage/)
  /// under the tree: every answering traversal (EINN, the pruned range
  /// scan) fetches nodes through a buffer pool, so the reply's access
  /// counters additionally report physical misses. Logical access counts
  /// are identical with and without a pool.
  SpatialServer(std::vector<rtree::ObjectEntry> entries, rtree::RStarTree::Options tree_options,
                rtree::AccessCountMode count_mode = rtree::AccessCountMode::kOnExpand,
                std::optional<storage::BufferPoolOptions> storage = std::nullopt);
  /// The same server over POIs: converts them to entries, frees them and
  /// builds as above. A caller that can write entries directly spares the
  /// POI array.
  explicit SpatialServer(std::vector<Poi> pois,
                         rtree::RStarTree::Options tree_options = DefaultTreeOptions(),
                         rtree::AccessCountMode count_mode = rtree::AccessCountMode::kOnExpand,
                         std::optional<storage::BufferPoolOptions> storage = std::nullopt);
  SpatialServer(const SpatialServer&) = delete;
  SpatialServer& operator=(const SpatialServer&) = delete;

  static rtree::RStarTree::Options DefaultTreeOptions() {
    rtree::RStarTree::Options o;
    o.max_entries = 30;
    o.min_entries = 12;
    return o;
  }

  /// Answers a kNN query. `k` counts the client's locally-certified POIs:
  /// when `bounds.lower` is set and `certified` of the client's POIs lie at
  /// distance <= lower, the server needs to return only k - certified new
  /// neighbors; pass the number through `already_certified`.
  /// `tracer`, when given and a storage engine is configured, receives one
  /// buffer_fetch span bracketing the answering traversal's pool activity
  /// (hit/miss/eviction deltas).
  ServerReply QueryKnn(geom::Vec2 q, int k, rtree::PruneBounds bounds = {},
                       int already_certified = 0, obs::QueryTracer* tracer = nullptr) override;

  /// Region-aware kNN (extension beyond the paper's scalar bounds): the
  /// client ships its whole certain region R_c (the peer disks) plus the
  /// search horizon (its k-th candidate distance). The server runs a
  /// best-first search returning the nearest POIs that lie OUTSIDE the
  /// region — the client knows everything inside — with three prunings:
  /// the horizon, the running k-th-best distance over all objects seen
  /// (region-known ones count: they occupy client-side result ranks), and
  /// whole subtrees covered by the region (geom::MbrCoveredByDiskUnion).
  /// At most k POIs are returned — enough for the client to merge with its
  /// known set and take the exact top k; k <= 0 returns none and reads no
  /// page. `einn_accesses` holds the pruned search's pages. The coverage
  /// tests of one query share a fixed polygon-work budget; once it is spent
  /// the search prunes by distance alone, so a region of many disks cutting
  /// the same nodes costs pages, never unbounded geometry.
  ServerReply QueryKnnWithRegion(geom::Vec2 q, int k, double horizon,
                                 const std::vector<geom::Circle>& region,
                                 obs::QueryTracer* tracer = nullptr) override;

  /// The INSQ rival fetch of continuous queries (core/continuous.h): every
  /// POI within `radius` of q, ascending. Logical accesses only: the fetch
  /// rides on an answering contact, so it reads the tree without the buffer
  /// pool and leaves stats() untouched; `einn_accesses` holds its pages.
  ServerReply QueryRivals(geom::Vec2 q, double radius) override {
    return QueryRivals(q, radius, SIZE_MAX);
  }
  /// The same fetch, stopped once `max_rivals` POIs are found: the reply
  /// then holds `max_rivals` of the POIs in range (which ones depends on the
  /// tree walk) and its counter the pages read so far. rpc::QueryService
  /// bounds one request's work with it.
  ServerReply QueryRivals(geom::Vec2 q, double radius, size_t max_rivals);

  /// Answers a range query: every POI with inner < distance <= radius,
  /// ascending. `inner` is the client's certain radius (POIs inside it are
  /// already known to the client); subtrees fully inside the inner disk are
  /// pruned.
  ServerReply QueryRange(geom::Vec2 q, double radius, double inner = 0.0);

  /// The paper's comparison run: the page accesses plain INN (no pruning
  /// bounds) needs to find the k nearest POIs of q. It is hypothetical
  /// work, so it bypasses the buffer pool (its miss counters stay zero)
  /// and leaves stats() untouched; the result depends only on the tree, q,
  /// k and count_mode().
  rtree::AccessCounter InnBaseline(geom::Vec2 q, int k) const;

  size_t poi_count() const { return tree_.size(); }
  const rtree::PackedTree& tree() const { return tree_; }
  const ServerStats& stats() const { return stats_; }
  rtree::AccessCountMode count_mode() const { return count_mode_; }
  /// The paged storage engine, or null when the server runs in-memory.
  /// Note ResetStats() clears the query counters but not the pool's
  /// residency: a warmed pool is the steady state being measured.
  const storage::NodePager* pager() const { return pager_.get(); }
  /// Mutable storage engine for traversals run OUTSIDE this class (the
  /// batched answering path in core/batch_server, which drives the tree and
  /// the pool directly). Same object as pager(); null when in-memory.
  storage::NodePager* mutable_pager() { return pager_.get(); }
  /// Folds one externally-answered query into the cumulative ServerStats —
  /// the batched path answers through its own traversal but must show up in
  /// the same bookkeeping as QueryKnn-answered queries.
  void RecordAnsweredQuery(const rtree::AccessCounter& einn) {
    ++stats_.queries;
    stats_.einn += einn;
  }
  void ResetStats() { stats_ = ServerStats{}; }

 private:
  rtree::PackedTree tree_;
  rtree::AccessCountMode count_mode_;
  std::unique_ptr<storage::NodePager> pager_;
  ServerStats stats_;
  /// The best-first kernel's heap and bags, reused by every QueryKnn and
  /// QueryKnnWithRegion call (one query at a time, like the server).
  rtree::BestFirstScratch scratch_;
};

}  // namespace senn::core
