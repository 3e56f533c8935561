// Server-side batch answering: one shared EINN traversal per cluster of
// co-located queries.
//
// Under heavy traffic many concurrent mobile hosts issue kNN queries whose
// search regions overlap the same R*-tree pages, yet SpatialServer::QueryKnn
// answers each with an independent traversal over the buffer pool (ROADMAP
// item 4; the paper's Figs. 13-16 are exactly this regime). BRkNN-light's
// trick applies: group queries by query-point proximity and answer a whole
// group with ONE best-first traversal that keeps per-query bounds, so a page
// wanted by several queries is fetched (and charged) once.
//
// Algorithm: the best-first kernel (rtree/best_first.h; DESIGN.md 5⅔, 5¾) with
// the cluster policy, per cluster of m >= 2 queries:
//  * one queue of index nodes keyed by the MINIMUM MINDIST over the
//    queries that want the node, equal keys in push order;
//  * per query, sequential EINN's prune state (rtree::KnnState: static
//    bounds with the lower-bound id cut, the dynamic top-k bound, a bounded
//    candidate bag under the (distance, id) rank);
//  * a node is skipped only when EVERY live query prunes it — by the upper
//    bound, downward (MAXDIST < lower) pruning, or a full candidate bag it
//    cannot improve — at push and again at pop;
//  * each visited node is fetched and charged ONCE for the cluster
//    (rtree::ChargeBatchNodeAccess), attributed to the first wanting query
//    and classified shared/private in the cluster counter, so per-query
//    misses sum exactly to the traversal's unique-page misses;
//  * early stop once the front key exceeds the largest reach (effective
//    upper bound, tightened to the worst candidate once the bag is full)
//    of the queries still short of answers: what is left are the dead pops
//    of a full drain, so no counter moves.
//
// Equivalence contract (enforced by tests/core/batch_diff_test.cpp, not by
// inspection): for system-consistent inputs — bounds computed by
// CandidateHeap::ComputeBounds from a certified rank prefix of
// `already_certified` POIs, as every SennProcessor server contact ships —
// the per-query replies are BITWISE identical to sequential
// SpatialServer::QueryKnn answers: the k - already_certified best POIs
// outside the client's certain set, ascending by (distance, id), with
// distances from the same geom::Dist evaluations. Singleton clusters (and
// max_group == 1) delegate to SpatialServer::QueryKnn verbatim, so a batch
// size of 1 is byte-identical to the sequential path, accounting
// included.
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/server.h"
#include "src/core/types.h"
#include "src/geom/mbr.h"
#include "src/geom/vec2.h"
#include "src/rtree/best_first.h"
#include "src/rtree/knn.h"
#include "src/rtree/rstar_tree.h"

namespace senn::obs {
class MetricsRegistry;
class QueryTracer;
}  // namespace senn::obs

namespace senn::core {

/// One request of a batch: exactly the arguments of SpatialServer::QueryKnn.
struct BatchQuery {
  geom::Vec2 q;
  /// Total result size including the client's certified POIs (k <= 0 is a
  /// degenerate request answered with an empty reply).
  int k = 1;
  /// EINN prune bounds shipped by the client (Section 3.3).
  rtree::PruneBounds bounds;
  /// Client-certified POIs inside bounds.lower; the reply returns only
  /// k - already_certified new neighbors.
  int already_certified = 0;
};

/// Batch-answering knobs.
struct BatchOptions {
  /// Side of the square clustering tiles (the neighbor_grid idiom: queries
  /// whose points fall in the same tile share one traversal). Values <= 0
  /// clamp to 1 m.
  double cluster_cell_m = 500.0;
  /// Maximum queries per shared traversal; a tile with more splits into
  /// chunks of this size. 1 disables sharing (every query delegates to the
  /// sequential path).
  int max_group = 8;
};

/// Cumulative batch-path counters.
struct BatchStats {
  /// Queries answered through AnswerBatch (batched + singleton).
  uint64_t queries = 0;
  /// Shared traversals run (clusters of size >= 2).
  uint64_t clusters = 0;
  /// Queries answered by a shared traversal.
  uint64_t batched_queries = 0;
  /// Queries delegated to SpatialServer::QueryKnn (singleton clusters).
  uint64_t singleton_queries = 0;
  /// Cluster-level accesses of the shared traversals: each visited node
  /// counts once per cluster, misses split shared/private by how many
  /// queries wanted the page.
  rtree::AccessCounter shared_traversal;
};

/// Answers groups of kNN requests with shared traversals over a
/// SpatialServer's tree and storage engine. The server must outlive the
/// BatchServer. Not thread-safe (one batch at a time, like the server).
class BatchServer {
 public:
  explicit BatchServer(SpatialServer* server, BatchOptions options = {});

  /// Clusters `queries` (FormClusters) and answers every cluster with one
  /// shared traversal; `replies[i]` answers `queries[i]`. Singleton clusters
  /// delegate to SpatialServer::QueryKnn. Every answered query is folded
  /// into the server's ServerStats. `tracer`, when given, receives one
  /// server_batch_einn span per shared traversal (pages, misses, shared
  /// split); `metrics` collects per-cluster counters/histograms under
  /// "batch/". Pass
  /// `cluster_sizes` to observe the formed cluster sizes (appended in
  /// cluster order).
  std::vector<ServerReply> AnswerBatch(const std::vector<BatchQuery>& queries,
                                       obs::QueryTracer* tracer = nullptr,
                                       obs::MetricsRegistry* metrics = nullptr,
                                       std::vector<size_t>* cluster_sizes = nullptr);

  /// Deterministic cluster formation (exposed for the formation tests):
  /// queries map to square tiles of cluster_cell_m (floor division, so a
  /// point exactly on a tile boundary belongs to the higher tile), tiles are
  /// processed in (x-tile, y-tile) order, members within a tile are put in
  /// canonical content order (query point, k, bounds, certified count; ties
  /// by input index), and tiles larger than max_group split into chunks in
  /// that order. The assignment is a pure function of the query MULTISET:
  /// shuffling the input permutes only content-identical queries, which are
  /// interchangeable by construction.
  std::vector<std::vector<size_t>> FormClusters(
      const std::vector<BatchQuery>& queries) const;

  const BatchStats& stats() const { return stats_; }
  const BatchOptions& options() const { return options_; }
  void ResetStats() { stats_ = BatchStats{}; }

  /// The shared traversal's reusable state: the kernel heap, per query
  /// its EINN state, and per queued node (indexed by push sequence) its MBR
  /// and push-time wanting queries, a range of one arena of cluster-local
  /// query indices. Reused from cluster to cluster.
  struct ClusterScratch {
    struct Query {
      ServerReply* out = nullptr;
      rtree::KnnState state;
    };
    struct Queued {
      const geom::Mbr* mbr = nullptr;
      uint32_t wanted_begin = 0;
      uint32_t wanted_count = 0;
    };
    std::vector<rtree::QueuedNode> heap;
    std::vector<Query> queries;
    std::vector<Queued> queued;
    std::vector<uint32_t> wanted_arena;
    /// The wanting queries of the node being expanded.
    std::vector<uint32_t> live;
  };

 private:
  void AnswerCluster(const std::vector<BatchQuery>& queries,
                     const std::vector<size_t>& members,
                     std::vector<ServerReply>* replies, obs::QueryTracer* tracer,
                     obs::MetricsRegistry* metrics);

  SpatialServer* server_;
  BatchOptions options_;
  BatchStats stats_;
  ClusterScratch scratch_;
};

}  // namespace senn::core
