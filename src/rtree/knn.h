// Nearest-neighbor search algorithms over the packed R*-tree
// (rtree/packed_tree.h).
//
//  * DepthFirstKnn    — branch-and-bound kNN (Roussopoulos, Kelley, Vincent,
//                       SIGMOD 1995); the single-step baseline.
//  * EinnSearch       — the optimal incremental NN algorithm (INN) of
//                       Hjaltason & Samet (TODS 1999): best-first in
//                       MINDIST order, reporting neighbors in ascending
//                       distance, run on the node-only kernel of
//                       best_first.h.
//  * EINN             — the paper's extension (Section 3.3): the best-first
//                       search additionally computes MAXDIST and applies two
//                       pruning rules derived from the client's candidate
//                       heap H:
//                         downward pruning: drop any MBR with
//                           MAXDIST(Q, M) < lower_bound  (M lies fully inside
//                           the already-certain disk C_r, so every object in
//                           it is already known to the client);
//                         upward pruning: drop any MBR with
//                           MINDIST(Q, M) > upper_bound  (the client already
//                           holds k candidates within upper_bound).
//                       Objects at distance <= lower_bound are also skipped:
//                       the client certified them locally.
#pragma once

#include <span>
#include <vector>

#include "src/geom/vec2.h"
#include "src/rtree/best_first.h"
#include "src/rtree/packed_tree.h"
#include "src/rtree/rstar_tree.h"

namespace senn::rtree {

/// A search hit: object plus its Euclidean distance to the query point.
struct Neighbor {
  ObjectEntry object;
  double distance = 0.0;
};

/// Returns the k nearest objects to `query` in ascending distance order
/// using depth-first branch-and-bound. Counts node accesses into `counter`
/// when provided; `hook` routes each access through the storage engine
/// (pages are pinned only while a node's entries are read, so the traversal
/// needs a single free frame). Returns fewer than k when the tree is
/// smaller than k.
std::vector<Neighbor> DepthFirstKnn(const PackedTree& tree, geom::Vec2 query, int k,
                                    AccessCounter* counter = nullptr,
                                    NodePageHook* hook = nullptr);

/// One sequential EINN search.
struct EinnQuery {
  geom::Vec2 q;
  /// The client's pruning bounds; {} for plain INN.
  PruneBounds bounds;
  /// How many objects to report (k - already_certified for a server
  /// request); the search stops once these are certain.
  int needed = 0;
  /// When > 0, also prune against the distance of the prune_to_k-th
  /// nearest object seen so far, client-certified ones included (the
  /// standard best-first kNN optimization).
  int prune_to_k = 0;
  AccessCountMode count_mode = AccessCountMode::kOnExpand;
};

/// Runs one EINN search on the best-first kernel: the `needed` best
/// objects by (distance, id) that the client does not already hold and
/// that pass the bounds, ascending. Node accesses are charged into
/// `counter` (may be null) and routed through `hook` when attached. Prune
/// at push against the bounds and the dynamic k-th distance, no re-check
/// at pop, stop once the needed-th candidate is nearer than every queued
/// node, which is exactly what a best-first search queuing objects beside
/// nodes reads and reports. The returned span lives in `scratch` until its
/// next search.
std::span<const Candidate> EinnSearch(const PackedTree& tree, const EinnQuery& query,
                                      BestFirstScratch* scratch, AccessCounter* counter,
                                      NodePageHook* hook = nullptr);

/// The k nearest objects by (E)INN with kOnExpand accounting and no
/// dynamic bound; k <= 0 reads no page.
std::vector<Neighbor> BestFirstKnn(const PackedTree& tree, geom::Vec2 query, int k,
                                   PruneBounds bounds = {}, AccessCounter* counter = nullptr,
                                   NodePageHook* hook = nullptr);

}  // namespace senn::rtree
