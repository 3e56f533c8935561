// Nearest-neighbor search algorithms over the packed R*-tree
// (rtree/packed_tree.h).
//
//  * DepthFirstKnn    — branch-and-bound kNN (Roussopoulos, Kelley, Vincent,
//                       SIGMOD 1995); the single-step baseline.
//  * BestFirstNnIterator — the optimal incremental NN algorithm (INN) of
//                       Hjaltason & Samet (TODS 1999): a priority queue of
//                       nodes/objects ordered by MINDIST, reporting neighbors
//                       in ascending distance without a-priori k.
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

#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "src/geom/vec2.h"
#include "src/rtree/packed_tree.h"
#include "src/rtree/rstar_tree.h"

namespace senn::rtree {

/// A search hit: object plus its Euclidean distance to the query point.
struct Neighbor {
  ObjectEntry object;
  double distance = 0.0;
};

/// When a node access is charged during best-first search.
///
///  * kOnExpand  — a node is charged when it is popped and its entries are
///    read (the I/O-minimal accounting; best-first reads exactly the nodes
///    it must).
///  * kOnEnqueue — a node is charged when it is placed on the priority
///    queue (the accounting style whose magnitudes and EINN-vs-INN savings
///    match the paper's Figure 17: nodes that are fetched into the queue
///    but never expanded still count, so the upper bound's enqueue-time
///    pruning shows up as saved pages).
enum class AccessCountMode {
  kOnExpand = 0,
  kOnEnqueue = 1,
};

/// Bounds shipped from a mobile host's candidate heap H to the server
/// (Section 3.3 of the paper). Either bound may be absent, depending on the
/// heap state (States 1-6).
struct PruneBounds {
  /// Branch-expanding lower bound: distance of the last *certain* entry in
  /// H. Everything within this disk is already known to the client.
  std::optional<double> lower;
  /// Branch-expanding upper bound: distance of the k-th (last) entry in H.
  /// No true nearest neighbor can lie beyond it.
  std::optional<double> upper;
  /// Id of the client's worst-ranked certified object — the (distance, id)
  /// rank cut that `lower` abbreviates. The client's certain set is a rank
  /// prefix, so an object at distance exactly `lower` is known to the
  /// client only if its id is <= this cut: co-distant objects that lost the
  /// id tie-break at the prefix boundary must still be reported. The
  /// default (max) skips every object at the lower bound, which is the
  /// correct reading when the cut id is unknown-but-maximal and matches the
  /// historical behavior for callers that set `lower` alone.
  int64_t lower_id_cut = std::numeric_limits<int64_t>::max();
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

/// One best-first queue entry: a node, or an object found in a leaf.
struct BestFirstItem {
  double key = 0.0;    // MINDIST for nodes, distance for objects
  uint32_t index = 0;  // the NodeId of a node; an object's leaf-array index
  bool is_node = false;
};

/// The best-first pop order, as a std::priority_queue "greater": ascending
/// key; at equal key nodes before objects, and co-distant objects in
/// ascending id. Nodes of equal key compare equal: their pop order is a
/// deterministic function of the push sequence.
class BestFirstGreater {
 public:
  explicit BestFirstGreater(const PackedTree* tree) : tree_(tree) {}
  bool operator()(const BestFirstItem& a, const BestFirstItem& b) const {
    // senn-lint: allow(L5-float-eq): strict-weak-order tie detection —
    // keys from the same MinDist/Dist path tie only when bit-identical,
    // and exact ties must reach the node/object and id rules below.
    if (a.key != b.key) return a.key > b.key;
    // At equal key a node must pop before an object: its MINDIST equals
    // the object's distance, so it may still contain a co-distant object
    // of smaller id. Co-distant objects pop in ascending id, making the
    // reported neighbor sequence follow the system (distance, id) rank
    // order.
    if (a.is_node != b.is_node) return b.is_node;
    if (!a.is_node) return tree_->object(a.index).id > tree_->object(b.index).id;
    return false;
  }

 private:
  const PackedTree* tree_;
};

/// Incremental best-first nearest-neighbor iterator (INN), optionally with
/// EINN pruning bounds. Next() reports objects in non-decreasing distance.
class BestFirstNnIterator {
 public:
  /// Creates an iterator over `tree` (which must outlive the iterator).
  /// `bounds` enables the EINN pruning rules; pass {} for plain INN.
  ///
  /// `prune_to_k`, when set, declares that only the k nearest objects
  /// OVERALL are of interest: the iterator then additionally prunes against
  /// the distance of the k-th nearest object discovered so far (the standard
  /// best-first kNN optimization — safe because no node or object beyond
  /// that distance can contribute to the top k). Objects skipped because
  /// they lie inside the client's certain disk (bounds.lower) still count
  /// toward the k. Only the first k (minus any lower-bound-known) results
  /// are guaranteed complete; entries already enqueued before the bound
  /// tightened may still be reported afterwards.
  /// `hook`, when attached, routes every charged access through the paged
  /// storage engine. In kOnExpand mode the node's page is pinned while its
  /// entries are read; in kOnEnqueue mode the pin is transient at enqueue
  /// time (the accounting style fetches a node when it enters the queue,
  /// and expansion reads the queued copy).
  BestFirstNnIterator(const PackedTree& tree, geom::Vec2 query, PruneBounds bounds = {},
                      AccessCountMode count_mode = AccessCountMode::kOnExpand,
                      std::optional<int> prune_to_k = std::nullopt,
                      NodePageHook* hook = nullptr);

  /// Returns the next nearest object, or nullopt when the search space is
  /// exhausted (including exhausted-by-upper-bound).
  std::optional<Neighbor> Next();

  /// Node accesses performed so far.
  const AccessCounter& accesses() const { return accesses_; }

 private:
  void ExpandNode(NodeId id);
  /// Records an object distance into the dynamic top-k bound.
  void FeedDynamicBound(double distance);
  /// The tightest known upper limit on distances worth exploring.
  double EffectiveUpper() const;

  const PackedTree* tree_;
  geom::Vec2 query_;
  PruneBounds bounds_;
  AccessCountMode count_mode_;
  std::optional<int> prune_to_k_;
  NodePageHook* hook_ = nullptr;
  // Max-heap of the best prune_to_k_ object distances discovered so far.
  std::priority_queue<double> best_distances_;
  std::priority_queue<BestFirstItem, std::vector<BestFirstItem>, BestFirstGreater> queue_;
  AccessCounter accesses_;
};

/// Convenience wrapper: the first k results of the (E)INN iterator.
std::vector<Neighbor> BestFirstKnn(const PackedTree& tree, geom::Vec2 query, int k,
                                   PruneBounds bounds = {}, AccessCounter* counter = nullptr,
                                   NodePageHook* hook = nullptr);

}  // namespace senn::rtree
