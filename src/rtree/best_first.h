// The one best-first kernel over the packed R*-tree (DESIGN.md 5⅔): a
// queue of nodes only, ordered by (key, push sequence), with objects kept
// in per-query bags. Sequential EINN (knn.h), the region-aware search
// (core::SpatialServer) and the shared traversal of a query cluster
// (core::BatchServer) are BestFirstSearch with different policies. The
// kernel allocates nothing: its heap and bags are the caller's scratch.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "src/common/rank.h"
#include "src/geom/mbr.h"
#include "src/geom/vec2.h"
#include "src/rtree/packed_tree.h"
#include "src/rtree/rstar_tree.h"

namespace senn::rtree {

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
///
/// The root is charged in both modes.
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

/// One queued node.
struct QueuedNode {
  double key = 0.0;
  /// Push sequence number: the tie rule, and the index of any per-node
  /// side data a policy records at push time.
  uint32_t seq = 0;
  NodeId node = 0;
};

/// The heap order as a std::push_heap "greater": ascending key, equal keys
/// in push order (never by heap layout or node identity).
struct QueuedNodeGreater {
  bool operator()(const QueuedNode& a, const QueuedNode& b) const {
    // senn-lint: allow(L5-float-eq): strict-weak-order tie detection — keys
    // from the same MinDist path tie only when bit-identical, and exact ties
    // must fall through to the push-order rule.
    if (a.key != b.key) return a.key > b.key;
    return a.seq > b.seq;
  }
};

/// A found object: its distance and its entry in the tree's leaf array.
struct Candidate {
  double distance = 0.0;
  const ObjectEntry* object = nullptr;
};

inline bool CandidateBefore(const Candidate& a, const Candidate& b) {
  return senn::RanksBefore(a.distance, a.object->id, b.distance, b.object->id);
}

/// The best `capacity` candidates offered, under the (distance, id) rank:
/// a max-heap whose front is the worst kept candidate.
class CandidateBag {
 public:
  void Reset(int capacity) {
    capacity_ = static_cast<size_t>(std::max(0, capacity));
    items_.clear();
  }
  void Offer(double d, const ObjectEntry& object) {
    if (items_.size() < capacity_) {
      items_.push_back({d, &object});
      std::push_heap(items_.begin(), items_.end(), CandidateBefore);
    } else if (capacity_ > 0 && CandidateBefore({d, &object}, items_.front())) {
      std::pop_heap(items_.begin(), items_.end(), CandidateBefore);
      items_.back() = {d, &object};
      std::push_heap(items_.begin(), items_.end(), CandidateBefore);
    }
  }
  /// The largest MINDIST a node may have and still improve the bag: +inf
  /// while it has room, the worst kept distance once full (a node at that
  /// MINDIST may hold a co-distant object of smaller id), -inf at capacity 0.
  double Reach() const {
    if (items_.size() < capacity_) return std::numeric_limits<double>::infinity();
    return capacity_ == 0 ? -std::numeric_limits<double>::infinity() : items_.front().distance;
  }
  /// The kept candidates ascending by rank (the bag is spent).
  std::span<const Candidate> Sorted() {
    std::sort_heap(items_.begin(), items_.end(), CandidateBefore);
    return items_;
  }

 private:
  size_t capacity_ = 0;
  std::vector<Candidate> items_;
};

/// One query's EINN state: its bounds, the k smallest distances seen (the
/// dynamic k-th-distance bound of best-first kNN) and its CandidateBag.
class KnnState {
 public:
  /// `prune_k` <= 0 keeps no dynamic bound; `needed` sizes the bag.
  void Reset(geom::Vec2 q, const PruneBounds& bounds, int prune_k, int needed) {
    q_ = q;
    bounds_ = bounds;
    upper_ = bounds.upper.value_or(std::numeric_limits<double>::infinity());
    bound_ = upper_;
    prune_k_ = static_cast<size_t>(std::max(0, prune_k));
    distances_.clear();
    candidates.Reset(needed);
  }
  geom::Vec2 q() const { return q_; }
  /// min(upper bound, k-th smallest distance seen once there are k).
  double bound() const { return bound_; }
  /// The largest MINDIST that can still improve the answer: the bound,
  /// tightened to the worst candidate once the bag is full.
  double reach() const { return std::min(bound_, candidates.Reach()); }
  bool bound_saturated() const { return prune_k_ > 0 && distances_.size() >= prune_k_; }

  void Feed(double d) {
    if (prune_k_ == 0) return;
    if (distances_.size() < prune_k_) {
      distances_.push(d);
    } else if (d < distances_.top()) {
      distances_.pop();
      distances_.push(d);
    }
    if (bound_saturated()) bound_ = std::min(upper_, distances_.top());
  }

  /// The push-time rule: a node is worth queuing unless its MINDIST exceeds
  /// `limit` (upward pruning) or it lies inside the client's certain disk,
  /// MAXDIST < lower (downward pruning: only POIs the client verified).
  bool Admits(const geom::Mbr& mbr, double mindist, double limit) const {
    if (mindist > limit) return false;
    return !bounds_.lower.has_value() || mbr.MaxDist(q_) >= *bounds_.lower;
  }

  /// The leaf rule: objects the client holds — inside `lower`, or on it
  /// within the rank cut — feed the dynamic bound but are never offered;
  /// the rest within the bound are.
  void Scan(std::span<const ObjectEntry> objects) {
    for (const ObjectEntry& o : objects) {
      const double d = geom::Dist(q_, o.position);
      if (bounds_.lower.has_value() &&
          (d < *bounds_.lower ||
           // senn-lint: allow(L5-float-eq): bit-exact boundary tie — the
           // client's lower bound is the cached radius from the same Dist()
           // chain, and the id cut keeps co-distant tie-losers reportable.
           (d == *bounds_.lower && o.id <= bounds_.lower_id_cut))) {
        Feed(d);
        continue;
      }
      if (d > bound_) continue;
      Feed(d);
      candidates.Offer(d, o);
    }
  }

  CandidateBag candidates;

 private:
  geom::Vec2 q_;
  PruneBounds bounds_;
  double upper_ = 0.0;
  double bound_ = 0.0;
  size_t prune_k_ = 0;
  // A max-heap of bare values (equal values are indistinguishable, so its
  // internal order never shows); clear() keeps the storage for reuse.
  struct ValueHeap : std::priority_queue<double> {
    void clear() { c.clear(); }
  };
  ValueHeap distances_;
};

/// Reusable storage of single-query searches. One search at a time.
struct BestFirstScratch {
  std::vector<QueuedNode> heap;
  KnnState query;
};

/// Passed to Policy::Charge for the node about to be expanded.
inline constexpr uint32_t kExpanding = std::numeric_limits<uint32_t>::max();

/// The best-first loop. `Policy` provides:
///   bool   Charge(NodeId, uint32_t seq)  charge a node: the one about to be
///                                        expanded (seq == kExpanding), or
///                                        one just queued under `seq`;
///                                        true when `hook` pinned its page
///   bool   Queue(const Branch&, uint32_t seq, double* key)
///                                        push-time pruning: false drops the
///                                        child, true queues it at *key
///   void   ScanLeaf(std::span<const ObjectEntry>)
///   bool   Admit(const QueuedNode&)      pop-time re-check; false skips the
///                                        node uncharged
///   double Reach()                       the largest key still wanted
/// The root is always charged and expanded. Returns the key that stopped
/// the search, or +inf when the queue ran dry.
template <class Policy>
double BestFirstSearch(const PackedTree& tree, AccessCountMode mode, NodePageHook* hook,
                       std::vector<QueuedNode>* heap, Policy& policy) {
  heap->clear();
  uint32_t seq = 0;
  auto expand = [&](NodeId id) {
    const PackedTree::Node& node = tree.node(id);
    if (node.IsLeaf()) {
      policy.ScanLeaf(tree.objects(node));
      return;
    }
    for (const PackedTree::Branch& b : tree.branches(node)) {
      double key = 0.0;
      if (!policy.Queue(b, seq, &key)) continue;
      // Enqueue accounting fetches the child as it enters the queue; the
      // pin is transient (expansion later reads the queued copy).
      if (mode == AccessCountMode::kOnEnqueue && policy.Charge(b.child, seq)) {
        hook->Unpin(b.child);
      }
      heap->push_back({key, seq++, b.child});
      std::push_heap(heap->begin(), heap->end(), QueuedNodeGreater{});
    }
  };
  const bool root_pinned = policy.Charge(PackedTree::root(), kExpanding);
  expand(PackedTree::root());
  if (root_pinned) hook->Unpin(PackedTree::root());
  while (!heap->empty()) {
    const double front = heap->front().key;
    if (front > policy.Reach()) return front;
    std::pop_heap(heap->begin(), heap->end(), QueuedNodeGreater{});
    const QueuedNode item = heap->back();
    heap->pop_back();
    if (!policy.Admit(item)) continue;
    const bool pinned =
        mode == AccessCountMode::kOnExpand && policy.Charge(item.node, kExpanding);
    expand(item.node);
    if (pinned) hook->Unpin(item.node);
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace senn::rtree
