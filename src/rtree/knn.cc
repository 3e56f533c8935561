#include "src/rtree/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/rank.h"

namespace senn::rtree {

using geom::Vec2;

namespace {

// Recursive depth-first branch-and-bound. `heap` holds the current best k
// distances as a max-heap; prune subtrees whose MINDIST exceeds the current
// k-th distance.
void DfVisit(const PackedTree& tree, NodeId node_id, Vec2 query, int k,
             std::vector<Neighbor>* best, AccessCounter* counter, NodePageHook* hook) {
  const bool pinned = ChargeNodeAccess(tree, node_id, counter, hook);
  const PackedTree::Node& node = tree.node(node_id);
  auto worst_distance = [&]() {
    return static_cast<int>(best->size()) < k
               ? std::numeric_limits<double>::infinity()
               : best->front().distance;
  };
  // Max-heap under the system (distance, id) rank order: the front is the
  // worst of the best k, and co-distant objects keep the smaller ids.
  auto by_rank = [](const Neighbor& a, const Neighbor& b) {
    return senn::RanksBefore(a.distance, a.object.id, b.distance, b.object.id);
  };
  auto beats_worst = [&](double d, int64_t id) {
    return static_cast<int>(best->size()) < k ||
           senn::RanksBefore(d, id, best->front().distance, best->front().object.id);
  };
  if (node.IsLeaf()) {
    for (const ObjectEntry& o : tree.objects(node)) {
      double d = geom::Dist(query, o.position);
      if (!beats_worst(d, o.id)) continue;
      if (static_cast<int>(best->size()) == k) {
        std::pop_heap(best->begin(), best->end(), by_rank);
        best->pop_back();
      }
      best->push_back({o, d});
      std::push_heap(best->begin(), best->end(), by_rank);
    }
    if (pinned) hook->Unpin(node_id);
    return;
  }
  // Visit children in MINDIST order (the classic heuristic) and prune with
  // the running k-th distance.
  std::vector<std::pair<double, NodeId>> children;
  children.reserve(node.count);
  for (const PackedTree::Branch& b : tree.branches(node)) {
    children.emplace_back(b.mbr.MinDist(query), b.child);
  }
  // The node's entries are fully read into `children`; unpin before
  // recursing so the depth-first path never holds more than one page pinned.
  if (pinned) hook->Unpin(node_id);
  std::sort(children.begin(), children.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [mindist, child] : children) {
    // Strict >: a child whose MINDIST ties the current k-th distance can
    // still hold a co-distant object with a smaller id that outranks it.
    if (mindist > worst_distance()) break;  // sorted: the rest are no better
    DfVisit(tree, child, query, k, best, counter, hook);
  }
}

}  // namespace

std::vector<Neighbor> DepthFirstKnn(const PackedTree& tree, Vec2 query, int k,
                                    AccessCounter* counter, NodePageHook* hook) {
  std::vector<Neighbor> best;  // max-heap by distance
  if (k <= 0) return best;
  best.reserve(static_cast<size_t>(k));
  DfVisit(tree, PackedTree::root(), query, k, &best, counter, hook);
  std::sort(best.begin(), best.end(), [](const Neighbor& a, const Neighbor& b) {
    return senn::RanksBefore(a.distance, a.object.id, b.distance, b.object.id);
  });
  return best;
}

BestFirstNnIterator::BestFirstNnIterator(const PackedTree& tree, Vec2 query,
                                         PruneBounds bounds, AccessCountMode count_mode,
                                         std::optional<int> prune_to_k, NodePageHook* hook)
    : tree_(&tree),
      query_(query),
      bounds_(bounds),
      count_mode_(count_mode),
      prune_to_k_(prune_to_k),
      hook_(hook),
      queue_(BestFirstGreater(&tree)) {
  // The root page is always fetched (in both accounting modes).
  const bool pinned = ChargeNodeAccess(tree, PackedTree::root(), &accesses_, hook_);
  ExpandNode(PackedTree::root());
  if (pinned) hook_->Unpin(PackedTree::root());
}

void BestFirstNnIterator::FeedDynamicBound(double distance) {
  // prune_to_k <= 0 declares no interest in any object; the degenerate bag
  // stays empty (top() on it would be UB) and the static bounds do all
  // pruning.
  if (!prune_to_k_.has_value() || *prune_to_k_ <= 0) return;
  if (static_cast<int>(best_distances_.size()) < *prune_to_k_) {
    best_distances_.push(distance);
  } else if (distance < best_distances_.top()) {
    best_distances_.pop();
    best_distances_.push(distance);
  }
}

double BestFirstNnIterator::EffectiveUpper() const {
  double upper = bounds_.upper.value_or(std::numeric_limits<double>::infinity());
  if (prune_to_k_.has_value() && *prune_to_k_ > 0 &&
      static_cast<int>(best_distances_.size()) >= *prune_to_k_) {
    upper = std::min(upper, best_distances_.top());
  }
  return upper;
}

void BestFirstNnIterator::ExpandNode(NodeId id) {
  // Accesses are charged by the caller: the constructor for the root, and
  // Next() (kOnExpand) or the enqueue site below (kOnEnqueue) otherwise, so
  // the page stays pinned exactly while the entries are read here.
  const PackedTree::Node& node = tree_->node(id);
  if (node.IsLeaf()) {
    for (uint32_t i = node.first; i < node.first + node.count; ++i) {
      const ObjectEntry& o = tree_->object(i);
      double d = geom::Dist(query_, o.position);
      // Objects inside the certain disk are already known to the client;
      // they still witness the dynamic top-k bound. On the disk's boundary
      // the client holds only the ids up to its rank cut — a co-distant
      // object past the cut was tie-broken out of the client's certain
      // prefix and must be reported like any other candidate.
      if (bounds_.lower.has_value() &&
          (d < *bounds_.lower ||
           // senn-lint: allow(L5-float-eq): bit-exact boundary tie — the
           // client's lower bound is the cached radius from the same Dist()
           // chain, and the id cut keeps co-distant tie-losers reportable.
           (d == *bounds_.lower && o.id <= bounds_.lower_id_cut))) {
        FeedDynamicBound(d);
        continue;
      }
      if (d > EffectiveUpper()) continue;
      FeedDynamicBound(d);
      queue_.push({d, i, false});
    }
    return;
  }
  for (const PackedTree::Branch& b : tree_->branches(node)) {
    double mindist = b.mbr.MinDist(query_);
    // Upward pruning: the true kNN all lie within the upper bound (the
    // shipped client bound and/or the running k-th-best distance).
    if (mindist > EffectiveUpper()) continue;
    // Downward pruning: MBRs fully inside the certain disk C_r contain
    // only POIs the client has already verified.
    if (bounds_.lower.has_value() && b.mbr.MaxDist(query_) < *bounds_.lower) continue;
    if (count_mode_ == AccessCountMode::kOnEnqueue) {
      // Enqueue accounting fetches the child page as it enters the queue;
      // the pin is transient (expansion later reads the queued copy).
      if (ChargeNodeAccess(*tree_, b.child, &accesses_, hook_)) hook_->Unpin(b.child);
    }
    queue_.push({mindist, b.child, true});
  }
}

std::optional<Neighbor> BestFirstNnIterator::Next() {
  while (!queue_.empty()) {
    const BestFirstItem item = queue_.top();
    queue_.pop();
    if (!item.is_node) return Neighbor{tree_->object(item.index), item.key};
    // Only non-root nodes reach the queue, so charging every expansion here
    // matches the historical "root at init, others on expand" counting.
    bool pinned = false;
    if (count_mode_ == AccessCountMode::kOnExpand) {
      pinned = ChargeNodeAccess(*tree_, item.index, &accesses_, hook_);
    }
    ExpandNode(item.index);
    if (pinned) hook_->Unpin(item.index);
  }
  return std::nullopt;
}

std::vector<Neighbor> BestFirstKnn(const PackedTree& tree, Vec2 query, int k,
                                   PruneBounds bounds, AccessCounter* counter,
                                   NodePageHook* hook) {
  std::vector<Neighbor> out;
  if (k <= 0) return out;
  BestFirstNnIterator it(tree, query, bounds, AccessCountMode::kOnExpand, std::nullopt,
                         hook);
  out.reserve(static_cast<size_t>(k));
  while (static_cast<int>(out.size()) < k) {
    std::optional<Neighbor> n = it.Next();
    if (!n.has_value()) break;
    out.push_back(*n);
  }
  if (counter != nullptr) *counter += it.accesses();
  return out;
}

}  // namespace senn::rtree
