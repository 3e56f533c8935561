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

/// Sequential EINN: prune at push against the static bounds and the
/// dynamic k-th distance, no pop-time re-check, reach = the worst of the
/// `needed` best candidates once there are that many.
struct EinnPolicy {
  const PackedTree& tree;
  KnnState& state;
  AccessCounter* counter;
  NodePageHook* hook;

  bool Charge(NodeId id, uint32_t) { return ChargeNodeAccess(tree, id, counter, hook); }
  bool Queue(const PackedTree::Branch& b, uint32_t, double* key) {
    *key = b.mbr.MinDist(state.q());
    return state.Admits(b.mbr, *key, state.bound());
  }
  void ScanLeaf(std::span<const ObjectEntry> objects) { state.Scan(objects); }
  bool Admit(const QueuedNode&) const { return true; }
  double Reach() const { return state.candidates.Reach(); }
};

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

std::span<const Candidate> EinnSearch(const PackedTree& tree, const EinnQuery& query,
                                      BestFirstScratch* scratch, AccessCounter* counter,
                                      NodePageHook* hook) {
  scratch->query.Reset(query.q, query.bounds, query.prune_to_k, query.needed);
  EinnPolicy policy{tree, scratch->query, counter, hook};
  BestFirstSearch(tree, query.count_mode, hook, &scratch->heap, policy);
  return scratch->query.candidates.Sorted();
}

std::vector<Neighbor> BestFirstKnn(const PackedTree& tree, Vec2 query, int k,
                                   PruneBounds bounds, AccessCounter* counter,
                                   NodePageHook* hook) {
  if (k <= 0) return {};
  const EinnQuery einn{.q = query, .bounds = bounds, .needed = k};
  BestFirstScratch scratch;
  std::vector<Neighbor> out;
  for (const Candidate& c : EinnSearch(tree, einn, &scratch, counter, hook)) {
    out.push_back({*c.object, c.distance});
  }
  return out;
}

}  // namespace senn::rtree
