#include "src/rtree/spatial_join.h"

#include <algorithm>
#include <cmath>

namespace senn::rtree {

namespace {

double MbrDistance(const geom::Mbr& a, const geom::Mbr& b) {
  double dx = std::max({a.lo.x - b.hi.x, 0.0, b.lo.x - a.hi.x});
  double dy = std::max({a.lo.y - b.hi.y, 0.0, b.lo.y - a.hi.y});
  return std::sqrt(dx * dx + dy * dy);
}

geom::Mbr NodeMbr(const PackedTree& tree, const PackedTree::Node& node) {
  return node.IsLeaf() ? MbrOf(tree.objects(node)) : MbrOf(tree.branches(node));
}

// Counts one node access into `counter` (may be null). The join reads no
// pages through a storage hook, so nothing is pinned and nothing unpinned.
void ChargeUnpaged(const PackedTree& tree, NodeId id, AccessCounter* counter) {
  ChargeNodeAccess(tree, id, counter, nullptr);
}

struct JoinContext {
  const PackedTree& left;
  const PackedTree& right;
  double threshold;
  AccessCounter* left_counter;
  AccessCounter* right_counter;
  std::vector<JoinPair>* out;
};

// Synchronized descent. Each (left, right) node pair is visited at most
// once; subtree pairs whose MBRs are farther than the threshold are pruned.
void JoinNodes(NodeId left_id, NodeId right_id, const JoinContext& ctx) {
  const PackedTree::Node& left = ctx.left.node(left_id);
  const PackedTree::Node& right = ctx.right.node(right_id);
  if (left.IsLeaf() && right.IsLeaf()) {
    for (const ObjectEntry& lo : ctx.left.objects(left)) {
      for (const ObjectEntry& ro : ctx.right.objects(right)) {
        double d = geom::Dist(lo.position, ro.position);
        if (d <= ctx.threshold) {
          ctx.out->push_back({lo, ro, d});
        }
      }
    }
    return;
  }
  // Descend the deeper side (or both when equal) so leaves meet leaves.
  if (!left.IsLeaf() && (right.IsLeaf() || left.level >= right.level)) {
    geom::Mbr right_mbr = NodeMbr(ctx.right, right);
    for (const PackedTree::Branch& lb : ctx.left.branches(left)) {
      if (MbrDistance(lb.mbr, right_mbr) > ctx.threshold) continue;
      ChargeUnpaged(ctx.left, lb.child, ctx.left_counter);
      JoinNodes(lb.child, right_id, ctx);
    }
  } else {
    geom::Mbr left_mbr = NodeMbr(ctx.left, left);
    for (const PackedTree::Branch& rb : ctx.right.branches(right)) {
      if (MbrDistance(left_mbr, rb.mbr) > ctx.threshold) continue;
      ChargeUnpaged(ctx.right, rb.child, ctx.right_counter);
      JoinNodes(left_id, rb.child, ctx);
    }
  }
}

}  // namespace

std::vector<JoinPair> DistanceJoin(const PackedTree& left, const PackedTree& right,
                                   double threshold, AccessCounter* left_counter,
                                   AccessCounter* right_counter) {
  std::vector<JoinPair> out;
  if (threshold < 0.0 || left.size() == 0 || right.size() == 0) return out;
  JoinContext ctx{left, right, threshold, left_counter, right_counter, &out};
  ChargeUnpaged(left, PackedTree::root(), left_counter);
  ChargeUnpaged(right, PackedTree::root(), right_counter);
  JoinNodes(PackedTree::root(), PackedTree::root(), ctx);
  std::sort(out.begin(), out.end(), [](const JoinPair& a, const JoinPair& b) {
    if (a.left.id != b.left.id) return a.left.id < b.left.id;
    return a.right.id < b.right.id;
  });
  return out;
}

}  // namespace senn::rtree
