#include "src/rtree/packed_tree.h"

namespace senn::rtree {

geom::Mbr MbrOf(std::span<const PackedTree::Branch> branches) {
  geom::Mbr mbr = geom::Mbr::Empty();
  for (const PackedTree::Branch& b : branches) mbr.Expand(b.mbr);
  return mbr;
}

geom::Mbr MbrOf(std::span<const ObjectEntry> objects) {
  geom::Mbr mbr = geom::Mbr::Empty();
  for (const ObjectEntry& o : objects) mbr.Expand(geom::Mbr::OfPoint(o.position));
  return mbr;
}

PackedTree::PackedTree() : nodes_(1) {}

Status PackedTree::CheckInvariants() const {
  if (nodes_.empty()) return Status::Internal("no root node");
  std::vector<bool> covered(objects_.size(), false);
  size_t object_count = 0;
  NodeId expected = root();
  std::vector<NodeId> stack{root()};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (id != expected++) return Status::Internal("nodes not numbered in preorder");
    const Node& n = nodes_[id];
    if (id != root() && static_cast<int>(n.count) < options_.min_entries) {
      return Status::Internal("underfull non-root node");
    }
    if (static_cast<int>(n.count) > options_.max_entries) {
      return Status::Internal("overfull node");
    }
    if (n.level < 0) return Status::Internal("negative level");
    if (n.IsLeaf()) {
      if (static_cast<size_t>(n.first) + n.count > objects_.size()) {
        return Status::Internal("leaf run outside the object array");
      }
      for (uint32_t i = n.first; i < n.first + n.count; ++i) {
        if (covered[i]) return Status::Internal("object in two leaves");
        covered[i] = true;
      }
      object_count += n.count;
      continue;
    }
    if (static_cast<size_t>(n.first) + n.count > branches_.size()) {
      return Status::Internal("branch run outside the branch array");
    }
    std::span<const Branch> children = branches(n);
    for (const Branch& b : children) {
      if (b.child >= nodes_.size()) return Status::Internal("child id out of range");
      const Node& child = nodes_[b.child];
      if (child.level != n.level - 1) return Status::Internal("level mismatch");
      const geom::Mbr expected_mbr =
          child.IsLeaf() ? MbrOf(objects(child)) : MbrOf(branches(child));
      if (!(b.mbr.lo == expected_mbr.lo) || !(b.mbr.hi == expected_mbr.hi)) {
        return Status::Internal("stale branch MBR");
      }
    }
    for (auto it = children.rbegin(); it != children.rend(); ++it) stack.push_back(it->child);
  }
  if (expected != nodes_.size()) return Status::Internal("node unreachable from the root");
  if (object_count != objects_.size()) return Status::Internal("object in no leaf");
  return Status::OK();
}

namespace {

NodeId PackNode(const RStarTree::Node& node, std::vector<PackedTree::Node>* nodes,
                std::vector<PackedTree::Branch>* branches,
                std::vector<ObjectEntry>* objects) {
  const NodeId id = static_cast<NodeId>(nodes->size());
  const uint32_t count = static_cast<uint32_t>(node.slots.size());
  if (node.IsLeaf()) {
    nodes->push_back({static_cast<uint32_t>(objects->size()), count, 0});
    for (const RStarTree::Slot& s : node.slots) objects->push_back(s.object);
    return id;
  }
  const uint32_t first = static_cast<uint32_t>(branches->size());
  nodes->push_back({first, count, node.level});
  branches->resize(first + count);
  for (uint32_t i = 0; i < count; ++i) {
    const RStarTree::Slot& s = node.slots[i];
    const NodeId child = PackNode(*s.child, nodes, branches, objects);
    (*branches)[first + i] = {s.mbr, child};
  }
  return id;
}

}  // namespace

PackedTree Pack(const RStarTree& tree) {
  PackedTree out;
  out.options_ = tree.options();
  out.nodes_.clear();
  out.objects_.reserve(tree.size());
  PackNode(*tree.root(), &out.nodes_, &out.branches_, &out.objects_);
  return out;
}

}  // namespace senn::rtree
