#include "src/rtree/bulk_load.h"

#include <algorithm>
#include <cmath>
#include <memory>

namespace senn::rtree {

namespace {

using Node = RStarTree::Node;
using Slot = RStarTree::Slot;

// An upper-level item: a packed child and its MBR.
struct Branch {
  geom::Mbr mbr;
  std::unique_ptr<Node> child;
};

geom::Vec2 CenterOf(const ObjectEntry& o) { return geom::Mbr::OfPoint(o.position).Center(); }
geom::Vec2 CenterOf(const Branch& b) { return b.mbr.Center(); }

void Place(const ObjectEntry& o, Node* leaf) {
  leaf->slots.push_back({geom::Mbr::OfPoint(o.position), nullptr, o});
}

void Place(Branch& b, Node* parent) {
  b.child->parent = parent;
  parent->slots.push_back({b.mbr, std::move(b.child), {}});
}

// Splits `count` items into groups of at most `cap`, rebalancing the tail so
// every group has at least `min_size` (requires cap >= 2 * min_size, which
// the RStarTree options clamp guarantees). Returns the group sizes.
std::vector<size_t> GroupSizes(size_t count, size_t cap, size_t min_size) {
  std::vector<size_t> sizes;
  size_t remaining = count;
  while (remaining > 0) {
    size_t take = std::min(cap, remaining);
    sizes.push_back(take);
    remaining -= take;
  }
  if (sizes.size() >= 2 && sizes.back() < min_size) {
    size_t need = min_size - sizes.back();
    sizes[sizes.size() - 2] -= need;
    sizes.back() += need;
  }
  return sizes;
}

// Packs `items` (all at the same level) into nodes at `level` with STR:
// sort by center x, slice, sort slices by center y, emit runs. Items are
// ObjectEntry at the leaf level and Branch above, so every level goes
// through this one packer; the items are consumed.
template <typename Item>
std::vector<std::unique_ptr<Node>> PackLevel(std::vector<Item> items, int level,
                                             const RStarTree::Options& options) {
  const size_t cap = static_cast<size_t>(options.max_entries);
  const size_t min_size = static_cast<size_t>(options.min_entries);
  const size_t n = items.size();
  const size_t node_count = (n + cap - 1) / cap;
  const size_t slices = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(node_count))));
  const size_t slice_size = (n + slices - 1) / slices;

  // Stable: co-located items keep their input order (object input order at
  // the leaf level, child preorder above), so the packing is a pure function
  // of the input sequence even for duplicate coordinates (lattice worlds).
  std::stable_sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return CenterOf(a).x < CenterOf(b).x;
  });

  std::vector<std::unique_ptr<Node>> nodes;
  size_t begin = 0;
  while (begin < n) {
    size_t end = std::min(begin + slice_size, n);
    // Absorb a tail slice too small to form a legal node.
    if (n - end > 0 && n - end < min_size) end = n;
    std::stable_sort(items.begin() + static_cast<long>(begin),
                     items.begin() + static_cast<long>(end),
                     [](const Item& a, const Item& b) {
                       return CenterOf(a).y < CenterOf(b).y;
                     });
    size_t cursor = begin;
    for (size_t take : GroupSizes(end - begin, cap, min_size)) {
      auto node = std::make_unique<Node>();
      node->level = level;
      node->slots.reserve(take);
      for (size_t i = 0; i < take; ++i) Place(items[cursor++], node.get());
      nodes.push_back(std::move(node));
    }
    begin = end;
  }
  return nodes;
}

}  // namespace

RStarTree BulkLoad(std::vector<ObjectEntry> objects, RStarTree::Options options) {
  RStarTree tree(options);
  const size_t n = objects.size();
  if (n == 0) return tree;
  if (n <= static_cast<size_t>(tree.options_.max_entries)) {
    for (const ObjectEntry& o : objects) tree.Insert(o.position, o.id);
    return tree;
  }

  std::vector<std::unique_ptr<Node>> level =
      PackLevel(std::move(objects), /*level=*/0, tree.options_);
  // Upper levels until a single node remains.
  while (level.size() > 1) {
    std::vector<Branch> branches;
    branches.reserve(level.size());
    for (std::unique_ptr<Node>& node : level) {
      geom::Mbr mbr = RStarTree::NodeMbr(*node);
      branches.push_back({mbr, std::move(node)});
    }
    const int parent_level = branches.front().child->level + 1;
    level = PackLevel(std::move(branches), parent_level, tree.options_);
  }

  tree.root_ = std::move(level.front());
  tree.root_->parent = nullptr;
  tree.size_ = n;
  return tree;
}

}  // namespace senn::rtree
