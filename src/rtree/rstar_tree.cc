#include "src/rtree/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace senn::rtree {

using geom::Mbr;
using geom::Vec2;

RStarTree::RStarTree() : RStarTree(Options{}) {}

RStarTree::RStarTree(Options options)
    : options_(ClampOptions(options)), root_(std::make_unique<Node>()) {}

RStarTree::Options RStarTree::ClampOptions(Options options) {
  // Clamp pathological configurations rather than failing: the tree is a
  // substrate and every caller wants a working index.
  options.max_entries = std::max(options.max_entries, 4);
  options.min_entries = std::clamp(options.min_entries, 2, options.max_entries / 2);
  return options;
}

RStarTree::~RStarTree() = default;
RStarTree::RStarTree(RStarTree&&) noexcept = default;
RStarTree& RStarTree::operator=(RStarTree&&) noexcept = default;

Mbr RStarTree::NodeMbr(const Node& node) {
  Mbr mbr = Mbr::Empty();
  for (const Slot& s : node.slots) mbr.Expand(s.mbr);
  return mbr;
}

void RStarTree::Insert(Vec2 position, int64_t id) {
  Slot slot;
  slot.mbr = Mbr::OfPoint(position);
  slot.object = ObjectEntry{position, id};
  // One reinsert allowed per level per top-level insertion (R* rule OT1).
  std::vector<bool> reinserted_by_level(static_cast<size_t>(root_->level) + 2, false);
  InsertSlot(std::move(slot), /*level=*/0, &reinserted_by_level);
  ++size_;
}

RStarTree::Node* RStarTree::ChooseSubtree(const Mbr& mbr, int target_level) {
  Node* node = root_.get();
  while (node->level > target_level) {
    Slot* best = nullptr;
    if (node->level == target_level + 1 && node->level == 1) {
      // Children are leaves: minimize overlap enlargement, ties broken by
      // area enlargement, then by area (the R* leaf-level heuristic).
      double best_overlap = std::numeric_limits<double>::infinity();
      double best_enlarge = best_overlap;
      double best_area = best_overlap;
      for (Slot& cand : node->slots) {
        Mbr grown = cand.mbr;
        grown.Expand(mbr);
        double overlap_delta = 0.0;
        for (const Slot& other : node->slots) {
          if (&other == &cand) continue;
          overlap_delta += grown.OverlapArea(other.mbr) - cand.mbr.OverlapArea(other.mbr);
        }
        double enlarge = cand.mbr.Enlargement(mbr);
        double area = cand.mbr.Area();
        if (overlap_delta < best_overlap ||
            (overlap_delta == best_overlap &&
             (enlarge < best_enlarge || (enlarge == best_enlarge && area < best_area)))) {
          best_overlap = overlap_delta;
          best_enlarge = enlarge;
          best_area = area;
          best = &cand;
        }
      }
    } else {
      // Children are index nodes: minimize area enlargement, ties by area.
      double best_enlarge = std::numeric_limits<double>::infinity();
      double best_area = best_enlarge;
      for (Slot& cand : node->slots) {
        double enlarge = cand.mbr.Enlargement(mbr);
        double area = cand.mbr.Area();
        if (enlarge < best_enlarge || (enlarge == best_enlarge && area < best_area)) {
          best_enlarge = enlarge;
          best_area = area;
          best = &cand;
        }
      }
    }
    node = best->child.get();
  }
  return node;
}

void RStarTree::InsertSlot(Slot slot, int level, std::vector<bool>* reinserted_by_level) {
  Node* target = ChooseSubtree(slot.mbr, level);
  if (slot.child) slot.child->parent = target;
  target->slots.push_back(std::move(slot));
  RefreshMbrsUpward(target);
  if (static_cast<int>(target->slots.size()) > options_.max_entries) {
    OverflowTreatment(target, reinserted_by_level);
  }
}

void RStarTree::OverflowTreatment(Node* node, std::vector<bool>* reinserted_by_level) {
  size_t level = static_cast<size_t>(node->level);
  if (level >= reinserted_by_level->size()) reinserted_by_level->resize(level + 1, false);
  if (node->parent != nullptr && !(*reinserted_by_level)[level]) {
    (*reinserted_by_level)[level] = true;
    ForcedReinsert(node, reinserted_by_level);
  } else {
    SplitNode(node, reinserted_by_level);
  }
}

void RStarTree::ForcedReinsert(Node* node, std::vector<bool>* reinserted_by_level) {
  Mbr node_mbr = NodeMbr(*node);
  Vec2 center = node_mbr.Center();
  // Sort by distance of the slot MBR center to the node center, descending.
  std::vector<size_t> order(node->slots.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  // senn-lint: allow(L1-raw-order): tree-construction heuristic, not a
  // result order — slots have no POI id at index levels; the stable sort
  // pins equal-distance slots to their in-node order, a pure function of
  // the insertion sequence.
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return geom::Dist2(node->slots[a].mbr.Center(), center) >
           geom::Dist2(node->slots[b].mbr.Center(), center);
  });
  size_t p = std::max<size_t>(
      1, static_cast<size_t>(std::floor(options_.reinsert_fraction *
                                        static_cast<double>(node->slots.size()))));
  std::vector<Slot> removed;
  removed.reserve(p);
  std::vector<bool> is_removed(node->slots.size(), false);
  for (size_t i = 0; i < p; ++i) is_removed[order[i]] = true;
  std::vector<Slot> kept;
  kept.reserve(node->slots.size() - p);
  for (size_t i = 0; i < node->slots.size(); ++i) {
    if (is_removed[i]) {
      removed.push_back(std::move(node->slots[i]));
    } else {
      kept.push_back(std::move(node->slots[i]));
    }
  }
  node->slots = std::move(kept);
  RefreshMbrsUpward(node);
  // Close reinsert: add back starting with the entry closest to the center
  // (the removed list is sorted farthest-first, so walk it in reverse).
  int level = node->level;
  for (auto it = removed.rbegin(); it != removed.rend(); ++it) {
    InsertSlot(std::move(*it), level, reinserted_by_level);
  }
}

namespace {

// One candidate distribution for the R* split: the first `split_point` slots
// of a sorted order go left, the rest right.
struct SplitGoodness {
  double margin_sum = 0.0;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  int best_split = -1;
  bool use_upper_sort = false;
};

}  // namespace

void RStarTree::SplitNode(Node* node, std::vector<bool>* reinserted_by_level) {
  const int total = static_cast<int>(node->slots.size());
  const int min_e = options_.min_entries;

  // For each axis (0=x, 1=y) and each sort key (lower/upper coordinate),
  // evaluate all legal distributions.
  auto sorted_order = [&](int axis, bool by_upper) {
    std::vector<size_t> order(node->slots.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    // Stable: slots tying on the split key keep their in-node order, so the
    // chosen split is a pure function of the insertion sequence.
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const Mbr& ma = node->slots[a].mbr;
      const Mbr& mb = node->slots[b].mbr;
      double ka = axis == 0 ? (by_upper ? ma.hi.x : ma.lo.x) : (by_upper ? ma.hi.y : ma.lo.y);
      double kb = axis == 0 ? (by_upper ? mb.hi.x : mb.lo.x) : (by_upper ? mb.hi.y : mb.lo.y);
      return ka < kb;
    });
    return order;
  };

  auto evaluate_axis = [&](int axis) {
    SplitGoodness g;
    for (bool by_upper : {false, true}) {
      std::vector<size_t> order = sorted_order(axis, by_upper);
      // Prefix/suffix MBRs for O(n) distribution evaluation.
      std::vector<Mbr> prefix(order.size()), suffix(order.size());
      Mbr acc = Mbr::Empty();
      for (size_t i = 0; i < order.size(); ++i) {
        acc.Expand(node->slots[order[i]].mbr);
        prefix[i] = acc;
      }
      acc = Mbr::Empty();
      for (size_t i = order.size(); i-- > 0;) {
        acc.Expand(node->slots[order[i]].mbr);
        suffix[i] = acc;
      }
      for (int left = min_e; left <= total - min_e; ++left) {
        const Mbr& l = prefix[static_cast<size_t>(left - 1)];
        const Mbr& r = suffix[static_cast<size_t>(left)];
        g.margin_sum += l.Margin() + r.Margin();
        double overlap = l.OverlapArea(r);
        double area = l.Area() + r.Area();
        if (overlap < g.best_overlap ||
            (overlap == g.best_overlap && area < g.best_area)) {
          g.best_overlap = overlap;
          g.best_area = area;
          g.best_split = left;
          g.use_upper_sort = by_upper;
        }
      }
    }
    return g;
  };

  SplitGoodness gx = evaluate_axis(0);
  SplitGoodness gy = evaluate_axis(1);
  int axis = gx.margin_sum <= gy.margin_sum ? 0 : 1;
  const SplitGoodness& g = axis == 0 ? gx : gy;

  std::vector<size_t> order = sorted_order(axis, g.use_upper_sort);
  auto sibling = std::make_unique<Node>();
  sibling->level = node->level;
  std::vector<Slot> left_slots;
  left_slots.reserve(static_cast<size_t>(g.best_split));
  for (size_t i = 0; i < order.size(); ++i) {
    Slot& s = node->slots[order[i]];
    if (static_cast<int>(i) < g.best_split) {
      left_slots.push_back(std::move(s));
    } else {
      if (s.child) s.child->parent = sibling.get();
      sibling->slots.push_back(std::move(s));
    }
  }
  node->slots = std::move(left_slots);

  if (node->parent == nullptr) {
    // Root split: grow the tree by one level.
    auto new_root = std::make_unique<Node>();
    new_root->level = node->level + 1;
    std::unique_ptr<Node> old_root = std::move(root_);
    old_root->parent = new_root.get();
    sibling->parent = new_root.get();
    Slot left;
    left.mbr = NodeMbr(*old_root);
    left.child = std::move(old_root);
    Slot right;
    right.mbr = NodeMbr(*sibling);
    right.child = std::move(sibling);
    new_root->slots.push_back(std::move(left));
    new_root->slots.push_back(std::move(right));
    root_ = std::move(new_root);
    return;
  }

  Node* parent = node->parent;
  sibling->parent = parent;
  Slot extra;
  extra.mbr = NodeMbr(*sibling);
  extra.child = std::move(sibling);
  parent->slots.push_back(std::move(extra));
  // The split shrank `node`: refresh its slot in the parent, then the
  // ancestors (which also accounts for the sibling just added).
  RefreshMbrsUpward(node);
  if (static_cast<int>(parent->slots.size()) > options_.max_entries) {
    OverflowTreatment(parent, reinserted_by_level);
  }
}

void RStarTree::RefreshMbrsUpward(Node* node) {
  Node* child = node;
  Node* parent = node->parent;
  while (parent != nullptr) {
    Slot* slot = FindSlotInParent(child);
    slot->mbr = NodeMbr(*child);
    child = parent;
    parent = parent->parent;
  }
}

RStarTree::Slot* RStarTree::FindSlotInParent(Node* child) {
  for (Slot& s : child->parent->slots) {
    if (s.child.get() == child) return &s;
  }
  return nullptr;  // unreachable for a structurally sound tree
}

Status RStarTree::CheckInvariants() const {
  size_t object_count = 0;
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node != root_.get()) {
      if (static_cast<int>(node->slots.size()) < options_.min_entries) {
        return Status::Internal("underfull non-root node");
      }
    }
    if (static_cast<int>(node->slots.size()) > options_.max_entries) {
      return Status::Internal("overfull node");
    }
    for (const Slot& s : node->slots) {
      if (node->IsLeaf()) {
        ++object_count;
        if (s.child != nullptr) return Status::Internal("leaf slot with child pointer");
        if (!(s.mbr.lo == s.object.position) || !(s.mbr.hi == s.object.position)) {
          return Status::Internal("leaf MBR does not match object position");
        }
      } else {
        if (s.child == nullptr) return Status::Internal("index slot without child");
        if (s.child->parent != node) return Status::Internal("broken parent pointer");
        if (s.child->level != node->level - 1) return Status::Internal("level mismatch");
        Mbr expected = NodeMbr(*s.child);
        if (!(s.mbr.lo == expected.lo) || !(s.mbr.hi == expected.hi)) {
          return Status::Internal("stale slot MBR");
        }
        stack.push_back(s.child.get());
      }
    }
  }
  if (object_count != size_) return Status::Internal("size mismatch");
  return Status::OK();
}

}  // namespace senn::rtree
