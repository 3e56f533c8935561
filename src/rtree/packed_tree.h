// The served R*-tree: one immutable array of nodes in preorder, so a node's
// index is also its storage page id (storage/node_pager.h).
//
// An index node is a run of (MBR, child node id) branches; a leaf is a run
// of 24-byte ObjectEntry items with no per-point MBR (a point is its own
// degenerate MBR). STR bulk loading (rtree/bulk_load.h) writes this layout
// directly: the leaf array is the STR-sorted input vector itself, so a
// served tree never holds a pointer node. Every read-only traversal — the
// kNN algorithms of knn.h, the server's region, range and batched searches
// and the distance join of spatial_join.h — runs over this type only; a
// tree built by RStarTree::Insert is queried through Pack().
//
// Page accesses are charged per node through ChargeNodeAccess, which also
// routes them through an attached NodePageHook (the paged storage engine).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/geom/mbr.h"
#include "src/geom/vec2.h"
#include "src/rtree/rstar_tree.h"

namespace senn::rtree {

/// A node's position in a PackedTree's preorder: also its storage page id.
using NodeId = uint32_t;

class PackedTree {
 public:
  /// One index-node entry: a child's MBR and the child's node id.
  struct Branch {
    geom::Mbr mbr;
    NodeId child = 0;
  };
  /// A node: its level (0 = leaf) and its run of entries — `count` Branches
  /// from `first` at index levels, `count` objects from `first` at leaves.
  struct Node {
    uint32_t first = 0;
    uint32_t count = 0;
    int32_t level = 0;

    bool IsLeaf() const { return level == 0; }
  };

  /// An empty tree: a single empty leaf (the shape of an empty RStarTree).
  PackedTree();

  /// The root is always node 0 (page 0).
  static constexpr NodeId root() { return 0; }
  const Node& node(NodeId id) const { return nodes_[id]; }
  /// The branches of an index node.
  std::span<const Branch> branches(const Node& node) const {
    return std::span<const Branch>(branches_).subspan(node.first, node.count);
  }
  /// The objects of a leaf.
  std::span<const ObjectEntry> objects(const Node& node) const {
    return std::span<const ObjectEntry>(objects_).subspan(node.first, node.count);
  }

  /// Number of nodes (== pages).
  size_t node_count() const { return nodes_.size(); }
  /// Number of stored objects.
  size_t size() const { return objects_.size(); }
  /// Root level + 1, as RStarTree::height().
  int height() const { return nodes_.front().level + 1; }
  const RStarTree::Options& options() const { return options_; }

  /// Structural validation for tests: preorder node numbering, fan-out
  /// limits, levels, exact branch MBRs, and leaf runs that tile the object
  /// array. Returns the first violation found.
  Status CheckInvariants() const;

 private:
  friend PackedTree Pack(const RStarTree& tree);
  friend PackedTree BulkLoadPacked(std::vector<ObjectEntry> objects,
                                   RStarTree::Options options);

  RStarTree::Options options_;
  std::vector<Node> nodes_;
  std::vector<Branch> branches_;
  std::vector<ObjectEntry> objects_;
};

/// The MBR of a run of entries, computed exactly as RStarTree::NodeMbr
/// (a point expands the rectangle as its degenerate MBR).
geom::Mbr MbrOf(std::span<const PackedTree::Branch> branches);
geom::Mbr MbrOf(std::span<const ObjectEntry> objects);

/// Freezes a pointer tree: one preorder walk, node for node and slot for
/// slot, so node ids equal the tree's preorder positions.
PackedTree Pack(const RStarTree& tree);

/// Storage-engine hook for tree traversals. When attached, every charged
/// node access additionally fetches the node's backing page, so a buffer
/// pool (src/storage/) can model residency, eviction, and physical I/O
/// under the logical access stream. A fetch models the page read; nothing
/// reads through it: traversals read a node's entries from the PackedTree,
/// the one copy. Implementations must be deterministic functions of the
/// fetch/unpin sequence.
class NodePageHook {
 public:
  virtual ~NodePageHook() = default;
  /// Fetches and pins the page of node `id`; returns true when the fetch
  /// was a physical miss (the page was not resident). Every Fetch is paired
  /// with exactly one Unpin once the charged access is done: after an
  /// expansion reads the node's entries, or at once for a child charged as
  /// it is queued (AccessCountMode::kOnEnqueue), whose entries are read at
  /// its later expansion with no pin held.
  virtual bool Fetch(NodeId id) = 0;
  virtual void Unpin(NodeId id) = 0;
};

/// Charges one logical access for node `id` into `counter` (split by node
/// kind) and, when `hook` is attached, fetches the backing page and records
/// the physical miss alongside. Returns true when the hook pinned a page —
/// the caller must call `hook->Unpin(id)` once it is done reading the
/// node's entries. Either pointer may be null.
inline bool ChargeNodeAccess(const PackedTree& tree, NodeId id, AccessCounter* counter,
                             NodePageHook* hook) {
  const bool miss = hook != nullptr && hook->Fetch(id);
  if (counter != nullptr) {
    if (tree.node(id).IsLeaf()) {
      counter->leaf_nodes += 1;
      if (miss) counter->leaf_misses += 1;
    } else {
      counter->index_nodes += 1;
      if (miss) counter->index_misses += 1;
    }
  }
  return hook != nullptr;
}

/// Multi-query companion of ChargeNodeAccess for batched traversals
/// (core/batch_server): the node is fetched ONCE for the whole cluster — one
/// logical access, at most one physical miss — no matter how many queries
/// read its entries, which is what closes the double-charge hazard of
/// running N per-query traversals over the same pages. The access is
/// attributed to `owner` (the per-query counter it is billed to) and
/// mirrored into `cluster` (the shared-traversal total), where a miss is
/// additionally classified shared (`shared` true: two or more queries
/// wanted the node) or private. Returns true when the hook pinned a page —
/// the caller owes one hook->Unpin(id) after reading the entries. Any
/// pointer may be null.
inline bool ChargeBatchNodeAccess(const PackedTree& tree, NodeId id, AccessCounter* owner,
                                  AccessCounter* cluster, bool shared, NodePageHook* hook) {
  const bool miss = hook != nullptr && hook->Fetch(id);
  const bool leaf = tree.node(id).IsLeaf();
  for (AccessCounter* counter : {owner, cluster}) {
    if (counter == nullptr) continue;
    if (leaf) {
      counter->leaf_nodes += 1;
      if (miss) counter->leaf_misses += 1;
    } else {
      counter->index_nodes += 1;
      if (miss) counter->index_misses += 1;
    }
    if (miss) {
      if (shared) {
        counter->shared_misses += 1;
      } else {
        counter->private_misses += 1;
      }
    }
  }
  return hook != nullptr;
}

}  // namespace senn::rtree
