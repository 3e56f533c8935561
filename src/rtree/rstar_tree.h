// R*-tree over 2-D point objects (Beckmann, Kriegel, Schneider, Seeger,
// SIGMOD 1990) — the index the paper's spatial database server uses for the
// POI data set ("Spatial data indexing is provided with the well known
// R*-tree algorithm", branching factor 30 for index and leaf nodes).
//
// Insertion is complete: ChooseSubtree with overlap minimization at the
// leaf level, forced reinsertion (30%) on first overflow per level, and the
// R* topological split (margin-driven axis choice, overlap-minimal
// distribution). This mutable tree is an insert-only builder whose one exit
// is Pack: the kNN algorithms, the server and the distance join read only
// the frozen form (rtree/packed_tree.h, via Pack or STR bulk loading), and
// charge node accesses into AccessCounter, the page-access metric the paper
// evaluates (Figure 17).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/geom/mbr.h"
#include "src/geom/vec2.h"

namespace senn::rtree {

/// A stored point object: position plus caller-supplied identifier.
struct ObjectEntry {
  geom::Vec2 position;
  int64_t id = -1;
};

/// Node (page) access counts, split by node kind. The paper's PAR metric
/// counts R*-tree node accesses as the predictor of I/O cost.
///
/// `index_nodes`/`leaf_nodes` are LOGICAL accesses (every charged node
/// visit); `index_misses`/`leaf_misses` are the PHYSICAL subset — buffer-
/// pool misses — which stays zero unless the traversal ran through a paged
/// storage engine (src/storage/node_pager.h). Logical counts never depend
/// on the pool, so pre-storage goldens pin them byte-for-byte.
struct AccessCounter {
  uint64_t index_nodes = 0;
  uint64_t leaf_nodes = 0;
  uint64_t index_misses = 0;
  uint64_t leaf_misses = 0;
  /// Batched-traversal attribution split (core/batch_server): of the
  /// physical misses, how many pages were wanted by two or more queries of
  /// the answering cluster (`shared_misses`) versus exactly one
  /// (`private_misses`). Charged only through ChargeBatchNodeAccess, so
  /// both stay zero on every single-query traversal and
  /// shared_misses + private_misses == misses() on a cluster counter.
  uint64_t shared_misses = 0;
  uint64_t private_misses = 0;

  bool operator==(const AccessCounter&) const = default;

  uint64_t total() const { return index_nodes + leaf_nodes; }
  uint64_t misses() const { return index_misses + leaf_misses; }
  uint64_t hits() const { return total() - misses(); }
  void Reset() { *this = AccessCounter{}; }
  AccessCounter& operator+=(const AccessCounter& o) {
    index_nodes += o.index_nodes;
    leaf_nodes += o.leaf_nodes;
    index_misses += o.index_misses;
    leaf_misses += o.leaf_misses;
    shared_misses += o.shared_misses;
    private_misses += o.private_misses;
    return *this;
  }
};

/// An R*-tree storing point objects.
class RStarTree {
 public:
  struct Options {
    /// Maximum entries per node (branching factor M). The paper sets 30.
    int max_entries = 30;
    /// Minimum entries per node (m). R* recommends 40% of M.
    int min_entries = 12;
    /// Fraction of entries removed by forced reinsertion (R* recommends 30%).
    double reinsert_fraction = 0.3;
  };

  /// A tree node. Exposed (read-only) so Pack can traverse without friend
  /// access; mutation is private to RStarTree.
  struct Node;
  /// One slot of a node: an MBR plus either a child node (index levels) or a
  /// stored object (leaf level).
  struct Slot {
    geom::Mbr mbr;
    std::unique_ptr<Node> child;  // null at leaf level
    ObjectEntry object;           // valid at leaf level only
  };
  struct Node {
    int level = 0;  // 0 = leaf
    Node* parent = nullptr;
    std::vector<Slot> slots;

    bool IsLeaf() const { return level == 0; }
  };

  /// Constructs a tree with default options (branching factor 30).
  RStarTree();
  explicit RStarTree(Options options);
  ~RStarTree();
  RStarTree(RStarTree&&) noexcept;
  RStarTree& operator=(RStarTree&&) noexcept;
  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;

  /// Inserts one point object. Duplicate positions/ids are allowed (the tree
  /// does not enforce uniqueness).
  void Insert(geom::Vec2 position, int64_t id);

  /// Number of stored objects.
  size_t size() const { return size_; }
  /// Height of the tree (root level + 1). A fresh tree has one empty leaf,
  /// so height is at least 1.
  int height() const { return root_->level + 1; }
  const Options& options() const { return options_; }

  /// Root node for the read-only walk of Pack.
  const Node* root() const { return root_.get(); }

  /// Structural validation for tests: MBR containment, fan-out limits, leaf
  /// depth uniformity, object count. Returns the first violation found.
  Status CheckInvariants() const;

  /// Recomputes a node's MBR from its slots (exposed for tests/algorithms).
  static geom::Mbr NodeMbr(const Node& node);

  /// `options` with pathological values clamped to a working index: every
  /// tree, pointer or packed (rtree/packed_tree.h), holds clamped options.
  static Options ClampOptions(Options options);

 private:
  Node* ChooseSubtree(const geom::Mbr& mbr, int target_level);
  void InsertSlot(Slot slot, int level, std::vector<bool>* reinserted_by_level);
  void OverflowTreatment(Node* node, std::vector<bool>* reinserted_by_level);
  void ForcedReinsert(Node* node, std::vector<bool>* reinserted_by_level);
  void SplitNode(Node* node, std::vector<bool>* reinserted_by_level);
  void RefreshMbrsUpward(Node* node);
  Slot* FindSlotInParent(Node* child);

  Options options_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace senn::rtree
