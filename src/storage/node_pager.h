// The node-to-page mapping layer: maps every node of a packed R*-tree
// (rtree/packed_tree.h) onto one fixed-size storage page and routes
// traversal accesses through a BufferPool, turning the paper's "page
// accesses" metric (Figure 17 / Table 1) from a node counter into physical
// storage behavior — residency, pinning, eviction, warm vs. cold fetches.
//
// A node's page id is its node id: the packed tree numbers its nodes in
// preorder (root = page 0), so the mapping is a pure function of the tree
// shape, two pagers over equal trees agree on every id, and a simulation
// with a bounded pool stays bit-reproducible.
//
// On a physical miss the node's contents are serialized into the page
// frame (the simulated disk read): a PageHeader followed by per-slot
// records — MBR + child page id at index levels, the point's degenerate
// MBR + object at the leaf level. A branching-factor-30 node fills well
// under half of a 4 KiB page, which is exactly why the paper equates nodes
// with pages.
#pragma once

#include <cstdint>

#include "src/geom/mbr.h"
#include "src/rtree/packed_tree.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/page.h"

namespace senn::storage {

/// On-page record layout (exposed for tests and inspection tools).
struct PageHeader {
  uint32_t level = 0;       // 0 = leaf
  uint32_t slot_count = 0;
};

/// One serialized slot. `child` is valid at index levels, `object_id` /
/// `object_x` / `object_y` at the leaf level.
struct PageSlot {
  geom::Mbr mbr;
  PageId child = kInvalidPageId;
  int64_t object_id = -1;
  double object_x = 0.0;
  double object_y = 0.0;
};

/// Bytes one serialized node occupies (header + slots); used by the static
/// fan-out check below and by capacity planning in the docs.
size_t SerializedNodeBytes(size_t slot_count);

/// Decodes the header / i-th slot of a materialized page.
PageHeader ReadPageHeader(const Page& page);
PageSlot ReadPageSlot(const Page& page, size_t index);

class NodePager : public rtree::NodePageHook {
 public:
  /// Pages the tree's nodes, one page per node. `tree` must outlive the
  /// pager and stay where it is. A bounded capacity is clamped to >= 2:
  /// best-first enqueue accounting holds a parent pinned while transiently
  /// fetching a child, so two frames is the traversal floor.
  NodePager(const rtree::PackedTree* tree, BufferPoolOptions options);

  /// rtree::NodePageHook: fetch + pin the node's page, materializing the
  /// payload on a miss; returns whether the fetch physically missed.
  bool Fetch(rtree::NodeId id) override;
  void Unpin(rtree::NodeId id) override;

  /// Pages of the tree (== its nodes).
  size_t page_count() const { return tree_->node_count(); }

  BufferPool& pool() { return pool_; }
  const BufferPool& pool() const { return pool_; }

 private:
  void Materialize(rtree::NodeId id, Page* page) const;

  const rtree::PackedTree* tree_;
  BufferPool pool_;
};

}  // namespace senn::storage
