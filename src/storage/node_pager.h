// The node-to-page mapping layer: maps every node of a packed R*-tree
// (rtree/packed_tree.h) onto one storage page and routes traversal
// accesses through a BufferPool, turning the paper's "page accesses"
// metric (Figure 17 / Table 1) from a node counter into physical storage
// behavior — residency, pinning, eviction, warm vs. cold fetches.
//
// A node's page id is its node id: the packed tree numbers its nodes in
// preorder (root = page 0), so the mapping is a pure function of the tree
// shape, two pagers over equal trees agree on every id, and a simulation
// with a bounded pool stays bit-reproducible.
//
// A fetch models the page read and nothing reads through it: traversals
// read a node's entries from the packed tree, which is the only copy. The
// pager only decides whether that read was a hit or a miss.
#pragma once

#include "src/rtree/packed_tree.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/page.h"

namespace senn::storage {

class NodePager : public rtree::NodePageHook {
 public:
  /// Pages the tree's nodes, one page per node; the tree is not kept. A
  /// bounded capacity is clamped to >= 2: best-first enqueue accounting
  /// holds a parent pinned while transiently fetching a child, so two
  /// frames is the traversal floor.
  NodePager(const rtree::PackedTree& tree, BufferPoolOptions options);

  /// rtree::NodePageHook: fetch + pin the node's page; returns whether the
  /// fetch physically missed.
  bool Fetch(rtree::NodeId id) override;
  void Unpin(rtree::NodeId id) override;

  BufferPool& pool() { return pool_; }
  const BufferPool& pool() const { return pool_; }

 private:
  BufferPool pool_;
};

}  // namespace senn::storage
