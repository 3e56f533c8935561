// NodePager: the node-to-page mapping layer.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/rtree/bulk_load.h"
#include "src/rtree/knn.h"
#include "src/rtree/rstar_tree.h"
#include "src/storage/node_pager.h"

namespace senn::storage {
namespace {

std::vector<rtree::ObjectEntry> MakeEntries(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<rtree::ObjectEntry> entries;
  entries.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    entries.push_back({{rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, i});
  }
  return entries;
}

rtree::RStarTree::Options SmallNodes() {
  rtree::RStarTree::Options options;
  options.max_entries = 8;
  options.min_entries = 3;
  return options;
}

rtree::PackedTree MakeTree(int n, uint64_t seed) {
  return rtree::BulkLoadPacked(MakeEntries(n, seed), SmallNodes());
}

void CollectPreorder(const rtree::PackedTree& tree, rtree::NodeId id,
                     std::vector<rtree::NodeId>* out) {
  out->push_back(id);
  const rtree::PackedTree::Node& node = tree.node(id);
  if (node.IsLeaf()) return;
  for (const rtree::PackedTree::Branch& b : tree.branches(node)) {
    EXPECT_EQ(tree.node(b.child).level, node.level - 1);
    CollectPreorder(tree, b.child, out);
  }
}

// The pages of the STR tree the server builds: walking its branches in
// preorder from the root meets page 0, 1, 2, ... in turn, so page id i is
// the i-th node of the walk, and a rebuild from the same input gives every
// node the same page.
TEST(NodePagerTest, PageIdsAreAPureFunctionOfTheTreeShape) {
  const rtree::PackedTree tree = MakeTree(300, 1);
  ASSERT_GT(tree.height(), 2);

  std::vector<rtree::NodeId> preorder;
  CollectPreorder(tree, rtree::PackedTree::root(), &preorder);
  ASSERT_EQ(preorder.size(), tree.node_count());
  for (size_t i = 0; i < preorder.size(); ++i) {
    EXPECT_EQ(preorder[i], static_cast<PageId>(i));
  }

  const rtree::PackedTree rebuilt = MakeTree(300, 1);
  ASSERT_EQ(rebuilt.node_count(), tree.node_count());
  for (rtree::NodeId id = 0; id < tree.node_count(); ++id) {
    const rtree::PackedTree::Node& node = tree.node(id);
    const rtree::PackedTree::Node& again = rebuilt.node(id);
    EXPECT_EQ(again.level, node.level);
    ASSERT_EQ(again.count, node.count);
    if (node.IsLeaf()) continue;
    for (size_t j = 0; j < node.count; ++j) {
      EXPECT_EQ(rebuilt.branches(again)[j].child, tree.branches(node)[j].child);
    }
  }
}

// Node == page at the paper's fan-out of 30: every node's packed run of
// entries (branches at index levels, objects at leaves) fits one page, and
// paging the tree faults each node in as exactly one page.
TEST(NodePagerTest, PaperFanOutNodesFitOnePageEach) {
  const rtree::PackedTree tree =
      rtree::BulkLoadPacked(MakeEntries(3000, 2), rtree::RStarTree::Options{});
  ASSERT_EQ(tree.options().max_entries, 30);
  EXPECT_LE(30 * sizeof(rtree::PackedTree::Branch), kPageSizeBytes);
  EXPECT_LE(30 * sizeof(rtree::ObjectEntry), kPageSizeBytes);
  ASSERT_GT(tree.height(), 1);  // both node kinds are present

  NodePager pager(tree, BufferPoolOptions{});
  for (rtree::NodeId id = 0; id < tree.node_count(); ++id) {
    const rtree::PackedTree::Node& node = tree.node(id);
    ASSERT_LE(node.count, 30u) << "node " << id;
    const size_t run_bytes = node.IsLeaf()
                                 ? tree.objects(node).size_bytes()
                                 : tree.branches(node).size_bytes();
    EXPECT_LE(run_bytes, kPageSizeBytes) << "node " << id;
    EXPECT_TRUE(pager.Fetch(id)) << "first touch must miss";
    EXPECT_TRUE(pager.pool().Resident(id));
    pager.Unpin(id);
  }
  EXPECT_EQ(pager.pool().resident_pages(), tree.node_count());
  EXPECT_EQ(pager.pool().stats().misses, tree.node_count());
  EXPECT_EQ(pager.pool().pinned_pages(), 0u);
}

TEST(NodePagerTest, UnboundedPoolHitsOnSecondPass) {
  const rtree::PackedTree tree = MakeTree(250, 3);
  NodePager pager(tree, BufferPoolOptions{});
  const size_t pages = tree.node_count();
  for (rtree::NodeId id = 0; id < pages; ++id) {
    EXPECT_TRUE(pager.Fetch(id));
    pager.Unpin(id);
  }
  for (rtree::NodeId id = 0; id < pages; ++id) {
    EXPECT_FALSE(pager.Fetch(id));
    pager.Unpin(id);
  }
  EXPECT_EQ(pager.pool().stats().misses, pages);
  EXPECT_EQ(pager.pool().stats().hits, pages);
  EXPECT_EQ(pager.pool().stats().evictions, 0u);
}

TEST(NodePagerTest, BoundedCapacityIsClampedToTwoFrames) {
  const rtree::PackedTree tree = MakeTree(100, 4);
  BufferPoolOptions options;
  options.capacity_pages = 1;  // below the traversal floor
  NodePager pager(tree, options);
  EXPECT_EQ(pager.pool().options().capacity_pages, 2u);
  // Unbounded stays unbounded.
  NodePager unbounded(tree, BufferPoolOptions{});
  EXPECT_EQ(unbounded.pool().options().capacity_pages, 0u);
}

TEST(NodePagerTest, HookedKnnMatchesUnhookedAndOnlyMissesDiffer) {
  const rtree::PackedTree tree = MakeTree(400, 5);
  NodePager pager(tree, BufferPoolOptions{});
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    geom::Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    const int k = 1 + static_cast<int>(rng.NextIndex(10));
    rtree::AccessCounter plain, paged;
    std::vector<rtree::Neighbor> expected = rtree::BestFirstKnn(tree, q, k, {}, &plain);
    std::vector<rtree::Neighbor> got = rtree::BestFirstKnn(tree, q, k, {}, &paged, &pager);
    ASSERT_EQ(expected.size(), got.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].object.id, got[i].object.id);
      EXPECT_EQ(expected[i].distance, got[i].distance);
    }
    // Identical logical counts; physical misses bounded by the logical.
    EXPECT_EQ(plain.total(), paged.total());
    EXPECT_EQ(plain.misses(), 0u);
    EXPECT_LE(paged.misses(), paged.total());
  }
  // The pool is unbounded: repeating a query touches only pages its first
  // execution faulted in, so the replay misses nothing.
  rtree::AccessCounter cold, warm;
  rtree::BestFirstKnn(tree, {500, 500}, 8, {}, &cold, &pager);
  rtree::BestFirstKnn(tree, {500, 500}, 8, {}, &warm, &pager);
  EXPECT_EQ(warm.total(), cold.total());
  EXPECT_EQ(warm.misses(), 0u);
  EXPECT_EQ(pager.pool().pinned_pages(), 0u);  // all traversal pins released
}

}  // namespace
}  // namespace senn::storage
