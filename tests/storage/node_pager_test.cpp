// NodePager: the node-to-page mapping layer.
#include <gtest/gtest.h>

#include <unordered_map>
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

void CollectPreorder(const rtree::RStarTree::Node* node,
                     std::vector<const rtree::RStarTree::Node*>* out) {
  out->push_back(node);
  if (node->IsLeaf()) return;
  for (const rtree::RStarTree::Slot& s : node->slots) CollectPreorder(s.child.get(), out);
}

// The pages of the STR tree the server builds, checked against the pointer
// form of the same tree: page id i is the i-th node of its preorder walk.
TEST(NodePagerTest, PageIdsAreAPureFunctionOfTheTreeShape) {
  const rtree::RStarTree pointers = rtree::BulkLoad(MakeEntries(300, 1), SmallNodes());
  const rtree::PackedTree tree = MakeTree(300, 1);

  std::vector<const rtree::RStarTree::Node*> nodes;
  CollectPreorder(pointers.root(), &nodes);
  ASSERT_EQ(tree.node_count(), nodes.size());
  std::unordered_map<const rtree::RStarTree::Node*, PageId> preorder;
  for (size_t i = 0; i < nodes.size(); ++i) preorder[nodes[i]] = static_cast<PageId>(i);
  EXPECT_EQ(preorder[pointers.root()], rtree::PackedTree::root());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const rtree::PackedTree::Node& node = tree.node(static_cast<rtree::NodeId>(i));
    EXPECT_EQ(node.level, nodes[i]->level);
    ASSERT_EQ(node.count, nodes[i]->slots.size());
    if (node.IsLeaf()) continue;
    for (size_t j = 0; j < node.count; ++j) {
      EXPECT_EQ(tree.branches(node)[j].child, preorder[nodes[i]->slots[j].child.get()]);
      EXPECT_LT(tree.branches(node)[j].child, nodes.size());
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
