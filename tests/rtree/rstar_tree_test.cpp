#include "src/rtree/rstar_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/rtree/packed_tree.h"

namespace senn::rtree {
namespace {

using geom::Mbr;
using geom::Vec2;

std::vector<ObjectEntry> MakeRandomObjects(int n, Rng* rng, double extent = 1000.0) {
  std::vector<ObjectEntry> objs;
  objs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    objs.push_back({{rng->Uniform(0, extent), rng->Uniform(0, extent)}, i});
  }
  return objs;
}

RStarTree BuildTree(const std::vector<ObjectEntry>& objs, RStarTree::Options opts = {}) {
  RStarTree tree(opts);
  for (const ObjectEntry& o : objs) tree.Insert(o.position, o.id);
  return tree;
}

// Every stored object, read from the packed form of the tree.
std::vector<ObjectEntry> Contents(const RStarTree& tree) {
  const PackedTree packed = Pack(tree);
  std::vector<ObjectEntry> out;
  for (NodeId id = 0; id < packed.node_count(); ++id) {
    const PackedTree::Node& node = packed.node(id);
    if (!node.IsLeaf()) continue;
    std::span<const ObjectEntry> objects = packed.objects(node);
    out.insert(out.end(), objects.begin(), objects.end());
  }
  return out;
}

std::set<int64_t> Ids(const std::vector<ObjectEntry>& objs) {
  std::set<int64_t> ids;
  for (const ObjectEntry& o : objs) ids.insert(o.id);
  return ids;
}

TEST(RStarTreeTest, EmptyTree) {
  RStarTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(RStarTree::NodeMbr(*tree.root()).IsEmpty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_TRUE(Contents(tree).empty());
}

TEST(RStarTreeTest, SingleInsert) {
  RStarTree tree;
  tree.Insert({5, 5}, 42);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  std::vector<ObjectEntry> out = Contents(tree);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 42);
}

TEST(RStarTreeTest, InvariantsHoldAcrossGrowth) {
  Rng rng(1);
  RStarTree tree;
  for (int i = 0; i < 2000; ++i) {
    tree.Insert({rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, i);
    if (i % 100 == 99) {
      ASSERT_TRUE(tree.CheckInvariants().ok()) << "after insert " << i;
    }
  }
  EXPECT_EQ(tree.size(), 2000u);
  EXPECT_GE(tree.height(), 2);
}

TEST(RStarTreeTest, DuplicatePositionsAreKept) {
  RStarTree tree;
  for (int i = 0; i < 100; ++i) tree.Insert({7, 7}, i);
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  std::vector<ObjectEntry> out = Contents(tree);
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(Ids(out).size(), 100u);
  for (const ObjectEntry& o : out) EXPECT_EQ(o.position, (Vec2{7, 7}));
}

TEST(RStarTreeTest, BoundsCoverAllObjects) {
  Rng rng(8);
  std::vector<ObjectEntry> objs = MakeRandomObjects(300, &rng);
  RStarTree tree = BuildTree(objs);
  Mbr b = RStarTree::NodeMbr(*tree.root());
  for (const ObjectEntry& o : objs) EXPECT_TRUE(b.Contains(o.position));
}

TEST(RStarTreeTest, MoveSemantics) {
  Rng rng(9);
  RStarTree tree = BuildTree(MakeRandomObjects(100, &rng));
  RStarTree moved = std::move(tree);
  EXPECT_EQ(moved.size(), 100u);
  EXPECT_TRUE(moved.CheckInvariants().ok());
}

TEST(RStarTreeTest, SmallBranchingFactorStressesSplits) {
  Rng rng(10);
  RStarTree::Options opts;
  opts.max_entries = 4;
  opts.min_entries = 2;
  std::vector<ObjectEntry> objs = MakeRandomObjects(400, &rng);
  RStarTree tree = BuildTree(objs, opts);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_GE(tree.height(), 4);  // fan-out 4 forces depth
  EXPECT_EQ(Ids(Contents(tree)), Ids(objs));
}

TEST(RStarTreeTest, ClusteredDataStillValid) {
  Rng rng(11);
  RStarTree tree;
  int64_t id = 0;
  for (int cluster = 0; cluster < 10; ++cluster) {
    Vec2 center{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    for (int i = 0; i < 150; ++i) {
      tree.Insert({center.x + rng.Normal(0, 2.0), center.y + rng.Normal(0, 2.0)}, id++);
    }
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.size(), 1500u);
}

TEST(RStarTreeTest, ClampOptionsRepairsPathologicalValues) {
  RStarTree::Options opts;
  opts.max_entries = 1;
  opts.min_entries = -3;
  RStarTree::Options clamped = RStarTree::ClampOptions(opts);
  EXPECT_EQ(clamped.max_entries, 4);
  EXPECT_EQ(clamped.min_entries, 2);

  opts.max_entries = 10;
  opts.min_entries = 9;  // more than half a node cannot survive a split
  clamped = RStarTree::ClampOptions(opts);
  EXPECT_EQ(clamped.max_entries, 10);
  EXPECT_EQ(clamped.min_entries, 5);

  // Working values, the paper's fan-out among them, pass through unchanged.
  clamped = RStarTree::ClampOptions(RStarTree::Options());
  EXPECT_EQ(clamped.max_entries, 30);
  EXPECT_EQ(clamped.min_entries, 12);
  EXPECT_EQ(clamped.reinsert_fraction, 0.3);
}

TEST(RStarTreeTest, PathologicalOptionsStillBuildAValidTree) {
  Rng rng(13);
  RStarTree::Options opts;
  opts.max_entries = 0;
  opts.min_entries = 0;
  std::vector<ObjectEntry> objs = MakeRandomObjects(300, &rng);
  RStarTree tree = BuildTree(objs, opts);
  EXPECT_EQ(tree.options().max_entries, 4);
  EXPECT_EQ(tree.options().min_entries, 2);
  EXPECT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants().ToString();
  const PackedTree packed = Pack(tree);
  EXPECT_EQ(packed.options().max_entries, 4);
  EXPECT_TRUE(packed.CheckInvariants().ok()) << packed.CheckInvariants().ToString();
  EXPECT_EQ(Ids(Contents(tree)), Ids(objs));
}

TEST(RStarTreeTest, RootMbrIsTheTightBoundOfItsObjects) {
  Rng rng(14);
  std::vector<ObjectEntry> objs = MakeRandomObjects(700, &rng);
  RStarTree tree = BuildTree(objs);
  Mbr expected = Mbr::Empty();
  for (const ObjectEntry& o : objs) expected.Expand(Mbr::OfPoint(o.position));
  const Mbr root = RStarTree::NodeMbr(*tree.root());
  EXPECT_EQ(root.lo, expected.lo);
  EXPECT_EQ(root.hi, expected.hi);
  // The packed form's root branches bound the same rectangle.
  const PackedTree packed = Pack(tree);
  const Mbr packed_root = MbrOf(packed.branches(packed.node(PackedTree::root())));
  EXPECT_EQ(packed_root.lo, expected.lo);
  EXPECT_EQ(packed_root.hi, expected.hi);
}

// Pack is a snapshot: inserts after it change the builder, not the frozen
// tree, and a second Pack holds both the old and the new objects.
TEST(RStarTreeTest, InsertAfterPackLeavesTheSnapshotUnchanged) {
  Rng rng(15);
  std::vector<ObjectEntry> objs = MakeRandomObjects(500, &rng);
  RStarTree tree = BuildTree(objs);
  const PackedTree before = Pack(tree);
  const std::vector<ObjectEntry> before_contents = Contents(tree);

  std::vector<ObjectEntry> more;
  for (int i = 0; i < 200; ++i) {
    more.push_back({{rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, 10000 + i});
    tree.Insert(more.back().position, more.back().id);
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(before.size(), 500u);
  EXPECT_TRUE(before.CheckInvariants().ok());
  std::vector<ObjectEntry> still;
  for (NodeId id = 0; id < before.node_count(); ++id) {
    if (!before.node(id).IsLeaf()) continue;
    for (const ObjectEntry& o : before.objects(before.node(id))) still.push_back(o);
  }
  EXPECT_EQ(Ids(still), Ids(before_contents));

  const PackedTree after = Pack(tree);
  EXPECT_EQ(after.size(), 700u);
  EXPECT_TRUE(after.CheckInvariants().ok());
  std::set<int64_t> all = Ids(objs);
  for (const ObjectEntry& o : more) all.insert(o.id);
  EXPECT_EQ(Ids(Contents(tree)), all);
}

}  // namespace
}  // namespace senn::rtree
