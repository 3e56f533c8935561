#include "src/rtree/spatial_join.h"

#include <gtest/gtest.h>

#include <set>

#include "src/common/rng.h"
#include "src/rtree/bulk_load.h"

namespace senn::rtree {
namespace {

using geom::Vec2;

std::vector<ObjectEntry> MakeRandomObjects(int n, Rng* rng, double extent,
                                           int64_t id_base = 0) {
  std::vector<ObjectEntry> objs;
  for (int i = 0; i < n; ++i) {
    objs.push_back({{rng->Uniform(0, extent), rng->Uniform(0, extent)}, id_base + i});
  }
  return objs;
}

std::set<std::pair<int64_t, int64_t>> BruteForcePairs(const std::vector<ObjectEntry>& a,
                                                      const std::vector<ObjectEntry>& b,
                                                      double d) {
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (const ObjectEntry& x : a) {
    for (const ObjectEntry& y : b) {
      if (geom::Dist(x.position, y.position) <= d) pairs.insert({x.id, y.id});
    }
  }
  return pairs;
}

// The two builds the join pin uses: STR packing and one-at-a-time
// insertion, each in the tree form DistanceJoin reads.
PackedTree StrTree(std::vector<ObjectEntry> objs, RStarTree::Options options = {}) {
  return BulkLoadPacked(std::move(objs), options);
}

PackedTree InsertTree(const std::vector<ObjectEntry>& objs, RStarTree::Options options) {
  RStarTree tree(options);
  for (const ObjectEntry& o : objs) tree.Insert(o.position, o.id);
  return Pack(tree);
}

std::set<std::pair<int64_t, int64_t>> Ids(const std::vector<JoinPair>& pairs) {
  std::set<std::pair<int64_t, int64_t>> ids;
  for (const JoinPair& p : pairs) ids.insert({p.left.id, p.right.id});
  return ids;
}

TEST(DistanceJoinTest, MatchesBruteForce) {
  Rng rng(1);
  std::vector<ObjectEntry> a = MakeRandomObjects(300, &rng, 1000);
  std::vector<ObjectEntry> b = MakeRandomObjects(250, &rng, 1000, 1000);
  const PackedTree ta = BulkLoadPacked(a), tb = BulkLoadPacked(b);
  for (double d : {5.0, 25.0, 60.0, 150.0}) {
    std::vector<JoinPair> got = DistanceJoin(ta, tb, d);
    EXPECT_EQ(Ids(got), BruteForcePairs(a, b, d)) << "d=" << d;
    for (const JoinPair& p : got) {
      EXPECT_LE(p.distance, d);
      EXPECT_NEAR(p.distance, geom::Dist(p.left.position, p.right.position), 1e-12);
    }
  }
}

TEST(DistanceJoinTest, DifferentTreeHeights) {
  Rng rng(2);
  std::vector<ObjectEntry> big = MakeRandomObjects(4000, &rng, 1000);
  std::vector<ObjectEntry> small = MakeRandomObjects(15, &rng, 1000, 10000);
  const PackedTree tb = BulkLoadPacked(big), ts = BulkLoadPacked(small);
  ASSERT_GT(tb.height(), ts.height());
  std::vector<JoinPair> got = DistanceJoin(tb, ts, 30.0);
  EXPECT_EQ(Ids(got), BruteForcePairs(big, small, 30.0));
  // Symmetric call agrees (with roles swapped).
  std::vector<JoinPair> swapped = DistanceJoin(ts, tb, 30.0);
  std::set<std::pair<int64_t, int64_t>> flipped;
  for (const JoinPair& p : swapped) flipped.insert({p.right.id, p.left.id});
  EXPECT_EQ(Ids(got), flipped);
}

TEST(DistanceJoinTest, EmptyAndZeroCases) {
  Rng rng(3);
  const PackedTree empty;
  const PackedTree some = BulkLoadPacked(MakeRandomObjects(50, &rng, 100));
  EXPECT_TRUE(DistanceJoin(empty, some, 10.0).empty());
  EXPECT_TRUE(DistanceJoin(some, empty, 10.0).empty());
  EXPECT_TRUE(DistanceJoin(some, some, -1.0).empty());
}

TEST(DistanceJoinTest, SelfJoinIncludesDiagonal) {
  Rng rng(4);
  std::vector<ObjectEntry> objs = MakeRandomObjects(100, &rng, 1000);
  const PackedTree tree = BulkLoadPacked(objs);
  std::vector<JoinPair> got = DistanceJoin(tree, tree, 0.0);
  // Threshold 0: only the diagonal pairs (positions are almost surely
  // distinct).
  EXPECT_EQ(got.size(), 100u);
  for (const JoinPair& p : got) EXPECT_EQ(p.left.id, p.right.id);
}

TEST(DistanceJoinTest, PrunesFarSubtrees) {
  // Two well-separated clusters: the join must not touch the far cluster's
  // leaves.
  Rng rng(5);
  std::vector<ObjectEntry> a, b;
  for (int i = 0; i < 500; ++i) {
    a.push_back({{rng.Uniform(0, 100), rng.Uniform(0, 100)}, i});
    b.push_back({{rng.Uniform(5000, 5100), rng.Uniform(0, 100)}, 1000 + i});
  }
  const PackedTree ta = BulkLoadPacked(a), tb = BulkLoadPacked(b);
  AccessCounter ca, cb;
  std::vector<JoinPair> got = DistanceJoin(ta, tb, 50.0, &ca, &cb);
  EXPECT_TRUE(got.empty());
  // Only the roots (and perhaps one level) are touched.
  EXPECT_LE(ca.total() + cb.total(), 6u);
}

TEST(DistanceJoinTest, SortedOutput) {
  Rng rng(6);
  std::vector<ObjectEntry> a = MakeRandomObjects(200, &rng, 300);
  std::vector<ObjectEntry> b = MakeRandomObjects(200, &rng, 300, 1000);
  std::vector<JoinPair> got = DistanceJoin(BulkLoadPacked(a), BulkLoadPacked(b), 40.0);
  for (size_t i = 1; i < got.size(); ++i) {
    bool ordered = got[i - 1].left.id < got[i].left.id ||
                   (got[i - 1].left.id == got[i].left.id &&
                    got[i - 1].right.id < got[i].right.id);
    EXPECT_TRUE(ordered) << "index " << i;
  }
}

// A join against a one-object tree is a circle query around that object:
// over an STR-packed and an insert-built tree, it returns exactly the
// objects within the threshold of the query point.
TEST(DistanceJoinTest, SinglePointJoinIsACircleQuery) {
  RStarTree::Options small;
  small.max_entries = 8;
  small.min_entries = 3;
  Rng rng(8);
  std::vector<ObjectEntry> objs = MakeRandomObjects(1200, &rng, 1000);
  const PackedTree str = StrTree(objs, small);
  const PackedTree inserted = InsertTree(objs, small);
  for (int trial = 0; trial < 40; ++trial) {
    const ObjectEntry q{{rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, -1};
    const double r = rng.Uniform(10, 300);
    const PackedTree point = StrTree({q});
    std::set<std::pair<int64_t, int64_t>> expected;
    for (const ObjectEntry& o : objs) {
      if (geom::Dist(o.position, q.position) <= r) expected.insert({o.id, q.id});
    }
    EXPECT_EQ(Ids(DistanceJoin(str, point, r)), expected) << "trial " << trial;
    EXPECT_EQ(Ids(DistanceJoin(inserted, point, r)), expected) << "trial " << trial;
  }
}

// The join's answer depends on the objects, not on how their tree was
// built: STR packing and one-at-a-time insertion give the same pairs with
// the same distances.
TEST(DistanceJoinTest, InsertBuiltAndStrTreesGiveTheSamePairs) {
  RStarTree::Options small;
  small.max_entries = 8;
  small.min_entries = 3;
  Rng rng(9);
  std::vector<ObjectEntry> a = MakeRandomObjects(800, &rng, 1000);
  std::vector<ObjectEntry> b = MakeRandomObjects(600, &rng, 1000, 5000);
  const PackedTree str_a = StrTree(a), str_b = StrTree(b, small);
  const PackedTree ins_a = InsertTree(a, small), ins_b = InsertTree(b, {});
  for (double d : {0.0, 15.0, 70.0}) {
    const std::vector<JoinPair> want = DistanceJoin(str_a, str_b, d);
    const std::vector<JoinPair> got = DistanceJoin(ins_a, ins_b, d);
    ASSERT_EQ(got.size(), want.size()) << "d=" << d;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].left.id, want[i].left.id) << "d=" << d << " pair " << i;
      EXPECT_EQ(got[i].right.id, want[i].right.id) << "d=" << d << " pair " << i;
      EXPECT_EQ(got[i].distance, want[i].distance) << "d=" << d << " pair " << i;
    }
    EXPECT_EQ(Ids(got), BruteForcePairs(a, b, d)) << "d=" << d;
  }
}

// Node accesses never fall as the threshold grows (a wider threshold
// prunes a subset of the node pairs a narrower one prunes), and a threshold
// spanning the whole extent reads every node of both trees at least once.
TEST(DistanceJoinTest, AccessCountsGrowWithTheThreshold) {
  Rng rng(10);
  const PackedTree left = StrTree(MakeRandomObjects(2000, &rng, 1000));
  const PackedTree right = InsertTree(MakeRandomObjects(900, &rng, 1000, 5000), {});
  AccessCounter prev_left, prev_right;
  for (double d : {0.0, 5.0, 20.0, 80.0, 300.0, 2000.0}) {
    AccessCounter lc, rc;
    DistanceJoin(left, right, d, &lc, &rc);
    EXPECT_GE(lc.index_nodes, prev_left.index_nodes) << "d=" << d;
    EXPECT_GE(lc.leaf_nodes, prev_left.leaf_nodes) << "d=" << d;
    EXPECT_GE(rc.index_nodes, prev_right.index_nodes) << "d=" << d;
    EXPECT_GE(rc.leaf_nodes, prev_right.leaf_nodes) << "d=" << d;
    EXPECT_EQ(lc.misses() + rc.misses(), 0u) << "d=" << d;  // no storage hook
    prev_left = lc;
    prev_right = rc;
  }
  EXPECT_GE(prev_left.total(), left.node_count());
  EXPECT_GE(prev_right.total(), right.node_count());
  AccessCounter narrow;
  DistanceJoin(left, right, 5.0, &narrow);
  EXPECT_LT(narrow.total(), prev_left.total());
}

// Pins the synchronized descent itself:the exact pair count and each
// side's index and leaf node accesses, over seeded trees of heights 2, 4
// and 5 (STR-packed and insert-built), joined both ways round so both
// "descend the deeper side" branches run, at thresholds from 0 (nothing
// but the self-join's diagonal) up to a dense 120.
TEST(DistanceJoinTest, PinnedPairCountsAndNodeAccesses) {
  RStarTree::Options small;
  small.max_entries = 8;
  small.min_entries = 3;
  Rng rng(7);
  const auto shallow = StrTree(MakeRandomObjects(200, &rng, 1000));
  const auto deep = StrTree(MakeRandomObjects(5000, &rng, 1000, 10000), small);
  const auto inserted = InsertTree(MakeRandomObjects(1500, &rng, 1000, 20000), small);
  ASSERT_EQ(shallow.height(), 2);
  ASSERT_EQ(deep.height(), 5);
  ASSERT_EQ(inserted.height(), 4);

  // One pinned join: threshold, pair count, then index and leaf node
  // accesses of the left and of the right tree.
  struct Pin {
    double threshold;
    size_t pairs;
    uint64_t left_index, left_leaf, right_index, right_leaf;
  };
  auto check = [](const auto& left, const auto& right, const std::vector<Pin>& pins) {
    for (const Pin& p : pins) {
      AccessCounter lc, rc;
      EXPECT_EQ(DistanceJoin(left, right, p.threshold, &lc, &rc).size(), p.pairs)
          << p.threshold;
      EXPECT_EQ(lc.index_nodes, p.left_index) << p.threshold;
      EXPECT_EQ(lc.leaf_nodes, p.left_leaf) << p.threshold;
      EXPECT_EQ(rc.index_nodes, p.right_index) << p.threshold;
      EXPECT_EQ(rc.leaf_nodes, p.right_leaf) << p.threshold;
    }
  };
  check(shallow, deep,
        {{0, 0, 1, 117, 96, 635},
         {10, 328, 1, 138, 96, 717},
         {40, 4854, 1, 154, 96, 861},
         {120, 40634, 1, 232, 96, 1380}});
  check(deep, shallow,
        {{0, 0, 96, 625, 1, 635},
         {10, 328, 96, 625, 1, 717},
         {40, 4854, 96, 625, 1, 861},
         {120, 40634, 96, 625, 1, 1380}});
  check(deep, inserted,
        {{0, 0, 142, 826, 276, 856},
         {10, 2301, 151, 1036, 312, 1346},
         {40, 36279, 176, 1615, 416, 3364},
         {120, 302924, 244, 3739, 752, 12134}});
  check(inserted, shallow,
        {{0, 0, 54, 261, 1, 277},
         {10, 95, 54, 261, 1, 303},
         {40, 1455, 54, 261, 1, 376},
         {120, 12272, 54, 261, 1, 589}});
  check(inserted, inserted,
        {{0, 1500, 70, 303, 104, 283},
         {10, 2236, 97, 432, 198, 521},
         {40, 12408, 111, 752, 316, 1665},
         {120, 92338, 141, 1592, 438, 5323}});
}

}  // namespace
}  // namespace senn::rtree
