#include "src/rtree/knn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/common/rng.h"

namespace senn::rtree {
namespace {

using geom::Vec2;

std::vector<ObjectEntry> MakeRandomObjects(int n, Rng* rng, double extent = 1000.0) {
  std::vector<ObjectEntry> objs;
  objs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    objs.push_back({{rng->Uniform(0, extent), rng->Uniform(0, extent)}, i});
  }
  return objs;
}

// The tree one-at-a-time insertion builds (splits and forced reinserts
// included), packed for the traversals.
PackedTree InsertAndPack(const std::vector<ObjectEntry>& objs,
                         RStarTree::Options options = RStarTree::Options()) {
  RStarTree tree(options);
  for (const ObjectEntry& o : objs) tree.Insert(o.position, o.id);
  return Pack(tree);
}

std::vector<Neighbor> BruteForceKnn(const std::vector<ObjectEntry>& objs, Vec2 q, int k) {
  std::vector<Neighbor> all;
  all.reserve(objs.size());
  for (const ObjectEntry& o : objs) all.push_back({o, geom::Dist(q, o.position)});
  std::sort(all.begin(), all.end(),
            [](const Neighbor& a, const Neighbor& b) { return a.distance < b.distance; });
  if (static_cast<int>(all.size()) > k) all.resize(static_cast<size_t>(k));
  return all;
}

// Every object an unbounded (E)INN search reports, ascending.
std::vector<Neighbor> Drain(const PackedTree& tree, Vec2 q, PruneBounds bounds = {}) {
  EinnQuery query;
  query.q = q;
  query.bounds = bounds;
  query.needed = static_cast<int>(tree.size()) + 1;
  BestFirstScratch scratch;
  std::vector<Neighbor> out;
  for (const Candidate& c : EinnSearch(tree, query, &scratch, nullptr)) {
    out.push_back({*c.object, c.distance});
  }
  return out;
}

std::vector<int64_t> IdsOf(const std::vector<Neighbor>& ns) {
  std::vector<int64_t> ids;
  for (const Neighbor& n : ns) ids.push_back(n.object.id);
  return ids;
}

class KnnAlgorithmsTest : public ::testing::TestWithParam<int> {};

TEST_P(KnnAlgorithmsTest, DepthFirstMatchesBruteForce) {
  Rng rng(100 + GetParam());
  std::vector<ObjectEntry> objs = MakeRandomObjects(700, &rng);
  const PackedTree tree = InsertAndPack(objs);
  int k = GetParam();
  for (int trial = 0; trial < 30; ++trial) {
    Vec2 q{rng.Uniform(-100, 1100), rng.Uniform(-100, 1100)};
    std::vector<Neighbor> got = DepthFirstKnn(tree, q, k);
    std::vector<Neighbor> want = BruteForceKnn(objs, q, k);
    EXPECT_EQ(IdsOf(got), IdsOf(want)) << "k=" << k << " trial=" << trial;
  }
}

TEST_P(KnnAlgorithmsTest, BestFirstMatchesBruteForce) {
  Rng rng(200 + GetParam());
  std::vector<ObjectEntry> objs = MakeRandomObjects(700, &rng);
  const PackedTree tree = InsertAndPack(objs);
  int k = GetParam();
  for (int trial = 0; trial < 30; ++trial) {
    Vec2 q{rng.Uniform(-100, 1100), rng.Uniform(-100, 1100)};
    std::vector<Neighbor> got = BestFirstKnn(tree, q, k);
    std::vector<Neighbor> want = BruteForceKnn(objs, q, k);
    EXPECT_EQ(IdsOf(got), IdsOf(want)) << "k=" << k << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(VariousK, KnnAlgorithmsTest, ::testing::Values(1, 2, 3, 5, 10, 25));

TEST(KnnTest, KZeroOrNegativeReturnsEmpty) {
  Rng rng(1);
  const PackedTree tree = InsertAndPack({{{1, 1}, 1}});
  EXPECT_TRUE(DepthFirstKnn(tree, {0, 0}, 0).empty());
  EXPECT_TRUE(BestFirstKnn(tree, {0, 0}, -3).empty());
}

TEST(KnnTest, KLargerThanTreeReturnsAll) {
  Rng rng(2);
  std::vector<ObjectEntry> objs = MakeRandomObjects(20, &rng);
  const PackedTree tree = InsertAndPack(objs);
  EXPECT_EQ(DepthFirstKnn(tree, {500, 500}, 100).size(), 20u);
  EXPECT_EQ(BestFirstKnn(tree, {500, 500}, 100).size(), 20u);
}

TEST(KnnTest, EmptyTreeYieldsNothing) {
  const PackedTree tree;
  EXPECT_TRUE(DepthFirstKnn(tree, {0, 0}, 5).empty());
  EXPECT_TRUE(Drain(tree, {0, 0}).empty());
}

TEST(KnnTest, UnboundedSearchReportsEveryObjectAscending) {
  Rng rng(3);
  std::vector<ObjectEntry> objs = MakeRandomObjects(500, &rng);
  const PackedTree tree = InsertAndPack(objs);
  double last = -1.0;
  int count = 0;
  for (const Neighbor& n : Drain(tree, {500, 500})) {
    EXPECT_GE(n.distance, last);
    last = n.distance;
    ++count;
  }
  EXPECT_EQ(count, 500);
}

TEST(KnnTest, UnboundedSearchMatchesBruteForceOrder) {
  Rng rng(4);
  std::vector<ObjectEntry> objs = MakeRandomObjects(300, &rng);
  const PackedTree tree = InsertAndPack(objs);
  Vec2 q{123, 456};
  std::vector<Neighbor> want = BruteForceKnn(objs, q, 300);
  const std::vector<Neighbor> got = Drain(tree, q);
  ASSERT_EQ(got.size(), 300u);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)].object.id, want[static_cast<size_t>(i)].object.id)
        << "rank " << i;
  }
}

TEST(KnnTest, BestFirstVisitsFewerNodesThanDepthFirstOnAverage) {
  // Hjaltason & Samet's algorithm is I/O-optimal; over many queries it must
  // not access more nodes than depth-first branch-and-bound.
  Rng rng(5);
  std::vector<ObjectEntry> objs = MakeRandomObjects(3000, &rng);
  const PackedTree tree = InsertAndPack(objs);
  uint64_t df_total = 0, bf_total = 0;
  for (int trial = 0; trial < 100; ++trial) {
    Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    AccessCounter df, bf;
    DepthFirstKnn(tree, q, 10, &df);
    BestFirstKnn(tree, q, 10, {}, &bf);
    df_total += df.total();
    bf_total += bf.total();
  }
  EXPECT_LE(bf_total, df_total);
}

TEST(KnnTest, UpperBoundPruningPreservesResultsWithinBound) {
  Rng rng(6);
  std::vector<ObjectEntry> objs = MakeRandomObjects(1000, &rng);
  const PackedTree tree = InsertAndPack(objs);
  for (int trial = 0; trial < 25; ++trial) {
    Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    std::vector<Neighbor> plain = BestFirstKnn(tree, q, 10);
    // A valid upper bound: the true 10th distance (exactly what a full heap
    // H of 10 candidates guarantees).
    PruneBounds bounds;
    bounds.upper = plain.back().distance;
    AccessCounter pruned_counter, plain_counter;
    std::vector<Neighbor> pruned = BestFirstKnn(tree, q, 10, bounds, &pruned_counter);
    BestFirstKnn(tree, q, 10, {}, &plain_counter);
    EXPECT_EQ(IdsOf(pruned), IdsOf(plain)) << "trial " << trial;
    EXPECT_LE(pruned_counter.total(), plain_counter.total());
  }
}

TEST(KnnTest, LowerBoundSkipsKnownObjectsAndFindsTheRest) {
  Rng rng(7);
  std::vector<ObjectEntry> objs = MakeRandomObjects(1000, &rng);
  const PackedTree tree = InsertAndPack(objs);
  for (int trial = 0; trial < 25; ++trial) {
    Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    std::vector<Neighbor> plain = BestFirstKnn(tree, q, 10);
    // Simulate: the client certified the first 4 NNs locally; the server
    // must return exactly ranks 5..10.
    PruneBounds bounds;
    bounds.lower = plain[3].distance;
    std::vector<Neighbor> rest = BestFirstKnn(tree, q, 6, bounds);
    ASSERT_EQ(rest.size(), 6u);
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(rest[static_cast<size_t>(i)].object.id,
                plain[static_cast<size_t>(i + 4)].object.id)
          << "trial " << trial << " rank " << i;
    }
  }
}

TEST(KnnTest, BothBoundsTogetherReduceAccesses) {
  // EINN saves pages when the client's certain disk spans whole leaves:
  // use a small fan-out (small leaf MBRs) and a mostly-certified result set,
  // the regime the paper's Figure 17 measures.
  Rng rng(8);
  std::vector<ObjectEntry> objs = MakeRandomObjects(5000, &rng);
  RStarTree::Options opts;
  opts.max_entries = 8;
  opts.min_entries = 3;
  const PackedTree tree = InsertAndPack(objs, opts);
  uint64_t einn_total = 0, inn_total = 0;
  const int k = 40, certified = 30;
  for (int trial = 0; trial < 50; ++trial) {
    Vec2 q{rng.Uniform(100, 900), rng.Uniform(100, 900)};
    std::vector<Neighbor> plain = BestFirstKnn(tree, q, k);
    PruneBounds bounds;
    bounds.lower = plain[certified - 1].distance;  // 30 certified locally
    bounds.upper = plain.back().distance;
    AccessCounter einn, inn;
    std::vector<Neighbor> rest = BestFirstKnn(tree, q, k - certified, bounds, &einn);
    BestFirstKnn(tree, q, k, {}, &inn);
    einn_total += einn.total();
    inn_total += inn.total();
    // Merged result (30 known + 10 fetched) equals the plain top-40.
    ASSERT_EQ(rest.size(), static_cast<size_t>(k - certified));
    for (int i = 0; i < k - certified; ++i) {
      EXPECT_EQ(rest[static_cast<size_t>(i)].object.id,
                plain[static_cast<size_t>(i + certified)].object.id);
    }
  }
  EXPECT_LT(einn_total, inn_total);
}

TEST(KnnTest, TightUpperBoundTerminatesEarly) {
  Rng rng(9);
  std::vector<ObjectEntry> objs = MakeRandomObjects(2000, &rng);
  const PackedTree tree = InsertAndPack(objs);
  Vec2 q{500, 500};
  PruneBounds bounds;
  bounds.upper = 1.0;  // almost certainly no POI within 1 m
  // Either zero results or very few; the search must terminate.
  EXPECT_LE(Drain(tree, q, bounds).size(), 2u);
}

TEST(KnnTest, DuplicateDistancesHandled) {
  // Objects arranged on a circle: all equidistant from the center.
  std::vector<ObjectEntry> objs;
  for (int i = 0; i < 64; ++i) {
    double a = 2.0 * M_PI * i / 64;
    objs.push_back({{std::cos(a) * 10, std::sin(a) * 10}, i});
  }
  const PackedTree tree = InsertAndPack(objs);
  std::vector<Neighbor> got = BestFirstKnn(tree, {0, 0}, 10);
  ASSERT_EQ(got.size(), 10u);
  for (const Neighbor& n : got) EXPECT_NEAR(n.distance, 10.0, 1e-9);
}

}  // namespace
}  // namespace senn::rtree
