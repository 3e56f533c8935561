// Tests of the two page-access accounting modes and the dynamic top-k
// pruning of the best-first iterator (the realistic INN baseline).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/rtree/knn.h"

namespace senn::rtree {
namespace {

using geom::Vec2;

PackedTree BuildTree(int n, uint64_t seed) {
  Rng rng(seed);
  RStarTree tree;
  for (int i = 0; i < n; ++i) {
    tree.Insert({rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, i);
  }
  return Pack(tree);
}

TEST(CountModeTest, EnqueueCountsAtLeastExpand) {
  const PackedTree tree = BuildTree(3000, 1);
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    BestFirstNnIterator expand_it(tree, q, {}, AccessCountMode::kOnExpand);
    BestFirstNnIterator enqueue_it(tree, q, {}, AccessCountMode::kOnEnqueue);
    for (int i = 0; i < 10; ++i) {
      auto a = expand_it.Next();
      auto b = enqueue_it.Next();
      ASSERT_TRUE(a.has_value());
      ASSERT_TRUE(b.has_value());
      EXPECT_EQ(a->object.id, b->object.id);  // accounting must not change results
    }
    EXPECT_GE(enqueue_it.accesses().total(), expand_it.accesses().total());
  }
}

TEST(CountModeTest, DynamicBoundDoesNotChangeResults) {
  const PackedTree tree = BuildTree(2000, 3);
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    const int k = 15;
    BestFirstNnIterator plain(tree, q);
    BestFirstNnIterator pruned(tree, q, {}, AccessCountMode::kOnExpand, k);
    for (int i = 0; i < k; ++i) {
      auto a = plain.Next();
      auto b = pruned.Next();
      ASSERT_TRUE(a.has_value());
      ASSERT_TRUE(b.has_value());
      EXPECT_EQ(a->object.id, b->object.id) << "trial " << trial << " rank " << i;
    }
  }
}

TEST(CountModeTest, DynamicBoundReducesEnqueues) {
  const PackedTree tree = BuildTree(5000, 5);
  Rng rng(6);
  uint64_t plain_total = 0, pruned_total = 0;
  for (int trial = 0; trial < 50; ++trial) {
    Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    const int k = 10;
    BestFirstNnIterator plain(tree, q, {}, AccessCountMode::kOnEnqueue);
    BestFirstNnIterator pruned(tree, q, {}, AccessCountMode::kOnEnqueue, k);
    for (int i = 0; i < k; ++i) {
      plain.Next();
      pruned.Next();
    }
    plain_total += plain.accesses().total();
    pruned_total += pruned.accesses().total();
  }
  EXPECT_LT(pruned_total, plain_total);
}

TEST(CountModeTest, DynamicBoundPrunesTheTail) {
  const PackedTree tree = BuildTree(200, 7);
  const int k = 5;
  BestFirstNnIterator it(tree, {500, 500}, {}, AccessCountMode::kOnExpand, k);
  std::vector<Neighbor> truth = BestFirstKnn(tree, {500, 500}, k);
  int count = 0;
  while (auto n = it.Next()) {
    if (count < k) {
      // The first k results are the exact top-k.
      EXPECT_EQ(n->object.id, truth[static_cast<size_t>(count)].object.id);
    }
    ++count;
  }
  // Everything beyond rank k is best-effort; most of the 200 objects must
  // have been pruned away.
  EXPECT_GE(count, k);
  EXPECT_LT(count, 100);
}

TEST(CountModeTest, LowerBoundWithPruneToKReturnsCorrectRemainder) {
  // The prune_to_k contract: known objects inside the lower bound count
  // toward k, so the iterator yields exactly the ranks after the client's
  // certified prefix.
  const PackedTree tree = BuildTree(1000, 8);
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    const int k = 12, certified = 5;
    std::vector<Neighbor> truth = BestFirstKnn(tree, q, k);
    PruneBounds bounds;
    bounds.lower = truth[certified - 1].distance;
    bounds.upper = truth.back().distance;
    BestFirstNnIterator it(tree, q, bounds, AccessCountMode::kOnExpand, k);
    for (int i = certified; i < k; ++i) {
      auto n = it.Next();
      ASSERT_TRUE(n.has_value()) << "trial " << trial << " rank " << i;
      EXPECT_EQ(n->object.id, truth[static_cast<size_t>(i)].object.id);
    }
  }
}

TEST(CountModeTest, EinnNeverEnqueuesMoreThanInn) {
  const PackedTree tree = BuildTree(4000, 10);
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    const int k = 10, certified = 4;
    std::vector<Neighbor> truth = BestFirstKnn(tree, q, k);
    PruneBounds bounds;
    bounds.lower = truth[certified - 1].distance;
    bounds.upper = truth.back().distance;
    for (AccessCountMode mode : {AccessCountMode::kOnExpand, AccessCountMode::kOnEnqueue}) {
      BestFirstNnIterator einn(tree, q, bounds, mode, k);
      BestFirstNnIterator inn(tree, q, {}, mode, k);
      for (int i = 0; i < k - certified; ++i) einn.Next();
      for (int i = 0; i < k; ++i) inn.Next();
      EXPECT_LE(einn.accesses().total(), inn.accesses().total())
          << "trial " << trial << " mode " << static_cast<int>(mode);
    }
  }
}

}  // namespace
}  // namespace senn::rtree
