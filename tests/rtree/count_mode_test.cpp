// Tests of the two page-access accounting modes and the dynamic top-k
// pruning of the sequential EINN search (the realistic INN baseline).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/rtree/knn.h"

namespace senn::rtree {
namespace {

using geom::Vec2;

// The first `needed` results of an EINN search; accesses into `counter`.
std::vector<Neighbor> Einn(const PackedTree& tree, Vec2 q, int needed, PruneBounds bounds = {},
                           AccessCountMode mode = AccessCountMode::kOnExpand,
                           int prune_to_k = 0, AccessCounter* counter = nullptr) {
  EinnQuery query;
  query.q = q;
  query.bounds = bounds;
  query.needed = needed;
  query.prune_to_k = prune_to_k;
  query.count_mode = mode;
  BestFirstScratch scratch;
  std::vector<Neighbor> out;
  for (const Candidate& c : EinnSearch(tree, query, &scratch, counter)) {
    out.push_back({*c.object, c.distance});
  }
  return out;
}

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
    AccessCounter expand, enqueue;
    const std::vector<Neighbor> a = Einn(tree, q, 10, {}, AccessCountMode::kOnExpand, 0, &expand);
    const std::vector<Neighbor> b =
        Einn(tree, q, 10, {}, AccessCountMode::kOnEnqueue, 0, &enqueue);
    ASSERT_EQ(a.size(), 10u);
    ASSERT_EQ(b.size(), 10u);
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].object.id, b[i].object.id);  // accounting must not change results
    }
    EXPECT_GE(enqueue.total(), expand.total());
  }
}

TEST(CountModeTest, DynamicBoundDoesNotChangeResults) {
  const PackedTree tree = BuildTree(2000, 3);
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    const int k = 15;
    const std::vector<Neighbor> plain = Einn(tree, q, k);
    const std::vector<Neighbor> pruned = Einn(tree, q, k, {}, AccessCountMode::kOnExpand, k);
    ASSERT_EQ(plain.size(), static_cast<size_t>(k));
    ASSERT_EQ(pruned.size(), static_cast<size_t>(k));
    for (size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(plain[i].object.id, pruned[i].object.id) << "trial " << trial << " rank " << i;
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
    AccessCounter plain, pruned;
    Einn(tree, q, k, {}, AccessCountMode::kOnEnqueue, 0, &plain);
    Einn(tree, q, k, {}, AccessCountMode::kOnEnqueue, k, &pruned);
    plain_total += plain.total();
    pruned_total += pruned.total();
  }
  EXPECT_LT(pruned_total, plain_total);
}

TEST(CountModeTest, DynamicBoundPrunesTheTail) {
  const PackedTree tree = BuildTree(200, 7);
  const int k = 5;
  // Asking for all 200 objects drains the search: it reports whatever
  // survived the dynamic bound.
  const std::vector<Neighbor> all =
      Einn(tree, {500, 500}, 200, {}, AccessCountMode::kOnExpand, k);
  std::vector<Neighbor> truth = BestFirstKnn(tree, {500, 500}, k);
  ASSERT_GE(all.size(), static_cast<size_t>(k));
  for (size_t i = 0; i < static_cast<size_t>(k); ++i) {
    // The first k results are the exact top-k.
    EXPECT_EQ(all[i].object.id, truth[i].object.id);
  }
  // Everything beyond rank k is best-effort; most of the 200 objects must
  // have been pruned away.
  EXPECT_LT(all.size(), 100u);
}

TEST(CountModeTest, LowerBoundWithPruneToKReturnsCorrectRemainder) {
  // The prune_to_k contract: known objects inside the lower bound count
  // toward k, so the search yields exactly the ranks after the client's
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
    const std::vector<Neighbor> rest =
        Einn(tree, q, k - certified, bounds, AccessCountMode::kOnExpand, k);
    ASSERT_EQ(rest.size(), static_cast<size_t>(k - certified)) << "trial " << trial;
    for (int i = certified; i < k; ++i) {
      EXPECT_EQ(rest[static_cast<size_t>(i - certified)].object.id,
                truth[static_cast<size_t>(i)].object.id);
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
      AccessCounter einn, inn;
      Einn(tree, q, k - certified, bounds, mode, k, &einn);
      Einn(tree, q, k, {}, mode, k, &inn);
      EXPECT_LE(einn.total(), inn.total())
          << "trial " << trial << " mode " << static_cast<int>(mode);
    }
  }
}

}  // namespace
}  // namespace senn::rtree
