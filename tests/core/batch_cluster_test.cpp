// Cluster formation and the degenerate corners of the batch path: empty
// batches, singletons, tiles of identical points, straddled tile
// boundaries, k = 0 requests, option clamps, and determinism of the formed
// clusters under shuffled input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "src/core/batch_server.h"
#include "tests/core/batch_test_util.h"

namespace senn::core {
namespace {

using batch_testing::BatchWorld;
using batch_testing::BuildBatchWorld;
using batch_testing::ExpectSameNeighbors;
using batch_testing::WorldOptions;

/// A content signature of one request — everything that feeds the answer,
/// printed bit-exactly (%a) so signature equality is content equality.
std::string Signature(const BatchQuery& bq) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%a,%a,k%d,c%d,l%d:%a,i%lld,u%d:%a", bq.q.x,
                bq.q.y, bq.k, bq.already_certified, bq.bounds.lower.has_value(),
                bq.bounds.lower.value_or(0.0),
                static_cast<long long>(bq.bounds.lower_id_cut),
                bq.bounds.upper.has_value(), bq.bounds.upper.value_or(0.0));
  return buf;
}

std::vector<std::vector<std::string>> ClusterSignatures(
    const std::vector<BatchQuery>& queries,
    const std::vector<std::vector<size_t>>& clusters) {
  std::vector<std::vector<std::string>> out;
  for (const std::vector<size_t>& cluster : clusters) {
    std::vector<std::string> sig;
    for (size_t i : cluster) sig.push_back(Signature(queries[i]));
    out.push_back(std::move(sig));
  }
  return out;
}

TEST(BatchClusterTest, EmptyBatchYieldsNothing) {
  BatchWorld w = BuildBatchWorld(0, WorldOptions{});
  BatchServer batch(w.server.get());
  EXPECT_TRUE(batch.FormClusters({}).empty());
  EXPECT_TRUE(batch.AnswerBatch({}).empty());
  EXPECT_EQ(batch.stats().queries, 0u);
  EXPECT_EQ(batch.stats().clusters, 0u);
}

TEST(BatchClusterTest, SingleQueryIsASingletonDelegation) {
  BatchWorld w = BuildBatchWorld(1, WorldOptions{});
  BatchQuery bq;
  bq.q = {300.0, 400.0};
  bq.k = 4;
  BatchServer batch(w.server.get());
  std::vector<std::vector<size_t>> clusters = batch.FormClusters({bq});
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], std::vector<size_t>{0});
  std::vector<ServerReply> replies = batch.AnswerBatch({bq});
  ASSERT_EQ(replies.size(), 1u);
  ExpectSameNeighbors(replies[0].neighbors,
                      w.server->QueryKnn(bq.q, bq.k).neighbors, 1, 0, "singleton");
  EXPECT_EQ(batch.stats().singleton_queries, 1u);
  EXPECT_EQ(batch.stats().batched_queries, 0u);
  EXPECT_EQ(batch.stats().clusters, 0u);
}

TEST(BatchClusterTest, IdenticalPointsChunkByMaxGroup) {
  BatchWorld w = BuildBatchWorld(2, WorldOptions{});
  BatchQuery bq;
  bq.q = {500.0, 500.0};
  bq.k = 3;
  std::vector<BatchQuery> queries(10, bq);
  BatchOptions options;
  options.max_group = 4;
  BatchServer batch(w.server.get(), options);
  std::vector<std::vector<size_t>> clusters = batch.FormClusters(queries);
  std::vector<size_t> sizes;
  std::vector<bool> seen(queries.size(), false);
  for (const std::vector<size_t>& cluster : clusters) {
    sizes.push_back(cluster.size());
    for (size_t i : cluster) {
      ASSERT_LT(i, seen.size());
      EXPECT_FALSE(seen[i]) << "index " << i << " in two clusters";
      seen[i] = true;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
  EXPECT_EQ(sizes, (std::vector<size_t>{4, 4, 2}));

  // Ten identical requests produce ten identical replies, each equal to the
  // sequential answer.
  std::vector<ServerReply> replies = batch.AnswerBatch(queries);
  const ServerReply sequential = w.server->QueryKnn(bq.q, bq.k);
  for (size_t i = 0; i < replies.size(); ++i) {
    ExpectSameNeighbors(replies[i].neighbors, sequential.neighbors, 2, i,
                        "identical points");
  }
  // Every chunk — including the size-2 remainder — is a shared traversal.
  EXPECT_EQ(batch.stats().batched_queries, 10u);
  EXPECT_EQ(batch.stats().singleton_queries, 0u);
  EXPECT_EQ(batch.stats().clusters, 3u);
}

// Tiling is floor(p / cell): a pair 0.2 m apart straddling a boundary lands
// in different tiles (proximity clustering is tile-grained, not radial), a
// point EXACTLY on the boundary belongs to the higher tile, and negative
// coordinates floor toward -inf (not toward zero).
TEST(BatchClusterTest, TileBoundaryStraddlingAndNegativeCoordinates) {
  BatchWorld w = BuildBatchWorld(3, WorldOptions{});
  BatchOptions options;
  options.cluster_cell_m = 100.0;
  options.max_group = 8;
  BatchServer batch(w.server.get(), options);

  auto at = [](double x) {
    BatchQuery bq;
    bq.q = {x, 50.0};
    bq.k = 2;
    return bq;
  };
  // 99.9 | 100.0 100.1 — the boundary point shares the HIGHER tile.
  std::vector<std::vector<size_t>> clusters =
      batch.FormClusters({at(99.9), at(100.0), at(100.1)});
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0], std::vector<size_t>{0});
  ASSERT_EQ(clusters[1].size(), 2u);

  // -50 and +50 are 100 m apart AND in different tiles (-1 vs 0); a
  // truncation bug would fold them both into tile 0.
  clusters = batch.FormClusters({at(-50.0), at(50.0)});
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].size(), 1u);
  EXPECT_EQ(clusters[1].size(), 1u);

  // Straddling pairs still get correct (sequential-identical) answers.
  std::vector<BatchQuery> queries = {at(99.9), at(100.0), at(100.1)};
  std::vector<ServerReply> replies = batch.AnswerBatch(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameNeighbors(replies[i].neighbors,
                        w.server->QueryKnn(queries[i].q, queries[i].k).neighbors,
                        3, i, "straddle");
  }
}

// Any finite query point is a valid request, also one whose tile index
// p / cell lies far outside the int64_t range. Such points keep distinct
// tiles by sign and magnitude (an integer cast of the tile used to be
// undefined there and folded +1e300 and -1e300 into one cluster), and
// their answers equal the sequential ones.
TEST(BatchClusterTest, ExtremeCoordinatesNeverShareACluster) {
  BatchWorld w = BuildBatchWorld(6, WorldOptions{});
  BatchOptions options;
  options.max_group = 16;
  BatchServer batch(w.server.get(), options);
  const std::vector<double> extremes = {1e300, -1e300, DBL_MAX, -DBL_MAX};
  std::vector<BatchQuery> queries;
  for (double x : extremes) {
    for (double y : {0.0, x}) {
      BatchQuery bq;
      bq.q = {x, y};
      bq.k = 3;
      queries.push_back(bq);
    }
  }
  const std::vector<std::vector<size_t>> clusters = batch.FormClusters(queries);
  ASSERT_EQ(clusters.size(), queries.size());
  for (const std::vector<size_t>& cluster : clusters) EXPECT_EQ(cluster.size(), 1u);

  const std::vector<ServerReply> replies = batch.AnswerBatch(queries);
  ASSERT_EQ(replies.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameNeighbors(replies[i].neighbors,
                        w.server->QueryKnn(queries[i].q, queries[i].k).neighbors, 6, i,
                        "extreme coordinates");
  }
}

// k = 0 and already_certified >= k are degenerate requests: an empty reply,
// also when the request rides inside a shared traversal next to live ones.
TEST(BatchClusterTest, DegenerateRequestsInsideASharedTraversal) {
  BatchWorld w = BuildBatchWorld(4, WorldOptions{});
  BatchQuery live;
  live.q = {250.0, 250.0};
  live.k = 5;
  BatchQuery zero = live;
  zero.k = 0;
  BatchQuery certified = live;
  certified.bounds.lower = 1e9;  // everything certified: nothing to return
  certified.already_certified = live.k;

  BatchOptions options;
  options.max_group = 8;
  BatchServer batch(w.server.get(), options);
  std::vector<ServerReply> replies = batch.AnswerBatch({zero, live, certified});
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_TRUE(replies[0].neighbors.empty());
  ExpectSameNeighbors(replies[1].neighbors, w.server->QueryKnn(live.q, live.k).neighbors,
                      4, 1, "live beside degenerate");
  EXPECT_TRUE(replies[2].neighbors.empty());
  EXPECT_EQ(batch.stats().batched_queries, 3u);
}

TEST(BatchClusterTest, FormedClustersAreInvariantUnderInputShuffle) {
  for (int trial = 0; trial < 20; ++trial) {
    WorldOptions wopt;
    wopt.hotspot = true;
    BatchWorld w = BuildBatchWorld(trial, wopt);
    BatchOptions options;
    options.cluster_cell_m = 250.0;
    options.max_group = 4;
    BatchServer batch(w.server.get(), options);
    const std::vector<std::vector<std::string>> baseline =
        ClusterSignatures(w.queries, batch.FormClusters(w.queries));

    Rng rng = Rng(0xC1u).Stream("cluster-shuffle", static_cast<uint64_t>(trial));
    std::vector<BatchQuery> shuffled = w.queries;
    rng.Shuffle(&shuffled);
    EXPECT_EQ(ClusterSignatures(shuffled, batch.FormClusters(shuffled)), baseline)
        << "trial " << trial;
  }
}

TEST(BatchClusterTest, OptionClampsKeepTheBatchWellFormed) {
  BatchWorld w = BuildBatchWorld(5, WorldOptions{});
  BatchQuery bq;
  bq.q = {100.0, 100.0};
  bq.k = 3;

  // max_group < 1 clamps to 1: everything is a singleton.
  BatchOptions options;
  options.max_group = 0;
  BatchServer ones(w.server.get(), options);
  std::vector<std::vector<size_t>> clusters = ones.FormClusters({bq, bq, bq});
  ASSERT_EQ(clusters.size(), 3u);
  for (const std::vector<size_t>& cluster : clusters) EXPECT_EQ(cluster.size(), 1u);

  // cluster_cell_m <= 0 clamps to 1 m; identical points still share a tile.
  options = BatchOptions{};
  options.cluster_cell_m = -5.0;
  BatchServer tiny(w.server.get(), options);
  clusters = tiny.FormClusters({bq, bq});
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 2u);
  std::vector<ServerReply> replies = tiny.AnswerBatch({bq, bq});
  ExpectSameNeighbors(replies[0].neighbors, w.server->QueryKnn(bq.q, bq.k).neighbors,
                      5, 0, "clamped cell");
  ExpectSameNeighbors(replies[1].neighbors, replies[0].neighbors, 5, 1, "clamped cell");
}

}  // namespace
}  // namespace senn::core
