// LoopbackTransport contract tests: the deterministic in-process byte path
// the simulator's --server-transport loopback rides.
//
//   * a blocking Knn call returns the BITWISE SpatialServer::QueryKnn reply,
//     in memory and through a bounded buffer pool;
//   * a pipelined burst is dispatched as ONE group — one
//     BatchServer::AnswerBatch call — with replies in send order (FIFO),
//     in memory and through a bounded buffer pool;
//   * the whole path is a pure function of the request bytes: two identical
//     bursts produce identical reply bytes.
#include "src/rpc/loopback.h"

#include <gtest/gtest.h>

#include <optional>

#include "src/common/rng.h"
#include "src/core/batch_server.h"
#include "src/core/server.h"
#include "src/rpc/client.h"
#include "src/rpc/service.h"

namespace senn::rpc {
namespace {

using geom::Vec2;

std::vector<core::Poi> RandomPois(int n, Rng* rng, double extent = 1000.0) {
  std::vector<core::Poi> pois;
  for (int i = 0; i < n; ++i) {
    pois.push_back({i, {rng->Uniform(0, extent), rng->Uniform(0, extent)}});
  }
  return pois;
}

KnnRequest RandomRequest(Rng* rng) {
  KnnRequest request;
  request.q = {rng->Uniform(0, 1000), rng->Uniform(0, 1000)};
  request.k = static_cast<int32_t>(rng->UniformInt(1, 12));
  return request;
}

TEST(LoopbackTest, BlockingCallMatchesDirectQueryKnnBitwise) {
  Rng rng = Rng(20060403).Stream("loopback/blocking");
  std::vector<core::Poi> pois = RandomPois(600, &rng);
  core::SpatialServer direct(pois);
  core::SpatialServer served(pois);  // identical world on both sides
  QueryService service(&served, {});
  LoopbackTransport transport(&service);
  Client client(&transport);

  for (int trial = 0; trial < 40; ++trial) {
    const KnnRequest request = RandomRequest(&rng);
    const core::ServerReply want =
        direct.QueryKnn(request.q, request.k, request.bounds, request.already_certified);
    Result<core::ServerReply> got = client.Knn(request);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(*got, want) << "trial " << trial;  // bitwise, accounting included
  }
}

TEST(LoopbackTest, BlockingCallsThroughABoundedPoolMatchDirectQueryKnn) {
  // The simulator's loopback contact: one blocking call per query to a
  // service that answers groups of one, over a 4-frame pool that cannot hold
  // the tree. Each reply's miss counters depend on what the calls before it
  // left in the pool, so the served pool must evolve exactly like the direct
  // one.
  storage::BufferPoolOptions small_pool;
  small_pool.capacity_pages = 4;
  Rng rng = Rng(20060403).Stream("loopback/blocking-paged");
  std::vector<core::Poi> pois = RandomPois(600, &rng);
  const rtree::RStarTree::Options tree = core::SpatialServer::DefaultTreeOptions();
  const rtree::AccessCountMode mode = rtree::AccessCountMode::kOnExpand;
  core::SpatialServer direct(pois, tree, mode, small_pool);
  core::SpatialServer served(pois, tree, mode, small_pool);
  ServiceOptions options;
  options.batch.max_group = 1;
  QueryService service(&served, options);
  LoopbackTransport transport(&service);
  Client client(&transport);

  uint64_t misses = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const KnnRequest request = RandomRequest(&rng);
    const core::ServerReply want =
        direct.QueryKnn(request.q, request.k, request.bounds, request.already_certified);
    Result<core::ServerReply> got = client.Knn(request);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(*got, want) << "trial " << trial;
    misses += got->einn_accesses.misses();
  }
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(service.stats().groups, 40u);
  EXPECT_EQ(service.batch_stats().batched_queries, 0u);
}

TEST(LoopbackTest, PipelinedBurstIsOneGroupAnsweredLikeAnswerBatch) {
  // In memory, and through a 4-frame buffer pool that cannot hold the tree:
  // there the replies carry the shared traversals' per-query miss counters,
  // which must survive the wire too.
  storage::BufferPoolOptions small_pool;
  small_pool.capacity_pages = 4;
  for (const std::optional<storage::BufferPoolOptions>& storage :
       {std::optional<storage::BufferPoolOptions>(), std::optional(small_pool)}) {
    SCOPED_TRACE(storage.has_value() ? "4-frame pool" : "in memory");
    Rng rng = Rng(20060403).Stream("loopback/burst");
    std::vector<core::Poi> pois = RandomPois(600, &rng);
    const rtree::RStarTree::Options tree = core::SpatialServer::DefaultTreeOptions();
    const rtree::AccessCountMode mode = rtree::AccessCountMode::kOnExpand;

    // Reference: one AnswerBatch call over the burst, on an identical world.
    core::BatchOptions batch;
    batch.cluster_cell_m = 250.0;
    batch.max_group = 8;
    core::SpatialServer ref_server(pois, tree, mode, storage);
    core::BatchServer ref_batch(&ref_server, batch);

    core::SpatialServer served(pois, tree, mode, storage);
    ServiceOptions options;
    options.batch = batch;
    QueryService service(&served, options);
    LoopbackTransport transport(&service);
    Client client(&transport);

    uint64_t misses = 0;
    for (int round = 0; round < 10; ++round) {
      const size_t n = 1 + rng.NextIndex(12);
      std::vector<KnnRequest> requests;
      std::vector<core::BatchQuery> queries;
      for (size_t i = 0; i < n; ++i) {
        KnnRequest request = RandomRequest(&rng);
        requests.push_back(request);
        queries.push_back({request.q, request.k, request.bounds, request.already_certified});
      }
      const std::vector<core::ServerReply> want = ref_batch.AnswerBatch(queries);

      std::vector<uint64_t> ids;
      for (const KnnRequest& request : requests) ids.push_back(client.SendKnn(request));
      ASSERT_TRUE(client.Flush().ok());
      EXPECT_EQ(transport.pending_requests(), n);  // accumulated, not yet dispatched

      const ServiceStats before = service.stats();
      for (size_t i = 0; i < n; ++i) {
        Result<core::ServerReply> got = client.Wait(ids[i]);
        ASSERT_TRUE(got.ok()) << got.status().message();
        EXPECT_EQ(*got, want[i]) << "round " << round << " slot " << i;
        misses += got->einn_accesses.misses();
      }
      // The whole burst was one dispatch group.
      EXPECT_EQ(service.stats().groups, before.groups + 1);
      EXPECT_EQ(service.stats().requests, before.requests + n);
    }
    // The bursts did share traversals, and the pool did miss.
    EXPECT_GT(ref_batch.stats().batched_queries, 0u);
    EXPECT_EQ(service.batch_stats().batched_queries, ref_batch.stats().batched_queries);
    if (storage.has_value()) {
      EXPECT_GT(misses, 0u);
    }
  }
}

TEST(LoopbackTest, RepliesArriveInSendOrder) {
  Rng rng = Rng(20060403).Stream("loopback/fifo");
  core::SpatialServer server(RandomPois(400, &rng));
  QueryService service(&server, {});
  LoopbackTransport transport(&service);
  Client client(&transport);

  std::vector<uint64_t> ids;
  for (int i = 0; i < 16; ++i) ids.push_back(client.SendKnn(RandomRequest(&rng)));
  // Wait in REVERSE order: the reply log must still show send order.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    ASSERT_TRUE(client.Wait(*it).ok());
  }
  ASSERT_EQ(client.reply_log().size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(client.reply_log()[i], ids[i]);
}

TEST(LoopbackTest, IdenticalByteStreamsProduceIdenticalReplyBytes) {
  Rng rng = Rng(20060403).Stream("loopback/determinism");
  std::vector<core::Poi> pois = RandomPois(500, &rng);
  std::vector<KnnRequest> burst;
  for (int i = 0; i < 10; ++i) burst.push_back(RandomRequest(&rng));

  auto run = [&pois, &burst] {
    core::SpatialServer server(pois);
    core::BatchOptions batch;
    batch.max_group = 4;
    ServiceOptions options;
    options.batch = batch;
    QueryService service(&server, options);
    LoopbackTransport transport(&service);
    std::vector<uint8_t> bytes;
    uint64_t id = 1;
    for (const KnnRequest& request : burst) EncodeKnnRequest(id++, request, &bytes);
    EXPECT_TRUE(transport.Send(bytes.data(), bytes.size()).ok());
    std::vector<uint8_t> replies;
    EXPECT_TRUE(transport.Receive(&replies).ok());
    return replies;
  };
  EXPECT_EQ(run(), run());
}

TEST(LoopbackTest, ReceiveWithNothingInFlightFails) {
  Rng rng = Rng(20060403).Stream("loopback/empty");
  core::SpatialServer server(RandomPois(50, &rng));
  QueryService service(&server, {});
  LoopbackTransport transport(&service);
  std::vector<uint8_t> out;
  EXPECT_EQ(transport.Receive(&out).code(), Status::Code::kFailedPrecondition);
}

TEST(LoopbackTest, PingRoundTripsThroughTheService) {
  Rng rng = Rng(20060403).Stream("loopback/ping");
  core::SpatialServer server(RandomPois(50, &rng));
  QueryService service(&server, {});
  LoopbackTransport transport(&service);
  Client client(&transport);
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(service.stats().pings, 1u);
}

TEST(LoopbackTest, LargestValidKFitsOneReplyFrameAndLargerKIsRejected) {
  // More POIs than kMaxKnnK, so the largest valid k gets a full reply: the
  // biggest frame a valid request can produce must still decode, and a
  // larger k must be refused before it reaches the engine, leaving the
  // connection usable.
  Rng rng = Rng(20060403).Stream("loopback/max-k");
  core::SpatialServer served(RandomPois(kMaxKnnK + 1000, &rng, 10000.0));
  QueryService service(&served, {});
  LoopbackTransport transport(&service);
  Client client(&transport);

  KnnRequest request;
  request.q = {5000, 5000};
  request.k = kMaxKnnK;
  Result<core::ServerReply> largest = client.Knn(request);
  ASSERT_TRUE(largest.ok()) << largest.status().message();
  EXPECT_EQ(largest->neighbors.size(), static_cast<size_t>(kMaxKnnK));

  request.k = kMaxKnnK + 1;
  Result<core::ServerReply> rejected = client.Knn(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Status::Code::kInvalidArgument);

  request.k = 5;
  Result<core::ServerReply> after = client.Knn(request);
  ASSERT_TRUE(after.ok()) << after.status().message();
  EXPECT_EQ(after->neighbors.size(), 5u);
}

}  // namespace
}  // namespace senn::rpc
