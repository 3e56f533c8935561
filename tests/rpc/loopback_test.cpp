// LoopbackTransport contract tests: the deterministic in-process byte path
// that rpc::LoopbackLink, and with it every simulator server contact, rides.
//
//   * a blocking Knn call returns the BITWISE SpatialServer::QueryKnn reply,
//     in memory and through a bounded buffer pool;
//   * region and rival requests through LoopbackLink return the bitwise
//     QueryKnnWithRegion / QueryRivals replies and leave the pool exactly
//     where the direct calls leave it (the rival fetch touches no page);
//   * a pipelined burst is dispatched as ONE group — one
//     BatchServer::AnswerBatch call — with replies in send order (FIFO),
//     in memory and through a bounded buffer pool, mixed groups included;
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

RegionKnnRequest RandomRegionRequest(Rng* rng) {
  RegionKnnRequest request;
  request.q = {rng->Uniform(0, 1000), rng->Uniform(0, 1000)};
  request.k = static_cast<int32_t>(rng->UniformInt(1, 12));
  request.horizon = rng->Uniform(20, 300);
  const int circles = static_cast<int>(rng->UniformInt(1, 4));
  for (int i = 0; i < circles; ++i) {
    request.region.emplace_back(
        Vec2{request.q.x + rng->Uniform(-60, 60), request.q.y + rng->Uniform(-60, 60)},
        rng->Uniform(10, 120));
  }
  return request;
}

void ExpectSamePool(const core::SpatialServer& direct, const core::SpatialServer& served) {
  if (direct.pager() == nullptr) return;
  const storage::BufferPoolStats& want = direct.pager()->pool().stats();
  const storage::BufferPoolStats& got = served.pager()->pool().stats();
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.evictions, want.evictions);
}

TEST(LoopbackTest, RegionAndRivalRequestsMatchDirectCallsBitwise) {
  storage::BufferPoolOptions small_pool;
  small_pool.capacity_pages = 4;
  small_pool.policy = storage::ReplacementPolicy::kLru;
  for (const std::optional<storage::BufferPoolOptions>& storage :
       {std::optional<storage::BufferPoolOptions>(), std::optional(small_pool)}) {
    SCOPED_TRACE(storage.has_value() ? "4-frame pool" : "in memory");
    Rng rng = Rng(20060403).Stream("loopback/region-rival");
    std::vector<core::Poi> pois = RandomPois(600, &rng);
    const rtree::RStarTree::Options tree = core::SpatialServer::DefaultTreeOptions();
    const rtree::AccessCountMode mode = rtree::AccessCountMode::kOnExpand;
    core::SpatialServer direct(pois, tree, mode, storage);
    core::SpatialServer served(pois, tree, mode, storage);
    LoopbackLink link(&served);

    uint64_t misses = 0;
    uint64_t rivals = 0;
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE(trial);
      const RegionKnnRequest region = RandomRegionRequest(&rng);
      const core::ServerReply want =
          direct.QueryKnnWithRegion(region.q, region.k, region.horizon, region.region);
      const core::ServerReply got =
          link.QueryKnnWithRegion(region.q, region.k, region.horizon, region.region, nullptr);
      EXPECT_EQ(got, want);
      misses += got.einn_accesses.misses();
      ExpectSamePool(direct, served);

      const Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
      const double radius = rng.Uniform(0, 150);
      const storage::BufferPoolStats before =
          storage.has_value() ? served.pager()->pool().stats() : storage::BufferPoolStats{};
      const core::ServerReply want_rivals = direct.QueryRivals(q, radius);
      const core::ServerReply got_rivals = link.QueryRivals(q, radius);
      EXPECT_EQ(got_rivals, want_rivals);
      EXPECT_EQ(got_rivals.einn_accesses.misses(), 0u);
      rivals += got_rivals.neighbors.size();
      ExpectSamePool(direct, served);
      if (storage.has_value()) {
        // The rival fetch reads the tree without the pool.
        const storage::BufferPoolStats& after = served.pager()->pool().stats();
        EXPECT_EQ(after.logical, before.logical);
        EXPECT_EQ(after.hits, before.hits);
        EXPECT_EQ(after.misses, before.misses);
        EXPECT_EQ(after.evictions, before.evictions);
      }
    }
    // Rival fetches add no ServerStats entry; region requests do.
    EXPECT_EQ(served.stats().queries, 40u);
    EXPECT_EQ(served.stats().einn.total(), direct.stats().einn.total());
    EXPECT_GT(rivals, 0u);
    EXPECT_EQ(link.stats().region, 40u);
    EXPECT_EQ(link.stats().rival, 40u);
    EXPECT_EQ(link.stats().groups, 80u);
    if (storage.has_value()) {
      EXPECT_GT(misses, 0u);
    }
  }
}

TEST(LoopbackTest, RivalSetLargerThanOneReplyFrameGetsAnError) {
  // More POIs than kMaxKnnK inside the radius: the reply would poison the
  // client's decoder, so the service refuses it and the connection lives on.
  Rng rng = Rng(20060403).Stream("loopback/max-rivals");
  core::SpatialServer served(RandomPois(kMaxKnnK + 1000, &rng, 10000.0));
  QueryService service(&served, {});
  LoopbackTransport transport(&service);
  Client client(&transport);

  Result<core::ServerReply> rejected = client.Rivals({{5000, 5000}, 20000});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(service.stats().rival, 0u);
  // The refusing scan stopped one rival past the cap, short of the table.
  const size_t cap = static_cast<size_t>(kMaxKnnK);
  const core::ServerReply stopped = served.QueryRivals({5000, 5000}, 20000, cap + 1);
  EXPECT_EQ(stopped.neighbors.size(), cap + 1);
  EXPECT_LT(stopped.einn_accesses.total(),
            served.QueryRivals({5000, 5000}, 20000).einn_accesses.total());

  Result<core::ServerReply> after = client.Rivals({{5000, 5000}, 100});
  ASSERT_TRUE(after.ok()) << after.status().message();
  EXPECT_EQ(after->neighbors, served.QueryRivals({5000, 5000}, 100).neighbors);
  EXPECT_EQ(service.stats().rival, 1u);
}

TEST(LoopbackTest, MixedPipelinedGroupRepliesInRequestOrder) {
  Rng rng = Rng(20060403).Stream("loopback/mixed");
  std::vector<core::Poi> pois = RandomPois(400, &rng);
  core::SpatialServer direct(pois);
  core::SpatialServer served(pois);
  QueryService service(&served, {});
  LoopbackTransport transport(&service);

  const KnnRequest knn = RandomRequest(&rng);
  const RegionKnnRequest region = RandomRegionRequest(&rng);
  const RivalRequest rival{{500, 500}, 80};
  std::vector<uint8_t> bytes;
  EncodeKnnRequest(1, knn, &bytes);
  EncodeRegionKnnRequest(2, region, &bytes);
  EncodeRivalRequest(3, rival, &bytes);
  EncodePing(4, &bytes);
  EncodeKnnRequest(5, knn, &bytes);
  ASSERT_TRUE(transport.Send(bytes.data(), bytes.size()).ok());
  EXPECT_EQ(transport.pending_requests(), 5u);
  std::vector<uint8_t> reply_bytes;
  ASSERT_TRUE(transport.Receive(&reply_bytes).ok());

  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(reply_bytes.data(), reply_bytes.size()).ok());
  std::vector<Frame> replies;
  Frame frame;
  while (decoder.Next(&frame)) replies.push_back(std::move(frame));
  ASSERT_EQ(replies.size(), 5u);
  for (size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].header.request_id, i + 1);
    EXPECT_EQ(replies[i].opcode(), i == 3 ? Opcode::kPong : Opcode::kKnnReply);
  }
  const core::ServerReply want_region =
      direct.QueryKnnWithRegion(region.q, region.k, region.horizon, region.region);
  const core::ServerReply want_rival = direct.QueryRivals(rival.q, rival.radius);
  Result<core::ServerReply> got_region = DecodeKnnReply(replies[1].payload);
  Result<core::ServerReply> got_rival = DecodeKnnReply(replies[2].payload);
  ASSERT_TRUE(got_region.ok());
  ASSERT_TRUE(got_rival.ok());
  EXPECT_EQ(*got_region, want_region);
  EXPECT_EQ(*got_rival, want_rival);
  // Both kNN requests share the group's one batch; same question, same
  // neighbors.
  Result<core::ServerReply> first = DecodeKnnReply(replies[0].payload);
  Result<core::ServerReply> last = DecodeKnnReply(replies[4].payload);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(first->neighbors, direct.QueryKnn(knn.q, knn.k).neighbors);
  EXPECT_EQ(last->neighbors, first->neighbors);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.knn, 2u);
  EXPECT_EQ(stats.region, 1u);
  EXPECT_EQ(stats.rival, 1u);
  EXPECT_EQ(stats.pings, 1u);
  EXPECT_EQ(stats.replies, 5u);
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
