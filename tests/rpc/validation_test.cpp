// Protocol-boundary hardening regression tests (satellite: input
// validation). Hand-crafted malformed and semantically invalid frames go
// through the full loopback dispatch path; every one must come back as a
// well-formed kError reply with the right code — never a crash, never a
// silent empty kKnnReply. The region and rival requests get the same
// battery.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>

#include "src/common/rng.h"
#include "src/core/server.h"
#include "src/rpc/client.h"
#include "src/rpc/loopback.h"
#include "src/rpc/service.h"
#include "src/rpc/wire.h"

namespace senn::rpc {
namespace {

using geom::Vec2;

class ValidationTest : public ::testing::Test {
 protected:
  ValidationTest() {
    Rng rng = Rng(20060403).Stream("validation/world");
    std::vector<core::Poi> pois;
    for (int i = 0; i < 300; ++i) {
      pois.push_back({i, {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}});
    }
    server_ = std::make_unique<core::SpatialServer>(std::move(pois));
    service_ = std::make_unique<QueryService>(server_.get(), ServiceOptions{});
    transport_ = std::make_unique<LoopbackTransport>(service_.get());
  }

  // Sends raw bytes, then decodes every reply frame the dispatch produced.
  std::vector<Frame> Exchange(const std::vector<uint8_t>& bytes) {
    EXPECT_TRUE(transport_->Send(bytes.data(), bytes.size()).ok());
    std::vector<uint8_t> reply_bytes;
    EXPECT_TRUE(transport_->Receive(&reply_bytes).ok());
    FrameDecoder decoder;
    EXPECT_TRUE(decoder.Feed(reply_bytes.data(), reply_bytes.size()).ok());
    std::vector<Frame> frames;
    Frame frame;
    while (decoder.Next(&frame)) frames.push_back(std::move(frame));
    return frames;
  }

  // Asserts the frame is a decodable kError with the given code.
  void ExpectError(const Frame& frame, ErrorCode code, uint64_t request_id) {
    EXPECT_EQ(frame.opcode(), Opcode::kError);
    EXPECT_EQ(frame.header.request_id, request_id);
    Result<ErrorReply> error = DecodeError(frame.payload);
    ASSERT_TRUE(error.ok()) << "kError reply itself must be well-formed";
    EXPECT_EQ(error->code, code);
    EXPECT_FALSE(error->message.empty());
  }

  std::unique_ptr<core::SpatialServer> server_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<LoopbackTransport> transport_;
};

KnnRequest BadRequest(double x, double y, int32_t k, int32_t certified = 0) {
  KnnRequest request;
  request.q = {x, y};
  request.k = k;
  request.already_certified = certified;
  return request;
}

TEST_F(ValidationTest, NonPositiveKGetsInvalidArgument) {
  std::vector<uint8_t> bytes;
  EncodeKnnRequest(1, BadRequest(10, 10, 0), &bytes);
  EncodeKnnRequest(2, BadRequest(10, 10, -5), &bytes);
  std::vector<Frame> replies = Exchange(bytes);
  ASSERT_EQ(replies.size(), 2u);
  ExpectError(replies[0], ErrorCode::kInvalidArgument, 1);
  ExpectError(replies[1], ErrorCode::kInvalidArgument, 2);
}

TEST_F(ValidationTest, KAboveTheReplyCapGetsInvalidArgument) {
  std::vector<uint8_t> bytes;
  EncodeKnnRequest(1, BadRequest(10, 10, kMaxKnnK + 1), &bytes);
  EncodeKnnRequest(2, BadRequest(10, 10, std::numeric_limits<int32_t>::max()), &bytes);
  EncodeKnnRequest(3, BadRequest(10, 10, kMaxKnnK, kMaxKnnK), &bytes);
  std::vector<Frame> replies = Exchange(bytes);
  ASSERT_EQ(replies.size(), 3u);
  ExpectError(replies[0], ErrorCode::kInvalidArgument, 1);
  ExpectError(replies[1], ErrorCode::kInvalidArgument, 2);
  // k == kMaxKnnK is valid (here every answer is client-certified).
  EXPECT_EQ(replies[2].opcode(), Opcode::kKnnReply);
  EXPECT_EQ(kMaxKnnK, 32766);
  EXPECT_TRUE(ValidateKnnRequest(BadRequest(10, 10, kMaxKnnK)).ok());
  EXPECT_EQ(ValidateKnnRequest(BadRequest(10, 10, kMaxKnnK + 1)).code(),
            Status::Code::kInvalidArgument);
}

TEST_F(ValidationTest, NonFiniteCoordinatesGetInvalidArgument) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<uint8_t> bytes;
  EncodeKnnRequest(1, BadRequest(nan, 10, 3), &bytes);
  EncodeKnnRequest(2, BadRequest(10, inf, 3), &bytes);
  EncodeKnnRequest(3, BadRequest(-inf, nan, 3), &bytes);
  std::vector<Frame> replies = Exchange(bytes);
  ASSERT_EQ(replies.size(), 3u);
  for (size_t i = 0; i < replies.size(); ++i) {
    ExpectError(replies[i], ErrorCode::kInvalidArgument, i + 1);
  }
}

TEST_F(ValidationTest, InconsistentPruneBoundsGetInvalidArgument) {
  KnnRequest crossed = BadRequest(10, 10, 3);
  crossed.bounds = {100.0, 5.0, INT64_MAX};  // lower > upper
  KnnRequest nan_bound = BadRequest(10, 10, 3);
  nan_bound.bounds = {std::numeric_limits<double>::quiet_NaN(), std::nullopt, INT64_MAX};
  KnnRequest negative = BadRequest(10, 10, 3);
  negative.bounds = {std::nullopt, -2.0, INT64_MAX};
  KnnRequest over_certified = BadRequest(10, 10, 3, 4);  // certified > k

  std::vector<uint8_t> bytes;
  EncodeKnnRequest(1, crossed, &bytes);
  EncodeKnnRequest(2, nan_bound, &bytes);
  EncodeKnnRequest(3, negative, &bytes);
  EncodeKnnRequest(4, over_certified, &bytes);
  std::vector<Frame> replies = Exchange(bytes);
  ASSERT_EQ(replies.size(), 4u);
  for (size_t i = 0; i < replies.size(); ++i) {
    ExpectError(replies[i], ErrorCode::kInvalidArgument, i + 1);
  }
}

TEST_F(ValidationTest, UndecodablePayloadGetsMalformedFrame) {
  // A kKnnRequest frame whose payload is three garbage bytes: the header is
  // fine (it frames correctly), the payload decoder must reject it.
  std::vector<uint8_t> bytes;
  EncodeFrame(Opcode::kKnnRequest, 7, {0xDE, 0xAD, 0xBF}, &bytes);
  std::vector<Frame> replies = Exchange(bytes);
  ASSERT_EQ(replies.size(), 1u);
  ExpectError(replies[0], ErrorCode::kMalformedFrame, 7);
}

TEST_F(ValidationTest, TrailingGarbageInPayloadGetsMalformedFrame) {
  KnnRequest request = BadRequest(10, 10, 3);
  std::vector<uint8_t> one;
  EncodeKnnRequest(9, request, &one);
  // Graft 4 extra bytes into the payload and fix up the length field.
  std::vector<uint8_t> payload(one.begin() + static_cast<long>(kHeaderSize), one.end());
  payload.insert(payload.end(), {1, 2, 3, 4});
  std::vector<uint8_t> bytes;
  EncodeFrame(Opcode::kKnnRequest, 9, payload, &bytes);
  std::vector<Frame> replies = Exchange(bytes);
  ASSERT_EQ(replies.size(), 1u);
  ExpectError(replies[0], ErrorCode::kMalformedFrame, 9);
}

TEST_F(ValidationTest, UnknownOpcodeGetsUnsupportedOpcode) {
  std::vector<uint8_t> bytes;
  EncodeFrame(static_cast<Opcode>(200), 11, {}, &bytes);
  std::vector<Frame> replies = Exchange(bytes);
  ASSERT_EQ(replies.size(), 1u);
  ExpectError(replies[0], ErrorCode::kUnsupportedOpcode, 11);
}

TEST_F(ValidationTest, ValidRequestsAroundInvalidOnesStillGetAnswered) {
  // The invalid request must not poison its neighbors in the same group.
  KnnRequest good;
  good.q = {500, 500};
  good.k = 5;
  std::vector<uint8_t> bytes;
  EncodeKnnRequest(1, good, &bytes);
  EncodeKnnRequest(2, BadRequest(10, 10, -1), &bytes);
  EncodeKnnRequest(3, good, &bytes);
  std::vector<Frame> replies = Exchange(bytes);
  ASSERT_EQ(replies.size(), 3u);

  const core::ServerReply want = server_->QueryKnn(good.q, good.k);
  EXPECT_EQ(replies[0].opcode(), Opcode::kKnnReply);
  Result<core::ServerReply> first = DecodeKnnReply(replies[0].payload);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->neighbors, want.neighbors);
  ExpectError(replies[1], ErrorCode::kInvalidArgument, 2);
  EXPECT_EQ(replies[2].opcode(), Opcode::kKnnReply);
  EXPECT_EQ(replies[2].header.request_id, 3u);
}

TEST_F(ValidationTest, GarbageByteStreamGetsOneFramingErrorThenPoison) {
  // A valid request followed by header garbage: the valid one is answered,
  // the corruption gets a kError with request id 0, and the transport
  // refuses further sends (the TCP server closes the connection here).
  KnnRequest good;
  good.q = {500, 500};
  good.k = 2;
  std::vector<uint8_t> bytes;
  EncodeKnnRequest(21, good, &bytes);
  for (size_t i = 0; i < kHeaderSize; ++i) bytes.push_back(0xFF);
  std::vector<Frame> replies = Exchange(bytes);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].opcode(), Opcode::kKnnReply);
  EXPECT_EQ(replies[0].header.request_id, 21u);
  ExpectError(replies[1], ErrorCode::kMalformedFrame, 0);

  uint8_t byte = 0;
  EXPECT_EQ(transport_->Send(&byte, 1).code(), Status::Code::kFailedPrecondition);
}

RegionKnnRequest GoodRegionRequest() {
  RegionKnnRequest request;
  request.q = {500, 500};
  request.k = 4;
  request.horizon = 200;
  request.region = {geom::Circle({480, 500}, 30), geom::Circle({520, 510}, 25)};
  return request;
}

TEST_F(ValidationTest, InvalidRegionRequestsGetInvalidArgument) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<RegionKnnRequest> bad(9, GoodRegionRequest());
  bad[0].horizon = nan;
  bad[1].horizon = -inf;
  bad[2].horizon = -1.0;
  bad[3].region[0].radius = inf;
  bad[4].region[1].radius = -2.0;
  bad[5].k = 0;
  bad[6].k = -3;
  bad[7].k = kMaxKnnK + 1;
  bad[8].q.y = inf;
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i < bad.size(); ++i) EncodeRegionKnnRequest(i + 1, bad[i], &bytes);
  EncodeRegionKnnRequest(bad.size() + 1, GoodRegionRequest(), &bytes);
  std::vector<Frame> replies = Exchange(bytes);
  ASSERT_EQ(replies.size(), bad.size() + 1);
  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectError(replies[i], ErrorCode::kInvalidArgument, i + 1);
  }
  // The valid request after them is answered, k == kMaxKnnK included.
  EXPECT_EQ(replies.back().opcode(), Opcode::kKnnReply);
  EXPECT_EQ(service_->stats().region, 1u);
  RegionKnnRequest largest_k = GoodRegionRequest();
  largest_k.k = kMaxKnnK;
  EXPECT_TRUE(ValidateRegionKnnRequest(largest_k).ok());
}

TEST_F(ValidationTest, InvalidRivalRequestsGetInvalidArgument) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<uint8_t> bytes;
  EncodeRivalRequest(1, {{500, 500}, nan}, &bytes);
  EncodeRivalRequest(2, {{500, 500}, inf}, &bytes);
  EncodeRivalRequest(3, {{500, 500}, -1.0}, &bytes);
  EncodeRivalRequest(4, {{nan, 500}, 10.0}, &bytes);
  EncodeRivalRequest(5, {{500, 500}, 50.0}, &bytes);
  std::vector<Frame> replies = Exchange(bytes);
  ASSERT_EQ(replies.size(), 5u);
  for (size_t i = 0; i < 4; ++i) ExpectError(replies[i], ErrorCode::kInvalidArgument, i + 1);
  EXPECT_EQ(replies[4].opcode(), Opcode::kKnnReply);
  EXPECT_EQ(service_->stats().rival, 1u);
}

TEST_F(ValidationTest, UndecodableRegionAndRivalPayloadsGetMalformedFrame) {
  std::vector<uint8_t> bytes;
  EncodeFrame(Opcode::kRegionKnnRequest, 1, {0xDE, 0xAD}, &bytes);
  EncodeFrame(Opcode::kRivalRequest, 2, {0xBE, 0xEF}, &bytes);
  std::vector<Frame> replies = Exchange(bytes);
  ASSERT_EQ(replies.size(), 2u);
  ExpectError(replies[0], ErrorCode::kMalformedFrame, 1);
  ExpectError(replies[1], ErrorCode::kMalformedFrame, 2);
}

TEST_F(ValidationTest, RegionLongerThanTheCapGetsAnError) {
  // kMaxRegionCircles disks are answered; one more is refused as an invalid
  // argument before the engine runs. A region whose frame exceeds
  // kDefaultMaxPayload never reaches validation: the transport's decoder
  // refuses it with a framing error (and closes the connection).
  RegionKnnRequest request = GoodRegionRequest();
  request.region.assign(static_cast<size_t>(kMaxRegionCircles), geom::Circle({0, 0}, 1));
  std::vector<uint8_t> bytes;
  EncodeRegionKnnRequest(1, request, &bytes);
  request.region.emplace_back(geom::Vec2{0, 0}, 1.0);
  EncodeRegionKnnRequest(2, request, &bytes);
  std::vector<Frame> replies = Exchange(bytes);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].opcode(), Opcode::kKnnReply);
  ExpectError(replies[1], ErrorCode::kInvalidArgument, 2);

  // 24 bytes per disk on the wire.
  request.region.assign(kDefaultMaxPayload / 24 + 1, geom::Circle({0, 0}, 1));
  bytes.clear();
  EncodeRegionKnnRequest(3, request, &bytes);
  ASSERT_GT(bytes.size() - kHeaderSize, kDefaultMaxPayload);
  replies = Exchange(bytes);
  ASSERT_EQ(replies.size(), 1u);
  ExpectError(replies[0], ErrorCode::kMalformedFrame, 0);
  EXPECT_EQ(service_->stats().region, 1u);
}

TEST(ValidationWorkTest, WorstCaseRegionAndRivalRequestsFinishQuickly) {
  // One frame must not buy unbounded work under the engine lock. The
  // largest region allowed, a grid of disjoint disks that many nodes cut,
  // makes each coverage test split the node's remainder into ever more
  // pieces: without the per-query polygon budget these twenty requests
  // take about half a minute, with it a fraction of a second. A rival
  // request with a huge radius would scan and copy the whole table before
  // the cap refused it; the scan stops one rival past the cap instead.
  Rng rng = Rng(20060403).Stream("validation/work");
  std::vector<core::Poi> pois;
  for (int i = 0; i < kMaxKnnK + 8000; ++i) {
    pois.push_back({i, {rng.Uniform(0, 10000), rng.Uniform(0, 10000)}});
  }
  // Small nodes give many levels, so many nodes are expanded (and their
  // branches tested for coverage) after the bound saturates.
  rtree::RStarTree::Options small_nodes;
  small_nodes.max_entries = 8;
  small_nodes.min_entries = 3;
  core::SpatialServer server(std::move(pois), small_nodes);
  QueryService service(&server, ServiceOptions{});
  LoopbackTransport transport(&service);
  Client client(&transport);

  std::vector<RegionKnnRequest> regions;
  for (int offset = 0; offset < 1000; offset += 50) {
    RegionKnnRequest& region = regions.emplace_back();
    region.q = {5000, 5000};
    region.k = 256;
    region.horizon = 1e300;
    for (int32_t i = 0; i < kMaxRegionCircles; ++i) {
      region.region.emplace_back(
          geom::Vec2{4650.0 + offset + 100.0 * (i % 8), 4650.0 + 100.0 * (i / 8)}, 30.0);
    }
  }
  std::vector<Result<core::ServerReply>> replies;
  const auto start = std::chrono::steady_clock::now();
  for (const RegionKnnRequest& region : regions) replies.push_back(client.RegionKnn(region));
  Result<core::ServerReply> rivals = client.Rivals({{5000, 5000}, 1e300});
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(seconds, 10.0);

  for (size_t i = 0; i < regions.size(); ++i) {
    const RegionKnnRequest& region = regions[i];
    ASSERT_TRUE(replies[i].ok()) << replies[i].status().message();
    EXPECT_EQ(replies[i].value(), server.QueryKnnWithRegion(region.q, region.k, region.horizon,
                                                            region.region));
  }
  ASSERT_FALSE(rivals.ok());
  EXPECT_EQ(rivals.status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(service.stats().region, regions.size());
  EXPECT_EQ(service.stats().errors, 1u);
}

TEST_F(ValidationTest, ClientSurfacesServerErrorsAsStatuses) {
  Client client(transport_.get());
  Result<core::ServerReply> result = client.Knn(BadRequest(10, 10, -7));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
  // The engine was never touched and the connection still works.
  KnnRequest good;
  good.q = {1, 1};
  good.k = 1;
  EXPECT_TRUE(client.Knn(good).ok());
}

}  // namespace
}  // namespace senn::rpc
