// Frame/codec unit tests: header round trips, every opcode, error replies,
// and the protocol-boundary request validation table.
#include "src/rpc/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace senn::rpc {
namespace {

// Feeds all of `bytes` and pops exactly one frame.
Frame DecodeOne(const std::vector<uint8_t>& bytes) {
  FrameDecoder decoder;
  Status st = decoder.Feed(bytes.data(), bytes.size());
  EXPECT_TRUE(st.ok()) << st.message();
  Frame frame;
  EXPECT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(decoder.pending(), 0u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  return frame;
}

TEST(WireTest, FrameHeaderRoundTrips) {
  std::vector<uint8_t> payload{1, 2, 3, 4, 5};
  std::vector<uint8_t> bytes;
  EncodeFrame(Opcode::kKnnRequest, 0xDEADBEEFCAFEF00DULL, payload, &bytes);
  ASSERT_EQ(bytes.size(), kHeaderSize + payload.size());

  Frame frame = DecodeOne(bytes);
  EXPECT_EQ(frame.header.magic, kMagic);
  EXPECT_EQ(frame.header.version, kProtocolVersion);
  EXPECT_EQ(frame.opcode(), Opcode::kKnnRequest);
  EXPECT_EQ(frame.header.flags, 0);
  EXPECT_EQ(frame.header.request_id, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(frame.payload, payload);
}

TEST(WireTest, MagicBytesSpellSnnqOnTheWire) {
  std::vector<uint8_t> bytes;
  EncodeFrame(Opcode::kPing, 1, {}, &bytes);
  ASSERT_GE(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 'S');
  EXPECT_EQ(bytes[1], 'N');
  EXPECT_EQ(bytes[2], 'N');
  EXPECT_EQ(bytes[3], 'Q');
}

TEST(WireTest, KnnRequestRoundTripsWithAllBoundsShapes) {
  const rtree::PruneBounds shapes[] = {
      {},                                    // no bounds
      {12.5, std::nullopt, INT64_MAX},       // lower only
      {std::nullopt, 99.25, INT64_MAX},      // upper only
      {3.0, 47.0, 12345},                    // both + id cut
  };
  uint64_t id = 7;
  for (const rtree::PruneBounds& bounds : shapes) {
    KnnRequest request;
    request.q = {123.456, -789.25};
    request.k = 9;
    request.already_certified = 4;
    request.bounds = bounds;

    std::vector<uint8_t> bytes;
    EncodeKnnRequest(id, request, &bytes);
    Frame frame = DecodeOne(bytes);
    EXPECT_EQ(frame.opcode(), Opcode::kKnnRequest);
    EXPECT_EQ(frame.header.request_id, id);

    Result<KnnRequest> decoded = DecodeKnnRequest(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded->q, request.q);
    EXPECT_EQ(decoded->k, request.k);
    EXPECT_EQ(decoded->already_certified, request.already_certified);
    EXPECT_EQ(decoded->bounds.lower.has_value(), bounds.lower.has_value());
    EXPECT_EQ(decoded->bounds.upper.has_value(), bounds.upper.has_value());
    if (bounds.lower) {
      EXPECT_EQ(*decoded->bounds.lower, *bounds.lower);
    }
    if (bounds.upper) {
      EXPECT_EQ(*decoded->bounds.upper, *bounds.upper);
    }
    EXPECT_EQ(decoded->bounds.lower_id_cut, bounds.lower_id_cut);
    ++id;
  }
}

TEST(WireTest, KnnReplyRoundTripsBitwise) {
  core::ServerReply reply;
  reply.neighbors.push_back({42, {1.5, 2.25}, 3.125});
  reply.neighbors.push_back({7, {-0.5, 1e300}, 0.1});  // 0.1 is not exact: bit test
  reply.einn_accesses = {10, 20, 3, 4, 1, 2};

  std::vector<uint8_t> bytes;
  EncodeKnnReply(99, reply, &bytes);
  Frame frame = DecodeOne(bytes);
  EXPECT_EQ(frame.opcode(), Opcode::kKnnReply);

  Result<core::ServerReply> decoded = DecodeKnnReply(frame.payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(*decoded, reply);  // memberwise, doubles bitwise
}

TEST(WireTest, KnnReplyPayloadIsOneCounterPlusNeighbors) {
  // Version 2: one 48-byte access counter (six u64), a u32 neighbor count,
  // then 32 bytes (id, x, y, distance) per neighbor.
  for (size_t n : {0u, 1u, 7u, 32u}) {
    core::ServerReply reply;
    for (size_t i = 0; i < n; ++i) {
      reply.neighbors.push_back({static_cast<int64_t>(i), {1.0 * i, 2.0 * i}, 0.5 * i});
    }
    std::vector<uint8_t> bytes;
    EncodeKnnReply(1, reply, &bytes);
    EXPECT_EQ(DecodeOne(bytes).payload.size(), 48 + 4 + 32 * n) << n << " neighbors";
  }
}

TEST(WireTest, VersionOneFramePoisonsTheDecoder) {
  // A version-1 peer ships a second access counter in kKnnReply; its frames
  // must be refused at the header, never misparsed as version-2 payloads.
  core::ServerReply reply;
  reply.neighbors.push_back({3, {4, 5}, 6});
  std::vector<uint8_t> bytes;
  EncodeKnnReply(8, reply, &bytes);
  bytes[4] = 1;  // the header's version byte
  FrameDecoder decoder;
  Status st = decoder.Feed(bytes.data(), bytes.size());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("unsupported protocol version 1"), std::string::npos)
      << st.message();
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_EQ(decoder.pending(), 0u);
  // Poisoned for good: even a valid frame is refused afterwards.
  std::vector<uint8_t> valid;
  EncodePing(9, &valid);
  EXPECT_EQ(decoder.Feed(valid.data(), valid.size()).message(), st.message());
  Frame frame;
  EXPECT_FALSE(decoder.Next(&frame));
}

TEST(WireTest, EmptyReplyRoundTrips) {
  core::ServerReply reply;
  std::vector<uint8_t> bytes;
  EncodeKnnReply(1, reply, &bytes);
  Result<core::ServerReply> decoded = DecodeKnnReply(DecodeOne(bytes).payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, reply);
}

TEST(WireTest, ErrorReplyRoundTrips) {
  ErrorReply error{ErrorCode::kInvalidArgument, "k must be positive, got -3"};
  std::vector<uint8_t> bytes;
  EncodeError(55, error, &bytes);
  Frame frame = DecodeOne(bytes);
  EXPECT_EQ(frame.opcode(), Opcode::kError);
  EXPECT_EQ(frame.header.request_id, 55u);

  Result<ErrorReply> decoded = DecodeError(frame.payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->code, error.code);
  EXPECT_EQ(decoded->message, error.message);
}

TEST(WireTest, PingPongCarryNoPayload) {
  std::vector<uint8_t> bytes;
  EncodePing(3, &bytes);
  EncodePong(3, &bytes);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(frame.opcode(), Opcode::kPing);
  EXPECT_TRUE(frame.payload.empty());
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(frame.opcode(), Opcode::kPong);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(WireTest, TrailingGarbageInPayloadIsRejected) {
  KnnRequest request;
  request.q = {1, 2};
  request.k = 3;
  std::vector<uint8_t> bytes;
  EncodeKnnRequest(1, request, &bytes);
  Frame frame = DecodeOne(bytes);
  frame.payload.push_back(0xAB);  // one extra byte past the message
  EXPECT_FALSE(DecodeKnnRequest(frame.payload).ok());
}

TEST(WireTest, TruncatedPayloadIsRejected) {
  core::ServerReply reply;
  reply.neighbors.push_back({1, {2, 3}, 4});
  std::vector<uint8_t> bytes;
  EncodeKnnReply(1, reply, &bytes);
  Frame frame = DecodeOne(bytes);
  frame.payload.pop_back();
  EXPECT_FALSE(DecodeKnnReply(frame.payload).ok());
}

RegionKnnRequest TwoCircleRegionRequest() {
  RegionKnnRequest request;
  request.q = {1, 2};
  request.k = 3;
  request.horizon = 40;
  request.region = {geom::Circle({0, 0}, 5), geom::Circle({10, 0}, 6)};
  return request;
}

TEST(WireTest, RegionAndRivalRequestsRejectEveryTruncation) {
  std::vector<uint8_t> region_bytes;
  EncodeRegionKnnRequest(1, TwoCircleRegionRequest(), &region_bytes);
  const Frame region = DecodeOne(region_bytes);
  ASSERT_TRUE(DecodeRegionKnnRequest(region.payload).ok());
  for (size_t cut = 0; cut < region.payload.size(); ++cut) {
    const std::vector<uint8_t> prefix(region.payload.begin(),
                                      region.payload.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DecodeRegionKnnRequest(prefix).ok()) << "cut " << cut;
  }

  std::vector<uint8_t> rival_bytes;
  EncodeRivalRequest(2, {{1, 2}, 30}, &rival_bytes);
  const Frame rival = DecodeOne(rival_bytes);
  ASSERT_TRUE(DecodeRivalRequest(rival.payload).ok());
  for (size_t cut = 0; cut < rival.payload.size(); ++cut) {
    const std::vector<uint8_t> prefix(rival.payload.begin(),
                                      rival.payload.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DecodeRivalRequest(prefix).ok()) << "cut " << cut;
  }
}

TEST(WireTest, RegionAndRivalRequestsRejectTrailingBytes) {
  std::vector<uint8_t> bytes;
  EncodeRegionKnnRequest(1, TwoCircleRegionRequest(), &bytes);
  Frame region = DecodeOne(bytes);
  region.payload.push_back(0xAB);  // one byte past the last circle
  EXPECT_FALSE(DecodeRegionKnnRequest(region.payload).ok());
  // A whole extra circle the count does not announce is trailing too.
  region.payload.insert(region.payload.end(), 23, 0x00);
  EXPECT_FALSE(DecodeRegionKnnRequest(region.payload).ok());

  bytes.clear();
  EncodeRivalRequest(2, {{1, 2}, 30}, &bytes);
  Frame rival = DecodeOne(bytes);
  rival.payload.push_back(0xAB);
  EXPECT_FALSE(DecodeRivalRequest(rival.payload).ok());
}

TEST(WireTest, RegionCircleCountMustMatchThePayload) {
  std::vector<uint8_t> bytes;
  EncodeRegionKnnRequest(1, TwoCircleRegionRequest(), &bytes);
  Frame frame = DecodeOne(bytes);
  // The count sits after q (16 bytes), k (4) and the horizon (8).
  frame.payload[28] = 3;
  EXPECT_FALSE(DecodeRegionKnnRequest(frame.payload).ok());
  frame.payload[28] = 1;
  EXPECT_FALSE(DecodeRegionKnnRequest(frame.payload).ok());
  frame.payload[28] = 0xFF;  // a corrupt count allocates nothing
  frame.payload[31] = 0xFF;
  EXPECT_FALSE(DecodeRegionKnnRequest(frame.payload).ok());
}

// --- the validation table (satellite: protocol-boundary input validation) --

KnnRequest ValidRequest() {
  KnnRequest request;
  request.q = {100.0, 200.0};
  request.k = 5;
  request.already_certified = 2;
  request.bounds = {1.0, 50.0, 7};
  return request;
}

TEST(ValidateKnnRequestTest, AcceptsAValidRequest) {
  EXPECT_TRUE(ValidateKnnRequest(ValidRequest()).ok());
  KnnRequest bare;
  bare.q = {0, 0};
  bare.k = 1;
  EXPECT_TRUE(ValidateKnnRequest(bare).ok());
}

TEST(ValidateKnnRequestTest, RejectsNonPositiveK) {
  KnnRequest request = ValidRequest();
  request.k = 0;
  request.already_certified = 0;
  EXPECT_EQ(ValidateKnnRequest(request).code(), Status::Code::kInvalidArgument);
  request.k = -5;
  EXPECT_EQ(ValidateKnnRequest(request).code(), Status::Code::kInvalidArgument);
}

TEST(ValidateKnnRequestTest, RejectsNonFiniteCoordinates) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (double v : bad) {
    KnnRequest request = ValidRequest();
    request.q.x = v;
    EXPECT_EQ(ValidateKnnRequest(request).code(), Status::Code::kInvalidArgument);
    request = ValidRequest();
    request.q.y = v;
    EXPECT_EQ(ValidateKnnRequest(request).code(), Status::Code::kInvalidArgument);
  }
}

TEST(ValidateKnnRequestTest, RejectsInconsistentBounds) {
  KnnRequest request = ValidRequest();
  request.bounds = {50.0, 1.0, INT64_MAX};  // lower > upper
  EXPECT_EQ(ValidateKnnRequest(request).code(), Status::Code::kInvalidArgument);

  request = ValidRequest();
  request.bounds = {std::numeric_limits<double>::quiet_NaN(), std::nullopt, INT64_MAX};
  EXPECT_EQ(ValidateKnnRequest(request).code(), Status::Code::kInvalidArgument);

  request = ValidRequest();
  request.bounds = {std::nullopt, -1.0, INT64_MAX};  // negative distance bound
  EXPECT_EQ(ValidateKnnRequest(request).code(), Status::Code::kInvalidArgument);
}

TEST(ValidateKnnRequestTest, RejectsAlreadyCertifiedOutsideZeroToK) {
  KnnRequest request = ValidRequest();
  request.already_certified = -1;
  EXPECT_EQ(ValidateKnnRequest(request).code(), Status::Code::kInvalidArgument);
  request.already_certified = request.k + 1;
  EXPECT_EQ(ValidateKnnRequest(request).code(), Status::Code::kInvalidArgument);
  request.already_certified = request.k;  // == k is allowed
  EXPECT_TRUE(ValidateKnnRequest(request).ok());
}

TEST(ValidateRegionAndRivalRequestTest, AcceptsValidRequests) {
  EXPECT_TRUE(ValidateRegionKnnRequest(TwoCircleRegionRequest()).ok());
  RegionKnnRequest no_region = TwoCircleRegionRequest();
  no_region.region.clear();
  EXPECT_TRUE(ValidateRegionKnnRequest(no_region).ok());
  EXPECT_TRUE(ValidateRivalRequest({{1, 2}, 0.0}).ok());
}

TEST(ValidateRegionAndRivalRequestTest, RejectsEachBadField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto region_with = [](auto mutate) {
    RegionKnnRequest request = TwoCircleRegionRequest();
    mutate(&request);
    return ValidateRegionKnnRequest(request).code();
  };
  const Status::Code bad = Status::Code::kInvalidArgument;
  EXPECT_EQ(region_with([&](RegionKnnRequest* r) { r->q.x = nan; }), bad);
  EXPECT_EQ(region_with([](RegionKnnRequest* r) { r->k = 0; }), bad);
  EXPECT_EQ(region_with([](RegionKnnRequest* r) { r->k = kMaxKnnK + 1; }), bad);
  EXPECT_EQ(region_with([&](RegionKnnRequest* r) { r->horizon = inf; }), bad);
  EXPECT_EQ(region_with([](RegionKnnRequest* r) { r->horizon = -1.0; }), bad);
  EXPECT_EQ(region_with([](RegionKnnRequest* r) { r->region[1].radius = -0.5; }), bad);
  EXPECT_EQ(region_with([&](RegionKnnRequest* r) { r->region[0].radius = nan; }), bad);
  EXPECT_EQ(region_with([&](RegionKnnRequest* r) { r->region[0].center.y = -inf; }), bad);
  EXPECT_EQ(ValidateRivalRequest({{nan, 2}, 30}).code(), bad);
  EXPECT_EQ(ValidateRivalRequest({{1, 2}, -30}).code(), bad);
  EXPECT_EQ(ValidateRivalRequest({{1, 2}, inf}).code(), bad);
}

}  // namespace
}  // namespace senn::rpc
