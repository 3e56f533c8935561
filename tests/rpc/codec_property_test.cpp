// Codec property battery: encode/decode identity over randomized messages
// (deterministic Rng::Stream draws), and the framing decoder's behavior on
// every adversarial byte-stream shape the tentpole promises robustness
// against — truncation at every prefix, arbitrary read fragmentation,
// garbage headers, and the max-payload boundary.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <iterator>
#include <limits>

#include "src/common/rng.h"
#include "src/rpc/wire.h"

namespace senn::rpc {
namespace {

KnnRequest RandomRequest(Rng* rng) {
  KnnRequest request;
  request.q = {rng->Uniform(-1e6, 1e6), rng->Uniform(-1e6, 1e6)};
  request.k = static_cast<int32_t>(rng->UniformInt(1, 64));
  request.already_certified = static_cast<int32_t>(rng->UniformInt(0, request.k));
  if (rng->Bernoulli(0.5)) request.bounds.lower = rng->Uniform(0, 1e4);
  if (rng->Bernoulli(0.5)) {
    double base = request.bounds.lower.value_or(0.0);
    request.bounds.upper = base + rng->Uniform(0, 1e4);
  }
  if (rng->Bernoulli(0.3)) request.bounds.lower_id_cut = rng->UniformInt(0, 1 << 20);
  return request;
}

core::ServerReply RandomReply(Rng* rng) {
  core::ServerReply reply;
  const int n = static_cast<int>(rng->UniformInt(0, 40));
  for (int i = 0; i < n; ++i) {
    reply.neighbors.push_back({static_cast<int64_t>(rng->UniformInt(0, 1 << 20)),
                               {rng->Uniform(-1e6, 1e6), rng->Uniform(-1e6, 1e6)},
                               rng->Uniform(0, 1e5)});
  }
  auto counter = [&] {
    rtree::AccessCounter c;
    c.index_nodes = rng->NextIndex(1000);
    c.leaf_nodes = rng->NextIndex(1000);
    c.index_misses = rng->NextIndex(100);
    c.leaf_misses = rng->NextIndex(100);
    c.shared_misses = rng->NextIndex(50);
    c.private_misses = rng->NextIndex(50);
    return c;
  };
  reply.einn_accesses = counter();
  return reply;
}

bool SameBounds(const rtree::PruneBounds& a, const rtree::PruneBounds& b) {
  return a.lower == b.lower && a.upper == b.upper && a.lower_id_cut == b.lower_id_cut;
}

TEST(CodecPropertyTest, RandomRequestsRoundTripIdentically) {
  Rng rng = Rng(20060403).Stream("codec/request");
  for (int trial = 0; trial < 200; ++trial) {
    const KnnRequest request = RandomRequest(&rng);
    const uint64_t id = rng.NextU64();
    std::vector<uint8_t> bytes;
    EncodeKnnRequest(id, request, &bytes);

    FrameDecoder decoder;
    ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
    Frame frame;
    ASSERT_TRUE(decoder.Next(&frame));
    EXPECT_EQ(frame.header.request_id, id);
    Result<KnnRequest> decoded = DecodeKnnRequest(frame.payload);
    ASSERT_TRUE(decoded.ok()) << "trial " << trial << ": " << decoded.status().message();
    EXPECT_EQ(decoded->q, request.q) << "trial " << trial;
    EXPECT_EQ(decoded->k, request.k);
    EXPECT_EQ(decoded->already_certified, request.already_certified);
    EXPECT_TRUE(SameBounds(decoded->bounds, request.bounds)) << "trial " << trial;
  }
}

TEST(CodecPropertyTest, RandomRepliesRoundTripIdentically) {
  Rng rng = Rng(20060403).Stream("codec/reply");
  for (int trial = 0; trial < 200; ++trial) {
    const core::ServerReply reply = RandomReply(&rng);
    std::vector<uint8_t> bytes;
    EncodeKnnReply(rng.NextU64(), reply, &bytes);

    FrameDecoder decoder;
    ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
    Frame frame;
    ASSERT_TRUE(decoder.Next(&frame));
    Result<core::ServerReply> decoded = DecodeKnnReply(frame.payload);
    ASSERT_TRUE(decoded.ok()) << "trial " << trial << ": " << decoded.status().message();
    EXPECT_EQ(*decoded, reply) << "trial " << trial;
  }
}

// Same IEEE-754 bit pattern: unlike ==, tells -0.0 from 0.0.
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Values whose bit patterns a lossy codec would not keep: signed zeros,
// subnormals, and extremes, mixed into the random draws.
double EdgeOrRandom(Rng* rng, double lo, double hi) {
  static constexpr double kEdges[] = {0.0,
                                      -0.0,
                                      std::numeric_limits<double>::denorm_min(),
                                      -std::numeric_limits<double>::denorm_min(),
                                      std::numeric_limits<double>::min() / 3.0,
                                      std::numeric_limits<double>::max(),
                                      std::numeric_limits<double>::lowest()};
  if (rng->Bernoulli(0.3)) return kEdges[rng->NextIndex(std::size(kEdges))];
  return rng->Uniform(lo, hi);
}

// One frame of `bytes`, decoded.
Frame OnlyFrame(const std::vector<uint8_t>& bytes) {
  FrameDecoder decoder;
  EXPECT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  EXPECT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(decoder.pending(), 0u);
  return frame;
}

void ExpectSameRegionRequest(const RegionKnnRequest& got, const RegionKnnRequest& want) {
  EXPECT_TRUE(SameBits(got.q.x, want.q.x));
  EXPECT_TRUE(SameBits(got.q.y, want.q.y));
  EXPECT_EQ(got.k, want.k);
  EXPECT_TRUE(SameBits(got.horizon, want.horizon));
  ASSERT_EQ(got.region.size(), want.region.size());
  for (size_t i = 0; i < want.region.size(); ++i) {
    EXPECT_TRUE(SameBits(got.region[i].center.x, want.region[i].center.x)) << "circle " << i;
    EXPECT_TRUE(SameBits(got.region[i].center.y, want.region[i].center.y)) << "circle " << i;
    EXPECT_TRUE(SameBits(got.region[i].radius, want.region[i].radius)) << "circle " << i;
  }
}

TEST(CodecPropertyTest, RandomRegionRequestsRoundTripBitwise) {
  Rng rng = Rng(20060403).Stream("codec/region");
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    RegionKnnRequest request;
    request.q = {EdgeOrRandom(&rng, -1e6, 1e6), EdgeOrRandom(&rng, -1e6, 1e6)};
    request.k = static_cast<int32_t>(rng.UniformInt(-4, 64));  // invalid k round-trips too
    request.horizon = EdgeOrRandom(&rng, 0, 1e4);
    const int circles = static_cast<int>(rng.UniformInt(0, 12));
    for (int i = 0; i < circles; ++i) {
      request.region.emplace_back(
          geom::Vec2{EdgeOrRandom(&rng, -1e6, 1e6), EdgeOrRandom(&rng, -1e6, 1e6)},
          EdgeOrRandom(&rng, 0, 1e3));
    }
    const uint64_t id = rng.NextU64();
    std::vector<uint8_t> bytes;
    EncodeRegionKnnRequest(id, request, &bytes);
    const Frame frame = OnlyFrame(bytes);
    EXPECT_EQ(frame.opcode(), Opcode::kRegionKnnRequest);
    EXPECT_EQ(frame.header.request_id, id);
    Result<RegionKnnRequest> decoded = DecodeRegionKnnRequest(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    ExpectSameRegionRequest(*decoded, request);
  }
}

TEST(CodecPropertyTest, LargestAllowedRegionRoundTripsAndOneMoreIsInvalid) {
  RegionKnnRequest request;
  request.q = {-0.0, std::numeric_limits<double>::denorm_min()};
  request.k = kMaxKnnK;
  request.horizon = 1e3;
  for (int32_t i = 0; i < kMaxRegionCircles; ++i) {
    request.region.emplace_back(geom::Vec2{static_cast<double>(i), -0.0}, 0.5 * i);
  }
  ASSERT_TRUE(ValidateRegionKnnRequest(request).ok());
  std::vector<uint8_t> bytes;
  EncodeRegionKnnRequest(3, request, &bytes);
  EXPECT_LE(bytes.size() - kHeaderSize, kDefaultMaxPayload);
  Result<RegionKnnRequest> decoded = DecodeRegionKnnRequest(OnlyFrame(bytes).payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  ExpectSameRegionRequest(*decoded, request);

  // One circle more still encodes and decodes, but fails validation.
  request.region.emplace_back(geom::Vec2{0, 0}, 1.0);
  bytes.clear();
  EncodeRegionKnnRequest(4, request, &bytes);
  decoded = DecodeRegionKnnRequest(OnlyFrame(bytes).payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  ExpectSameRegionRequest(*decoded, request);
  EXPECT_EQ(ValidateRegionKnnRequest(request).code(), Status::Code::kInvalidArgument);
}

TEST(CodecPropertyTest, RandomRivalRequestsRoundTripBitwise) {
  Rng rng = Rng(20060403).Stream("codec/rival");
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    RivalRequest request;
    request.q = {EdgeOrRandom(&rng, -1e6, 1e6), EdgeOrRandom(&rng, -1e6, 1e6)};
    request.radius = EdgeOrRandom(&rng, 0, 1e4);
    const uint64_t id = rng.NextU64();
    std::vector<uint8_t> bytes;
    EncodeRivalRequest(id, request, &bytes);
    const Frame frame = OnlyFrame(bytes);
    EXPECT_EQ(frame.opcode(), Opcode::kRivalRequest);
    EXPECT_EQ(frame.header.request_id, id);
    Result<RivalRequest> decoded = DecodeRivalRequest(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_TRUE(SameBits(decoded->q.x, request.q.x));
    EXPECT_TRUE(SameBits(decoded->q.y, request.q.y));
    EXPECT_TRUE(SameBits(decoded->radius, request.radius));
  }
}

TEST(CodecPropertyTest, EveryTruncationPrefixYieldsNoFrameAndNoError) {
  // A prefix of a valid frame is simply incomplete: the decoder must wait
  // for more bytes — no frame, no poison — at EVERY cut point.
  Rng rng = Rng(1).Stream("codec/trunc");
  KnnRequest request = RandomRequest(&rng);
  std::vector<uint8_t> bytes;
  EncodeKnnRequest(17, request, &bytes);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder decoder;
    ASSERT_TRUE(decoder.Feed(bytes.data(), cut).ok()) << "cut " << cut;
    Frame frame;
    EXPECT_FALSE(decoder.Next(&frame)) << "cut " << cut;
    EXPECT_FALSE(decoder.poisoned()) << "cut " << cut;
    // Completing the stream later yields the frame.
    ASSERT_TRUE(decoder.Feed(bytes.data() + cut, bytes.size() - cut).ok());
    ASSERT_TRUE(decoder.Next(&frame)) << "cut " << cut;
    EXPECT_EQ(frame.header.request_id, 17u);
  }
}

TEST(CodecPropertyTest, SplitAcrossReadsInEveryChunkSize) {
  // Three pipelined messages fed in chunks of 1, 2, 3, and 7 bytes decode
  // to the same three frames as one contiguous feed.
  Rng rng = Rng(20060403).Stream("codec/split");
  std::vector<uint8_t> bytes;
  EncodeKnnRequest(1, RandomRequest(&rng), &bytes);
  EncodePing(2, &bytes);
  EncodeKnnReply(3, RandomReply(&rng), &bytes);

  for (size_t chunk : {size_t{1}, size_t{2}, size_t{3}, size_t{7}}) {
    FrameDecoder decoder;
    for (size_t off = 0; off < bytes.size(); off += chunk) {
      const size_t n = std::min(chunk, bytes.size() - off);
      ASSERT_TRUE(decoder.Feed(bytes.data() + off, n).ok());
    }
    Frame frame;
    ASSERT_TRUE(decoder.Next(&frame)) << "chunk " << chunk;
    EXPECT_EQ(frame.header.request_id, 1u);
    EXPECT_EQ(frame.opcode(), Opcode::kKnnRequest);
    ASSERT_TRUE(decoder.Next(&frame));
    EXPECT_EQ(frame.header.request_id, 2u);
    EXPECT_EQ(frame.opcode(), Opcode::kPing);
    ASSERT_TRUE(decoder.Next(&frame));
    EXPECT_EQ(frame.header.request_id, 3u);
    EXPECT_EQ(frame.opcode(), Opcode::kKnnReply);
    EXPECT_FALSE(decoder.Next(&frame));
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(CodecPropertyTest, GarbageHeaderPoisonsButKeepsEarlierFrames) {
  std::vector<uint8_t> bytes;
  EncodePing(1, &bytes);
  const size_t good = bytes.size();
  for (int i = 0; i < 32; ++i) bytes.push_back(static_cast<uint8_t>(0xC0 + i));

  FrameDecoder decoder;
  Status st = decoder.Feed(bytes.data(), bytes.size());
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(decoder.poisoned());
  // The frame decoded before the corruption survives.
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(frame.opcode(), Opcode::kPing);
  // Later feeds keep failing with the same diagnosis.
  EXPECT_FALSE(decoder.Feed(bytes.data(), good).ok());
  EXPECT_FALSE(decoder.Next(&frame));
}

TEST(CodecPropertyTest, WrongVersionAndReservedFlagsArePoison) {
  std::vector<uint8_t> bytes;
  EncodePing(1, &bytes);
  {
    std::vector<uint8_t> bad = bytes;
    bad[4] = kProtocolVersion + 1;  // version byte
    FrameDecoder decoder;
    EXPECT_FALSE(decoder.Feed(bad.data(), bad.size()).ok());
  }
  {
    std::vector<uint8_t> bad = bytes;
    bad[6] = 0x01;  // reserved flags must be zero
    FrameDecoder decoder;
    EXPECT_FALSE(decoder.Feed(bad.data(), bad.size()).ok());
  }
}

TEST(CodecPropertyTest, MaxPayloadBoundaryIsExact) {
  const size_t max = 4096;  // small cap to keep the test cheap
  {
    // Exactly max: accepted.
    std::vector<uint8_t> payload(max, 0x5A);
    std::vector<uint8_t> bytes;
    EncodeFrame(Opcode::kError, 9, payload, &bytes);
    FrameDecoder decoder(max);
    ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
    Frame frame;
    ASSERT_TRUE(decoder.Next(&frame));
    EXPECT_EQ(frame.payload.size(), max);
  }
  {
    // One past max: rejected at the header, before any payload arrives.
    std::vector<uint8_t> payload(max + 1, 0x5A);
    std::vector<uint8_t> bytes;
    EncodeFrame(Opcode::kError, 9, payload, &bytes);
    FrameDecoder decoder(max);
    EXPECT_FALSE(decoder.Feed(bytes.data(), kHeaderSize).ok());
    EXPECT_TRUE(decoder.poisoned());
  }
}

TEST(CodecPropertyTest, RandomGarbageNeverCrashesTheDecoder) {
  Rng rng = Rng(20060403).Stream("codec/garbage");
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> junk(rng.NextIndex(256));
    for (uint8_t& b : junk) b = static_cast<uint8_t>(rng.NextIndex(256));
    FrameDecoder decoder;
    (void)decoder.Feed(junk.data(), junk.size());  // ok or poisoned, never UB
    Frame frame;
    while (decoder.Next(&frame)) {
      // Any frame that surfaced must at least claim our magic and version.
      EXPECT_EQ(frame.header.magic, kMagic);
      EXPECT_EQ(frame.header.version, kProtocolVersion);
    }
  }
}

}  // namespace
}  // namespace senn::rpc
