// Pins the encoders' exact bytes. wire_test and codec_property_test prove
// that frames round-trip; this test proves the bytes themselves do not
// move, so an encoder rewrite (say, writing the frame in place instead of
// through a temporary payload) must reproduce them exactly. Each case is an
// FNV-1a fingerprint of one encoded frame plus its length, recorded from
// the reference encoder.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/rpc/wire.h"

namespace senn::rpc {
namespace {

struct Pin {
  size_t size = 0;
  uint64_t fnv = 0;
  bool operator==(const Pin&) const = default;
};

Pin Fingerprint(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return {bytes.size(), h};
}

std::string Describe(const Pin& p) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{%zu, 0x%016llxull}", p.size,
                static_cast<unsigned long long>(p.fnv));
  return buf;
}

KnnRequest Request(bool lower, bool upper) {
  KnnRequest r;
  r.q = {1234.5625, -87.03125};
  r.k = 17;
  r.already_certified = 3;
  if (lower) r.bounds.lower = 41.75;
  if (upper) r.bounds.upper = 103.0625;
  r.bounds.lower_id_cut = 0x0123456789ABCDEFll;
  return r;
}

core::ServerReply Reply(int neighbors) {
  core::ServerReply reply;
  reply.einn_accesses = {11, 22, 3, 4, 5, 6};
  for (int i = 0; i < neighbors; ++i) {
    reply.neighbors.push_back(
        {1000 + 7 * i, {0.5 * i - 3.25, 1e6 + i}, 0.1 * (i + 1) + 1e-9 * i});
  }
  return reply;
}

TEST(WirePinTest, EncodedBytesMatchTheRecordedEncoder) {
  struct Case {
    const char* name;
    std::vector<uint8_t> bytes;
    Pin want;
  };
  auto encode = [](auto&& fn) {
    std::vector<uint8_t> out{0xAA};  // encoders append: keep a prefix byte
    fn(&out);
    return out;
  };
  const uint64_t id = 0xFEEDFACE12345678ull;
  const Case cases[] = {
      {"request, no bounds",
       encode([&](auto* out) { EncodeKnnRequest(id, Request(false, false), out); }),
       {54, 0xd7a93cc6cbbcad42ull}},
      {"request, lower",
       encode([&](auto* out) { EncodeKnnRequest(id, Request(true, false), out); }),
       {62, 0xb879e81ae9d6c6e9ull}},
      {"request, upper",
       encode([&](auto* out) { EncodeKnnRequest(id, Request(false, true), out); }),
       {62, 0x5031f7347479c2d9ull}},
      {"request, both",
       encode([&](auto* out) { EncodeKnnRequest(id, Request(true, true), out); }),
       {70, 0xdeabe87a5ef26266ull}},
      {"reply, 0 neighbors", encode([&](auto* out) { EncodeKnnReply(id, Reply(0), out); }),
       {73, 0x7fb728fd7ec10cfbull}},
      {"reply, 1 neighbor", encode([&](auto* out) { EncodeKnnReply(id, Reply(1), out); }),
       {105, 0xd4e314bc210b7091ull}},
      {"reply, 10 neighbors", encode([&](auto* out) { EncodeKnnReply(id, Reply(10), out); }),
       {393, 0x44bc0b8f8f15c0a8ull}},
      {"error",
       encode([&](auto* out) {
         EncodeError(id, {ErrorCode::kInvalidArgument, "k must be positive"}, out);
       }),
       {47, 0x482792b11590f986ull}},
      {"ping", encode([&](auto* out) { EncodePing(id, out); }), {21, 0x0fba2041dac65e08ull}},
      {"pong", encode([&](auto* out) { EncodePong(id, out); }), {21, 0x1a0f9428f616f583ull}},
  };
  for (const Case& c : cases) {
    const Pin got = Fingerprint(c.bytes);
    EXPECT_EQ(got, c.want) << c.name << ": got " << Describe(got);
  }
}

}  // namespace
}  // namespace senn::rpc
