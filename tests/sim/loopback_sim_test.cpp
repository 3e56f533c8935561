// Simulator outputs over the wire path. Every server contact crosses
// rpc::LoopbackLink: encode, frame, decode, validate, dispatch. The result
// JSON of five worlds (in-memory, paged, lossy and server-bound) is pinned
// to the fingerprints the direct in-process calls produced before that
// path was the only one, so the wire is proven invisible in the report.
//
// Regenerating (only after an INTENDED output change): a mismatch prints the
// new fingerprint next to the recorded one; paste it over the old one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/sim/report.h"
#include "src/sim/simulator.h"

namespace senn::sim {
namespace {

SimulationConfig BaseConfig(Region region, double duration_s, uint64_t seed) {
  SimulationConfig cfg;
  cfg.params = Table3(region);
  cfg.mode = MovementMode::kFreeMovement;
  cfg.duration_s = duration_s;
  cfg.seed = seed;
  return cfg;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// FNV-1a-64 of the run's result JSON; asserts the run reached the server
// over the wire.
std::string Fingerprint(const SimulationConfig& cfg) {
  Simulator sim(cfg);
  const std::string json = SimulationResultJson(sim.Run());
  EXPECT_GT(sim.service_stats().knn, 0u);
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : json) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return Hex(h);
}

TEST(LoopbackSimTest, SequentialRunIsPinned) {
  EXPECT_EQ(Fingerprint(BaseConfig(Region::kLosAngeles, 300.0, 42)), Hex(0xebf9bd41ca8ce3db));
}

TEST(LoopbackSimTest, SecondRegionAndSeedArePinned) {
  EXPECT_EQ(Fingerprint(BaseConfig(Region::kRiverside, 240.0, 7)), Hex(0x5b6a26d4bcd71d41));
}

TEST(LoopbackSimTest, PagedRunIsPinned) {
  // A bounded buffer pool that cannot hold the tree: physical miss
  // accounting must survive the wire.
  SimulationConfig cfg = BaseConfig(Region::kLosAngeles, 300.0, 42);
  cfg.paged_storage = true;
  cfg.buffer.capacity_pages = 4;
  EXPECT_EQ(Fingerprint(cfg), Hex(0x81d6116cbad9195f));
}

TEST(LoopbackSimTest, LossyChannelRunIsPinned) {
  // Channel randomness ("net" streams) is client-side and drawn before the
  // server contact.
  SimulationConfig cfg = BaseConfig(Region::kLosAngeles, 300.0, 42);
  cfg.channel.loss = 0.2;
  cfg.channel.latency_mean_s = 0.05;
  EXPECT_EQ(Fingerprint(cfg), Hex(0x2bea189e0b1c91db));
}

TEST(LoopbackSimTest, ServerBoundLoadIsPinned) {
  // A high query rate and a 10 m radio leave almost no peers in range, so
  // every query that the host's own cache cannot answer makes its own
  // blocking round trip: several per step.
  SimulationConfig cfg = BaseConfig(Region::kLosAngeles, 60.0, 13);
  cfg.params.queries_per_minute = 3000.0;
  cfg.params.tx_range_m = 10.0;
  EXPECT_EQ(Fingerprint(cfg), Hex(0xee3fb72b717011ec));
}

TEST(LoopbackSimTest, LoopbackAddsNoReportFields) {
  // The wire must be invisible in the report schema: same keys, same
  // order, no rpc-specific additions.
  const std::string json =
      SimulationResultJson(Simulator(BaseConfig(Region::kRiverside, 240.0, 7)).Run());
  EXPECT_EQ(json.find("rpc"), std::string::npos);
  EXPECT_NE(json.find("\"simulated_seconds\":"), std::string::npos);
}

}  // namespace
}  // namespace senn::sim
