// The simulator-level loopback-determinism contract (the tentpole
// acceptance test): --server-transport loopback routes EVERY server contact
// through the full rpc wire path — encode, frame, decode, validate,
// dispatch — and still produces BYTE-IDENTICAL report JSON to the
// in-process transport, across in-memory, paged, lossy and server-bound
// configurations. The golden prefixes of golden_json_test.cpp therefore hold
// over loopback too.
#include <gtest/gtest.h>

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

std::string RunJson(SimulationConfig cfg, ServerTransport transport) {
  cfg.server_transport = transport;
  return SimulationResultJson(Simulator(cfg).Run());
}

TEST(LoopbackSimTest, SequentialRunIsByteIdenticalAcrossTransports) {
  SimulationConfig cfg = BaseConfig(Region::kLosAngeles, 300.0, 42);
  EXPECT_EQ(RunJson(cfg, ServerTransport::kInProcess),
            RunJson(cfg, ServerTransport::kLoopback));
}

TEST(LoopbackSimTest, SecondRegionAndSeedAgreeToo) {
  SimulationConfig cfg = BaseConfig(Region::kRiverside, 240.0, 7);
  EXPECT_EQ(RunJson(cfg, ServerTransport::kInProcess),
            RunJson(cfg, ServerTransport::kLoopback));
}

TEST(LoopbackSimTest, PagedRunIsByteIdenticalAcrossTransports) {
  // A bounded buffer pool that cannot hold the tree: physical miss
  // accounting must survive the wire.
  SimulationConfig cfg = BaseConfig(Region::kLosAngeles, 300.0, 42);
  cfg.paged_storage = true;
  cfg.buffer.capacity_pages = 4;
  EXPECT_EQ(RunJson(cfg, ServerTransport::kInProcess),
            RunJson(cfg, ServerTransport::kLoopback));
}

TEST(LoopbackSimTest, LossyChannelRunAgreesToo) {
  // Channel randomness ("net" streams) is client-side and must be unmoved
  // by the transport swap.
  SimulationConfig cfg = BaseConfig(Region::kLosAngeles, 300.0, 42);
  cfg.channel.loss = 0.2;
  cfg.channel.latency_mean_s = 0.05;
  EXPECT_EQ(RunJson(cfg, ServerTransport::kInProcess),
            RunJson(cfg, ServerTransport::kLoopback));
}

TEST(LoopbackSimTest, ServerBoundLoadAgreesToo) {
  // A high query rate and a 10 m radio leave almost no peers in range, so
  // every query that the host's own cache cannot answer makes its own
  // blocking round trip: several per step.
  SimulationConfig cfg = BaseConfig(Region::kLosAngeles, 60.0, 13);
  cfg.params.queries_per_minute = 3000.0;
  cfg.params.tx_range_m = 10.0;
  EXPECT_EQ(RunJson(cfg, ServerTransport::kInProcess),
            RunJson(cfg, ServerTransport::kLoopback));
}

TEST(LoopbackSimTest, LoopbackAddsNoReportFields) {
  // The transport must be invisible in the report schema: same keys, same
  // order, no rpc-specific additions.
  SimulationConfig cfg = BaseConfig(Region::kRiverside, 240.0, 7);
  const std::string json = RunJson(cfg, ServerTransport::kLoopback);
  EXPECT_EQ(json.find("rpc"), std::string::npos);
  EXPECT_NE(json.find("\"simulated_seconds\":"), std::string::npos);
}

}  // namespace
}  // namespace senn::sim
