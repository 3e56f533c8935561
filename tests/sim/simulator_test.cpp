// Integration tests of the full simulation engine: accounting consistency,
// determinism, and the qualitative effects the paper's evaluation reports
// (density, transmission range, cache size).
#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <string>

#include "src/sim/report.h"

namespace senn::sim {
namespace {

SimulationConfig SmallConfig(Region region, MovementMode mode, uint64_t seed) {
  SimulationConfig cfg;
  cfg.params = Table3(region);
  cfg.mode = mode;
  cfg.seed = seed;
  cfg.duration_s = 240.0;
  cfg.warmup_fraction = 0.25;
  cfg.time_step_s = 1.0;
  return cfg;
}

TEST(SimulatorTest, CountsAreConsistent) {
  Simulator sim(SmallConfig(Region::kLosAngeles, MovementMode::kFreeMovement, 1));
  SimulationResult r = sim.Run();
  EXPECT_GT(r.measured_queries, 10u);
  EXPECT_EQ(r.by_single_peer + r.by_multi_peer + r.by_server, r.measured_queries);
  EXPECT_NEAR(r.pct_single_peer + r.pct_multi_peer + r.pct_server, 100.0, 1e-6);
  EXPECT_DOUBLE_EQ(r.simulated_seconds, 240.0);
}

TEST(SimulatorTest, DeterministicForSameSeed) {
  SimulationResult a = Simulator(SmallConfig(Region::kLosAngeles, MovementMode::kFreeMovement, 7)).Run();
  SimulationResult b = Simulator(SmallConfig(Region::kLosAngeles, MovementMode::kFreeMovement, 7)).Run();
  EXPECT_EQ(a.measured_queries, b.measured_queries);
  EXPECT_EQ(a.by_single_peer, b.by_single_peer);
  EXPECT_EQ(a.by_multi_peer, b.by_multi_peer);
  EXPECT_EQ(a.by_server, b.by_server);
}

// Table 3's load sends only a few queries a minute to the server. A high
// query rate and a 10 m radio leave almost no peers in range, so every query
// that the host's own cache cannot answer contacts the server: about ten per
// step.
SimulationConfig ServerBoundConfig(uint64_t seed) {
  SimulationConfig cfg = SmallConfig(Region::kLosAngeles, MovementMode::kFreeMovement, seed);
  cfg.duration_s = 120.0;
  cfg.params.queries_per_minute = 3000.0;
  cfg.params.tx_range_m = 10.0;
  return cfg;
}

TEST(SimulatorTest, ServerBoundLoadCountsAreConsistent) {
  SimulationResult r = Simulator(ServerBoundConfig(12)).Run();
  ASSERT_GT(r.measured_queries, 1000u);
  EXPECT_EQ(r.by_single_peer + r.by_multi_peer + r.by_server, r.measured_queries);
  EXPECT_GT(r.by_server, 500u);
  // Every server-bound query records its page accesses exactly once.
  EXPECT_EQ(r.einn_pages.count(), r.by_server);
  EXPECT_EQ(r.inn_pages.count(), r.by_server);
}

TEST(SimulatorTest, ServerBoundLoadIsDeterministic) {
  const std::string a = SimulationResultJson(Simulator(ServerBoundConfig(13)).Run());
  const std::string b = SimulationResultJson(Simulator(ServerBoundConfig(13)).Run());
  EXPECT_EQ(a, b);
}

TEST(SimulatorTest, DifferentSeedsDiffer) {
  SimulationResult a = Simulator(SmallConfig(Region::kLosAngeles, MovementMode::kFreeMovement, 1)).Run();
  SimulationResult b = Simulator(SmallConfig(Region::kLosAngeles, MovementMode::kFreeMovement, 2)).Run();
  EXPECT_NE(a.by_server, b.by_server);  // overwhelmingly likely
}

TEST(SimulatorTest, RoadNetworkModeRuns) {
  Simulator sim(SmallConfig(Region::kSyntheticSuburbia, MovementMode::kRoadNetwork, 3));
  ASSERT_NE(sim.graph(), nullptr);
  EXPECT_TRUE(sim.graph()->IsConnected());
  SimulationResult r = sim.Run();
  EXPECT_GT(r.measured_queries, 0u);
}

TEST(SimulatorTest, DenseRegionUsesServerLess) {
  // The headline scalability claim: higher MH density => more peer answers.
  SimulationResult la =
      Simulator(SmallConfig(Region::kLosAngeles, MovementMode::kFreeMovement, 11)).Run();
  SimulationResult rv =
      Simulator(SmallConfig(Region::kRiverside, MovementMode::kFreeMovement, 11)).Run();
  EXPECT_LT(la.pct_server, rv.pct_server);
  // And in LA the majority of queries must be peer-resolvable (paper: only
  // ~20-30% reach the server at 200 m transmission range).
  EXPECT_LT(la.pct_server, 50.0);
}

TEST(SimulatorTest, ZeroTransmissionRangeMeansOnlySelfCache) {
  SimulationConfig cfg = SmallConfig(Region::kLosAngeles, MovementMode::kFreeMovement, 5);
  cfg.params.tx_range_m = 1.0;  // effectively self only
  SimulationResult r = Simulator(cfg).Run();
  // Moving hosts rarely answer from a stale self-cache; far more server
  // traffic than with the default range.
  SimulationResult wide = Simulator(SmallConfig(Region::kLosAngeles, MovementMode::kFreeMovement, 5)).Run();
  EXPECT_GT(r.pct_server, wide.pct_server);
}

TEST(SimulatorTest, LargerCacheReducesServerLoad) {
  SimulationConfig small_cache = SmallConfig(Region::kSyntheticSuburbia, MovementMode::kFreeMovement, 9);
  small_cache.params.cache_size = 1;
  // k must not exceed what a 1-entry cache can certify; keep paper's k=3 and
  // compare against the default 10-entry cache.
  SimulationConfig big_cache = SmallConfig(Region::kSyntheticSuburbia, MovementMode::kFreeMovement, 9);
  big_cache.params.cache_size = 10;
  SimulationResult small_r = Simulator(small_cache).Run();
  SimulationResult big_r = Simulator(big_cache).Run();
  EXPECT_GT(small_r.pct_server, big_r.pct_server);
}

TEST(SimulatorTest, WarmStartReducesInitialServerLoad) {
  SimulationConfig cold = SmallConfig(Region::kLosAngeles, MovementMode::kFreeMovement, 13);
  cold.warm_start = false;
  cold.warmup_fraction = 0.0;
  SimulationConfig warm = SmallConfig(Region::kLosAngeles, MovementMode::kFreeMovement, 13);
  warm.warmup_fraction = 0.0;
  SimulationResult cold_r = Simulator(cold).Run();
  SimulationResult warm_r = Simulator(warm).Run();
  EXPECT_GT(cold_r.pct_server, warm_r.pct_server);
}

TEST(SimulatorTest, ServerPageStatsRecordedOnlyForServerQueries) {
  Simulator sim(SmallConfig(Region::kRiverside, MovementMode::kFreeMovement, 15));
  SimulationResult r = sim.Run();
  EXPECT_EQ(r.einn_pages.count(), r.by_server);
  EXPECT_EQ(r.inn_pages.count(), r.by_server);
  if (r.by_server > 0) {
    EXPECT_LE(r.einn_pages.mean(), r.inn_pages.mean());
    EXPECT_GT(r.inn_pages.mean(), 0.0);
  }
}

TEST(SimulatorTest, RandomizedKStillConsistent) {
  SimulationConfig cfg = SmallConfig(Region::kLosAngeles, MovementMode::kFreeMovement, 17);
  cfg.randomize_k = true;
  cfg.k_min = 1;
  cfg.k_max = 9;
  SimulationResult r = Simulator(cfg).Run();
  EXPECT_EQ(r.by_single_peer + r.by_multi_peer + r.by_server, r.measured_queries);
}

TEST(SimulatorTest, QueryVolumeTracksLambda) {
  // 240 s at 23 queries/min with 25% warm-up => about 69 measured queries.
  SimulationResult r =
      Simulator(SmallConfig(Region::kLosAngeles, MovementMode::kFreeMovement, 19)).Run();
  double expected = 23.0 / 60.0 * 240.0 * 0.75;
  EXPECT_GT(static_cast<double>(r.measured_queries), expected * 0.6);
  EXPECT_LT(static_cast<double>(r.measured_queries), expected * 1.4);
}

}  // namespace
}  // namespace senn::sim
