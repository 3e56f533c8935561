// Integration tests of the simulator's continuous-query mode: per-source
// step accounting, determinism, safe-region effects, and shard merging of
// the continuous_* metrics.
#include <gtest/gtest.h>

#include "src/sim/report.h"
#include "src/sim/simulator.h"
#include "src/sim/sweep.h"

namespace senn::sim {
namespace {

SimulationConfig ContinuousConfig(core::SafeRegionMode mode, uint64_t seed) {
  SimulationConfig cfg;
  cfg.params = Table3(Region::kLosAngeles);
  cfg.mode = MovementMode::kFreeMovement;
  cfg.seed = seed;
  cfg.duration_s = 240.0;
  cfg.warmup_fraction = 0.25;
  cfg.time_step_s = 1.0;
  cfg.continuous = true;
  cfg.safe_region = mode;
  return cfg;
}

TEST(ContinuousSimTest, StepsPartitionBySource) {
  SimulationResult r = Simulator(ContinuousConfig(core::SafeRegionMode::kInsq, 1)).Run();
  EXPECT_GT(r.measured_queries, 10u);
  // Every measured query is one continuous step, partitioned by source.
  EXPECT_EQ(r.continuous_steps, r.measured_queries);
  EXPECT_EQ(r.continuous_steps,
            r.continuous_safe_region_steps + r.continuous_peer_region_steps +
                r.continuous_own_cache_steps + r.continuous_peer_steps +
                r.continuous_uncertain_steps + r.continuous_server_steps);
  // The paper's by_* classification only covers the communicating steps.
  EXPECT_EQ(r.by_single_peer + r.by_multi_peer + r.by_server,
            r.continuous_peer_steps + r.continuous_uncertain_steps +
                r.continuous_server_steps);
  // Exact mode: nothing may surface as uncertain.
  EXPECT_EQ(r.continuous_uncertain_steps, 0u);
}

TEST(ContinuousSimTest, DeterministicForSameSeed) {
  SimulationResult a = Simulator(ContinuousConfig(core::SafeRegionMode::kInsq, 7)).Run();
  SimulationResult b = Simulator(ContinuousConfig(core::SafeRegionMode::kInsq, 7)).Run();
  EXPECT_EQ(SimulationResultJson(a), SimulationResultJson(b));
}

TEST(ContinuousSimTest, InsqModeBuildsAndUsesRegions) {
  SimulationResult r = Simulator(ContinuousConfig(core::SafeRegionMode::kInsq, 3)).Run();
  EXPECT_GT(r.continuous_safe_region_steps, 0u);
  EXPECT_GT(r.continuous_region_area_m2.count(), 0u);
  EXPECT_GT(r.continuous_region_area_m2.mean(), 0.0);
}

TEST(ContinuousSimTest, OffModeHasNoRegionActivity) {
  SimulationResult r = Simulator(ContinuousConfig(core::SafeRegionMode::kOff, 3)).Run();
  EXPECT_GT(r.continuous_steps, 0u);
  EXPECT_EQ(r.continuous_safe_region_steps, 0u);
  EXPECT_EQ(r.continuous_peer_region_steps, 0u);
  EXPECT_EQ(r.continuous_region_pages, 0u);
  EXPECT_EQ(r.continuous_region_area_m2.count(), 0u);
}

TEST(ContinuousSimTest, SafeRegionsDoNotIncreaseServerSteps) {
  SimulationResult off = Simulator(ContinuousConfig(core::SafeRegionMode::kOff, 5)).Run();
  SimulationResult insq =
      Simulator(ContinuousConfig(core::SafeRegionMode::kInsq, 5)).Run();
  EXPECT_LE(insq.continuous_server_steps, off.continuous_server_steps);
}

TEST(ContinuousSimTest, MergeSumsContinuousMetrics) {
  SimulationResult a = Simulator(ContinuousConfig(core::SafeRegionMode::kInsq, 11)).Run();
  SimulationResult b = Simulator(ContinuousConfig(core::SafeRegionMode::kInsq, 12)).Run();
  SimulationResult merged = MergeResults({a, b});
  EXPECT_EQ(merged.continuous_steps, a.continuous_steps + b.continuous_steps);
  EXPECT_EQ(merged.continuous_safe_region_steps,
            a.continuous_safe_region_steps + b.continuous_safe_region_steps);
  EXPECT_EQ(merged.continuous_peer_region_steps,
            a.continuous_peer_region_steps + b.continuous_peer_region_steps);
  EXPECT_EQ(merged.continuous_own_cache_steps,
            a.continuous_own_cache_steps + b.continuous_own_cache_steps);
  EXPECT_EQ(merged.continuous_peer_steps, a.continuous_peer_steps + b.continuous_peer_steps);
  EXPECT_EQ(merged.continuous_server_steps,
            a.continuous_server_steps + b.continuous_server_steps);
  EXPECT_EQ(merged.continuous_region_pages,
            a.continuous_region_pages + b.continuous_region_pages);
  EXPECT_EQ(merged.continuous_region_area_m2.count(),
            a.continuous_region_area_m2.count() + b.continuous_region_area_m2.count());
}

TEST(ContinuousSimTest, ServerLimitsBoundRequestsAndTheRivalTable) {
  // Every reply must fit one frame (rpc::kMaxKnnK POIs). A contact asks for
  // the cache size or a larger k; an INSQ rival fetch may return the whole
  // POI table, so an INSQ run caps the table, not the cache.
  SimulationConfig cfg = ContinuousConfig(core::SafeRegionMode::kInsq, 1);
  cfg.params.cache_size = rpc::kMaxKnnK;
  EXPECT_TRUE(ValidateServerLimits(cfg).ok());
  cfg.params.cache_size = rpc::kMaxKnnK + 1;
  EXPECT_EQ(ValidateServerLimits(cfg).code(), Status::Code::kInvalidArgument);
  cfg.params.cache_size = 10;
  cfg.params.k_nn = rpc::kMaxKnnK + 1;
  EXPECT_FALSE(ValidateServerLimits(cfg).ok());
  cfg.params.k_nn = 3;
  cfg.continuous = false;
  cfg.randomize_k = true;
  cfg.k_max = rpc::kMaxKnnK + 1;
  EXPECT_FALSE(ValidateServerLimits(cfg).ok());
  cfg.k_max = rpc::kMaxKnnK;
  EXPECT_TRUE(ValidateServerLimits(cfg).ok());

  cfg = ContinuousConfig(core::SafeRegionMode::kInsq, 1);
  cfg.params.poi_number = rpc::kMaxKnnK;
  EXPECT_TRUE(ValidateServerLimits(cfg).ok());
  cfg.params.poi_number = rpc::kMaxKnnK + 1;
  EXPECT_FALSE(ValidateServerLimits(cfg).ok());
  cfg.safe_region = core::SafeRegionMode::kDisk;
  EXPECT_TRUE(ValidateServerLimits(cfg).ok());
  // Every Table 3 and Table 4 world passes at its own cache size.
  for (Region region : {Region::kLosAngeles, Region::kSyntheticSuburbia, Region::kRiverside}) {
    for (const ParameterSet& p : {Table3(region), Table4(region)}) {
      cfg.params = p;
      cfg.safe_region = core::SafeRegionMode::kInsq;
      EXPECT_TRUE(ValidateServerLimits(cfg).ok()) << p.name;
    }
  }
}

TEST(ContinuousSimTest, InsqWithACacheLargerThanTheTableRuns) {
  // Rival fetches over the whole table and contacts asking for far more
  // POIs than exist stay within one frame: the run completes over the wire.
  SimulationConfig cfg = ContinuousConfig(core::SafeRegionMode::kInsq, 2);
  cfg.params.cache_size = 5000;
  ASSERT_TRUE(ValidateServerLimits(cfg).ok());
  Simulator sim(cfg);
  SimulationResult r = sim.Run();
  EXPECT_GT(r.continuous_steps, 0u);
  EXPECT_GT(sim.service_stats().knn, 0u);
  EXPECT_GT(sim.service_stats().rival, 0u);
}

}  // namespace
}  // namespace senn::sim
