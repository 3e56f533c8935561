// Whole-output pins of the simulator. For each configuration below the test
// runs one simulation with both trace sinks attached and fingerprints
// (FNV-1a-64) three documents: the full SimulationResultJson, the
// QueryTrace CSV and the ChromeTraceWriter JSON. golden_json_test pins only
// the historical field prefix of two ideal-channel runs, and the trace
// tests compare runs with each other, so a change that shifts a lossy,
// paged or traced number the same way on every path would pass them; it
// cannot pass these pins. Every server contact crosses the wire
// (rpc::LoopbackLink); the pins were recorded when the same runs still
// called the server directly, and both paths produced them.
//
// Each configuration also asserts a nonzero count of the path it exists to
// cover (server contacts, lost transmissions, pool misses, continuous
// server steps, region and rival requests answered over the wire), so a
// pin can never silently cover nothing.
//
// The worlds are Table 4's at a 4x linear scale-down (253 POIs, 7,594
// hosts), which gives server contacts of 2-6 pages. The paged ones hold
// 1,000 POIs, so that a 16-frame pool cannot hold the tree. The whole suite
// runs in a few seconds in a Release build.
//
// Regenerating (only after an INTENDED output change): a mismatch prints the
// new fingerprint next to the recorded one; paste it over the old one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>

#include "src/obs/chrome_trace.h"
#include "src/sim/report.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"

namespace senn::sim {
namespace {

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Table 4 (Los Angeles) scaled down `scale`x per side, as `senn_sim --area
// 30x30 --scale S` builds it, in free movement.
SimulationConfig Table4Scaled(double duration_s = 120.0, double scale = 4.0) {
  SimulationConfig cfg;
  cfg.params = Table4(Region::kLosAngeles);
  const double area_factor = scale * scale;
  cfg.params.area_side_miles /= scale;
  cfg.params.poi_number = static_cast<int>(cfg.params.poi_number / area_factor + 0.5);
  cfg.params.mh_number = static_cast<int>(cfg.params.mh_number / area_factor + 0.5);
  cfg.params.queries_per_minute /= area_factor;
  cfg.mode = MovementMode::kFreeMovement;
  cfg.duration_s = duration_s;
  cfg.seed = 42;
  return cfg;
}

// A 16-frame pool under a 1,000-POI tree it cannot hold.
SimulationConfig BoundedPool(SimulationConfig cfg) {
  cfg.params.poi_number = 1000;
  cfg.paged_storage = true;
  cfg.buffer.capacity_pages = 16;
  return cfg;
}

SimulationConfig Lossy(SimulationConfig cfg) {
  cfg.channel.loss = 0.3;
  cfg.channel.latency_mean_s = 0.02;
  return cfg;
}

struct Pin {
  uint64_t result_json;
  uint64_t trace_csv;
  uint64_t chrome_json;
};

struct Outputs {
  SimulationResult result;
  rpc::ServiceStats service;
  std::string result_json;
  std::string trace_csv;
  std::string chrome_json;
};

Outputs RunTraced(const SimulationConfig& cfg) {
  QueryTrace trace;
  obs::ChromeTraceWriter chrome;
  Simulator sim(cfg);
  sim.AttachTrace(&trace);
  sim.AttachSpanSink(&chrome);
  Outputs out;
  out.result = sim.Run();
  out.service = sim.service_stats();
  out.result_json = SimulationResultJson(out.result);
  std::ostringstream csv;
  EXPECT_TRUE(trace.WriteCsv(&csv).ok());
  out.trace_csv = csv.str();
  out.chrome_json = chrome.ToJson();
  return out;
}

void ExpectPinned(const char* name, const SimulationConfig& cfg, const Pin& pin,
                  const std::function<void(const Outputs&)>& coverage) {
  SCOPED_TRACE(name);
  Outputs out = RunTraced(cfg);
  coverage(out);
  EXPECT_EQ(Hex(Fnv1a64(out.result_json)), Hex(pin.result_json)) << "result JSON";
  EXPECT_EQ(Hex(Fnv1a64(out.trace_csv)), Hex(pin.trace_csv)) << "query trace CSV";
  EXPECT_EQ(Hex(Fnv1a64(out.chrome_json)), Hex(pin.chrome_json)) << "Chrome trace JSON";
}

constexpr Pin kSequential{0x4b9f0c7c994ff976, 0x31dc3fb69527c1c3, 0x46bdbdbb97bae06f};
constexpr Pin kLossyBoundedPool{0xf08ea5114c060439, 0x51250732da198b7c, 0xc5d0e54fb0bfbe74};
constexpr Pin kBoundedPool{0xbfe557a026787b39, 0xf6359117955e5714, 0x7e3e5daed2c2eff3};
constexpr Pin kRandomizedK{0xe2d6d33ffba8eb6b, 0xdd89e8286beeed1d, 0x041f7c798307ea14};
constexpr Pin kRoadOnEnqueue{0xa5bb0122afc7b420, 0x4545b04e93bf3263, 0x8c70f776359340c8};
constexpr Pin kShipRegion{0x4b9f0c7c994ff976, 0x31dc3fb69527c1c3, 0x7360d7a58021e670};

void HitsServer(const Outputs& out) {
  EXPECT_GT(out.result.by_server, 0u);
  EXPECT_GT(out.service.knn, 0u);
}
void LosesTransmissions(const Outputs& out) {
  HitsServer(out);
  EXPECT_GT(out.result.transmissions_lost, 0u);
}

TEST(SimOutputPinTest, Sequential) {
  ExpectPinned("sequential", Table4Scaled(), kSequential, HitsServer);
}

// Channel draws happen before the server contact.
TEST(SimOutputPinTest, LossyChannelSequential) {
  ExpectPinned("lossy sequential", Lossy(Table4Scaled()),
               {0x91b044870050a8eb, 0x2dbb152c204cfb5e, 0x51aabaeb7d9dc63b}, LosesTransmissions);
}

// A sequential contact through a bounded pool: pool misses accrue, and the
// served pool must miss exactly where a direct call's would.
void HitsServerAndMisses(const Outputs& out) {
  HitsServer(out);
  EXPECT_GT(out.result.buffer.misses(), 0u);
}

TEST(SimOutputPinTest, BoundedPoolSequential) {
  ExpectPinned("16-page pool, sequential", BoundedPool(Table4Scaled()), kBoundedPool,
               HitsServerAndMisses);
}

// The paged and lossy paths at once.
void LossesAndMisses(const Outputs& out) {
  LosesTransmissions(out);
  EXPECT_GT(out.result.buffer.misses(), 0u);
}

TEST(SimOutputPinTest, LossyBoundedPoolSequential) {
  ExpectPinned("lossy 16-page pool, sequential", BoundedPool(Lossy(Table4Scaled())),
               kLossyBoundedPool, LossesAndMisses);
}

// Per-query k rides the request frame.
TEST(SimOutputPinTest, RandomizedK) {
  SimulationConfig cfg = Table4Scaled();
  cfg.randomize_k = true;
  ExpectPinned("randomize_k", cfg, kRandomizedK, HitsServer);
}

// The on-enqueue page counts ride the reply frame.
TEST(SimOutputPinTest, RoadNetworkOnEnqueue) {
  SimulationConfig cfg = Table4Scaled(60.0);
  cfg.mode = MovementMode::kRoadNetwork;
  cfg.page_count_mode = rtree::AccessCountMode::kOnEnqueue;
  ExpectPinned("road, on-enqueue pages", cfg, kRoadOnEnqueue, HitsServer);
}

// Region contacts ride kRegionKnnRequest frames; the scalar fallback, taken
// while the heap has no upper bound, rides kKnnRequest frames.
TEST(SimOutputPinTest, ShipRegion) {
  SimulationConfig cfg = Table4Scaled();
  cfg.senn.ship_region = true;
  ExpectPinned("ship_region", cfg, kShipRegion, [](const Outputs& out) {
    HitsServer(out);
    EXPECT_GT(out.service.region, 0u);
  });
}

// Continuous steps are not traced, so only the result JSON is pinned; a
// smaller world keeps the per-host INSQ priming cheap. The INSQ rival
// fetches ride kRivalRequest frames.
void ExpectContinuousPinned(const SimulationConfig& cfg, uint64_t result_json,
                            const std::function<void(const SimulationResult&)>& coverage) {
  Simulator sim(cfg);
  SimulationResult r = sim.Run();
  EXPECT_GT(r.continuous_server_steps, 0u);
  EXPECT_GT(sim.service_stats().rival, 0u);
  coverage(r);
  EXPECT_EQ(Hex(Fnv1a64(SimulationResultJson(r))), Hex(result_json)) << "result JSON";
}

TEST(SimOutputPinTest, ContinuousInsq) {
  SimulationConfig cfg = Table4Scaled(120.0, 6.0);
  cfg.continuous = true;
  cfg.safe_region = core::SafeRegionMode::kInsq;
  ExpectContinuousPinned(cfg, 0x49c8066665f85eb3, [](const SimulationResult&) {});
}

// Continuous steps share the snapshot path's channel accounting; a lossy
// channel pins that bookkeeping on the continuous side.
TEST(SimOutputPinTest, ContinuousInsqLossy) {
  SimulationConfig cfg = Lossy(Table4Scaled(120.0, 6.0));
  cfg.continuous = true;
  cfg.safe_region = core::SafeRegionMode::kInsq;
  ExpectContinuousPinned(cfg, 0xdc0e258a44a30299, [](const SimulationResult& r) {
    EXPECT_GT(r.transmissions_lost, 0u);
  });
}

// Continuous steps share the snapshot path's server-page accounting; a
// bounded pool over a 1,000-POI tree pins its miss counts on the continuous
// side.
TEST(SimOutputPinTest, ContinuousInsqBoundedPool) {
  SimulationConfig cfg = BoundedPool(Table4Scaled(120.0, 6.0));
  cfg.continuous = true;
  cfg.safe_region = core::SafeRegionMode::kInsq;
  ExpectContinuousPinned(cfg, 0xba42ba9132cde03d, [](const SimulationResult& r) {
    EXPECT_GT(r.buffer.misses(), 0u);
  });
}

}  // namespace
}  // namespace senn::sim
