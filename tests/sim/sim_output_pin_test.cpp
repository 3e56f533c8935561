// Whole-output pins of the simulator. For each configuration below the test
// runs one simulation with both trace sinks attached and fingerprints
// (FNV-1a-64) three documents: the full SimulationResultJson, the
// QueryTrace CSV and the ChromeTraceWriter JSON. golden_json_test pins only
// the historical field prefix of two ideal-channel runs, and the transport
// and trace tests compare runs with each other, so a change that shifts a
// lossy, batched, paged or traced number the same way on every path would
// pass them; it cannot pass these pins.
//
// Each configuration also asserts a nonzero count of the path it exists to
// cover (server contacts, shared traversals, lost transmissions, pool
// misses, continuous server steps), so a pin can never silently cover
// nothing.
//
// The worlds are Table 4's at a 4x linear scale-down (253 POIs, 7,594
// hosts), which gives server contacts of 2-6 pages. The batched ones hold
// 1,000 POIs, a 12x launch rate and 5-s steps, so that server contacts share
// co-location tiles within a step and a 16-frame pool cannot hold the tree.
// The whole suite runs in about 5 s in a Release build.
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

// Enough launches per step that server contacts share co-location tiles.
SimulationConfig Batched(ServerTransport transport) {
  SimulationConfig cfg = Table4Scaled(40.0);
  cfg.params.poi_number = 1000;
  cfg.params.queries_per_minute *= 12.0;
  cfg.time_step_s = 5.0;
  cfg.server_batch = 4;
  cfg.server_transport = transport;
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
  out.result_json = SimulationResultJson(out.result);
  std::ostringstream csv;
  EXPECT_TRUE(trace.WriteCsv(&csv).ok());
  out.trace_csv = csv.str();
  out.chrome_json = chrome.ToJson();
  return out;
}

void ExpectPinned(const char* name, const SimulationConfig& cfg, const Pin& pin,
                  const std::function<void(const SimulationResult&)>& coverage) {
  SCOPED_TRACE(name);
  Outputs out = RunTraced(cfg);
  coverage(out.result);
  EXPECT_EQ(Hex(Fnv1a64(out.result_json)), Hex(pin.result_json)) << "result JSON";
  EXPECT_EQ(Hex(Fnv1a64(out.trace_csv)), Hex(pin.trace_csv)) << "query trace CSV";
  EXPECT_EQ(Hex(Fnv1a64(out.chrome_json)), Hex(pin.chrome_json)) << "Chrome trace JSON";
}

// Both transports must produce the same bytes, so their runs share one pin.
constexpr Pin kSequential{0x7194ccfb64bf0251, 0x31dc3fb69527c1c3, 0x46bdbdbb97bae06f};
constexpr Pin kBatched{0x1adad96136a058ff, 0x218baa4ccbc2fbf3, 0xd0cafb2bd10fb9fd};

void HitsServer(const SimulationResult& r) { EXPECT_GT(r.by_server, 0u); }
void SharesTraversals(const SimulationResult& r) {
  EXPECT_GT(r.by_server, 0u);
  EXPECT_GT(r.batch_clusters, 0u);
}
void LosesTransmissions(const SimulationResult& r) {
  EXPECT_GT(r.by_server, 0u);
  EXPECT_GT(r.transmissions_lost, 0u);
}

TEST(SimOutputPinTest, SequentialInProcess) {
  ExpectPinned("sequential in process", Table4Scaled(), kSequential, HitsServer);
}

TEST(SimOutputPinTest, SequentialLoopback) {
  SimulationConfig cfg = Table4Scaled();
  cfg.server_transport = ServerTransport::kLoopback;
  ExpectPinned("sequential loopback", cfg, kSequential, HitsServer);
}

TEST(SimOutputPinTest, BatchedInProcess) {
  ExpectPinned("batch 4 in process", Batched(ServerTransport::kInProcess), kBatched,
               SharesTraversals);
}

TEST(SimOutputPinTest, BatchedLoopback) {
  ExpectPinned("batch 4 loopback", Batched(ServerTransport::kLoopback), kBatched,
               SharesTraversals);
}

TEST(SimOutputPinTest, BoundedPoolBatched) {
  SimulationConfig cfg = Batched(ServerTransport::kInProcess);
  cfg.paged_storage = true;
  cfg.buffer.capacity_pages = 16;
  ExpectPinned("16-page pool, batch 4", cfg,
               {0xe8e4bdf662f88075, 0x218baa4ccbc2fbf3, 0xd07b1128445b2ca5}, [](const SimulationResult& r) {
    SharesTraversals(r);
    EXPECT_GT(r.buffer.misses(), 0u);
    EXPECT_GT(r.batch_shared_miss_pages + r.batch_private_miss_pages, 0u);
  });
}

TEST(SimOutputPinTest, LossyChannelSequential) {
  ExpectPinned("lossy sequential", Lossy(Table4Scaled()),
               {0xe314a1dcb04117f4, 0x2dbb152c204cfb5e, 0x51aabaeb7d9dc63b}, LosesTransmissions);
}

// Channel draws happen before the server contact, so the transport must not
// move them: the loopback run shares the in-process pin.
TEST(SimOutputPinTest, LossyChannelSequentialLoopback) {
  SimulationConfig cfg = Lossy(Table4Scaled());
  cfg.server_transport = ServerTransport::kLoopback;
  ExpectPinned("lossy sequential loopback", cfg,
               {0xe314a1dcb04117f4, 0x2dbb152c204cfb5e, 0x51aabaeb7d9dc63b}, LosesTransmissions);
}

// A sequential contact through a bounded pool: pool misses accrue, and the
// batch_* fields stay zero because no contact shares a traversal. As in the
// batched worlds, 1,000 POIs make a tree that 16 frames cannot hold.
TEST(SimOutputPinTest, BoundedPoolSequential) {
  SimulationConfig cfg = Table4Scaled();
  cfg.params.poi_number = 1000;
  cfg.paged_storage = true;
  cfg.buffer.capacity_pages = 16;
  ExpectPinned("16-page pool, sequential", cfg,
               {0x67cc211632aa92ea, 0xf6359117955e5714, 0x7e3e5daed2c2eff3},
               [](const SimulationResult& r) {
                 HitsServer(r);
                 EXPECT_GT(r.buffer.misses(), 0u);
                 EXPECT_EQ(r.batch_clusters, 0u);
                 EXPECT_EQ(r.batch_shared_miss_pages + r.batch_private_miss_pages, 0u);
               });
}

// Every batched, paged and lossy path at once, over the wire.
TEST(SimOutputPinTest, LossyBoundedPoolBatchedLoopback) {
  SimulationConfig cfg = Lossy(Batched(ServerTransport::kLoopback));
  cfg.paged_storage = true;
  cfg.buffer.capacity_pages = 16;
  ExpectPinned("lossy 16-page pool, batch 4, loopback", cfg,
               {0x71c98ef6dac0e376, 0x23405619b19d3b2d, 0xc4851c64038aa5d4},
               [](const SimulationResult& r) {
                 LosesTransmissions(r);
                 EXPECT_GT(r.batch_clusters, 0u);
                 EXPECT_GT(r.buffer.misses(), 0u);
               });
}

TEST(SimOutputPinTest, LossyChannelBatched) {
  ExpectPinned("lossy batch 4", Lossy(Batched(ServerTransport::kInProcess)),
               {0xe1429720756b39a9, 0x23405619b19d3b2d, 0x70251a06e1c88026},
               [](const SimulationResult& r) {
                 LosesTransmissions(r);
                 EXPECT_GT(r.batch_clusters, 0u);
               });
}

TEST(SimOutputPinTest, RandomizedK) {
  SimulationConfig cfg = Table4Scaled();
  cfg.randomize_k = true;
  ExpectPinned("randomize_k", cfg,
               {0xfec6739b95255274, 0xdd89e8286beeed1d, 0x041f7c798307ea14}, HitsServer);
}

TEST(SimOutputPinTest, RoadNetworkOnEnqueue) {
  SimulationConfig cfg = Table4Scaled(60.0);
  cfg.mode = MovementMode::kRoadNetwork;
  cfg.page_count_mode = rtree::AccessCountMode::kOnEnqueue;
  ExpectPinned("road, on-enqueue pages", cfg,
               {0x0b65859daa494b49, 0x4545b04e93bf3263, 0x8c70f776359340c8}, HitsServer);
}

TEST(SimOutputPinTest, ShipRegion) {
  SimulationConfig cfg = Table4Scaled();
  cfg.senn.ship_region = true;
  ExpectPinned("ship_region", cfg,
               {0x7194ccfb64bf0251, 0x31dc3fb69527c1c3, 0x7360d7a58021e670}, HitsServer);
}

// Continuous steps are not traced, so only the result JSON is pinned; a
// smaller world keeps the per-host INSQ priming cheap.
TEST(SimOutputPinTest, ContinuousInsq) {
  SimulationConfig cfg = Table4Scaled(120.0, 6.0);
  cfg.continuous = true;
  cfg.safe_region = core::SafeRegionMode::kInsq;
  SimulationResult r = Simulator(cfg).Run();
  EXPECT_GT(r.continuous_server_steps, 0u);
  EXPECT_EQ(Hex(Fnv1a64(SimulationResultJson(r))), Hex(0xbcf99511339e4ad2)) << "result JSON";
}

// Continuous steps share the snapshot path's channel accounting; a lossy
// channel pins that bookkeeping on the continuous side.
TEST(SimOutputPinTest, ContinuousInsqLossy) {
  SimulationConfig cfg = Lossy(Table4Scaled(120.0, 6.0));
  cfg.continuous = true;
  cfg.safe_region = core::SafeRegionMode::kInsq;
  SimulationResult r = Simulator(cfg).Run();
  EXPECT_GT(r.continuous_server_steps, 0u);
  EXPECT_GT(r.transmissions_lost, 0u);
  EXPECT_EQ(Hex(Fnv1a64(SimulationResultJson(r))), Hex(0x95ac292832fb80fe)) << "result JSON";
}

// Continuous steps share the snapshot path's server-page accounting; a
// bounded pool over a 1,000-POI tree pins its miss counts on the continuous
// side.
TEST(SimOutputPinTest, ContinuousInsqBoundedPool) {
  SimulationConfig cfg = Table4Scaled(120.0, 6.0);
  cfg.params.poi_number = 1000;
  cfg.continuous = true;
  cfg.safe_region = core::SafeRegionMode::kInsq;
  cfg.paged_storage = true;
  cfg.buffer.capacity_pages = 16;
  SimulationResult r = Simulator(cfg).Run();
  EXPECT_GT(r.continuous_server_steps, 0u);
  EXPECT_GT(r.buffer.misses(), 0u);
  EXPECT_EQ(Hex(Fnv1a64(SimulationResultJson(r))), Hex(0xcb2fa0c9f376b7d4)) << "result JSON";
}

}  // namespace
}  // namespace senn::sim
