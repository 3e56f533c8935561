// Tests of the region-aware server protocol extension (SennOptions::
// ship_region + SpatialServer::QueryKnnWithRegion) and its geometric
// primitive MbrCoveredByDiskUnion.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/core/senn.h"
#include "src/geom/region.h"

namespace senn::core {
namespace {

using geom::Circle;
using geom::Mbr;
using geom::Vec2;

TEST(MbrCoverTest, SingleDiskCoversViaFarthestCorner) {
  Mbr box{{0, 0}, {2, 2}};
  EXPECT_TRUE(geom::MbrCoveredByDiskUnion(box, {Circle({1, 1}, 1.5)}));
  EXPECT_FALSE(geom::MbrCoveredByDiskUnion(box, {Circle({1, 1}, 1.0)}));
}

TEST(MbrCoverTest, TwoHalvesCover) {
  Mbr box{{0, 0}, {4, 2}};
  // Neither disk alone covers (farthest corner > radius), together they do.
  std::vector<Circle> cover{Circle({1, 1}, 2.4), Circle({3, 1}, 2.4)};
  for (const Circle& c : cover) {
    EXPECT_FALSE(geom::MbrCoveredByDiskUnion(box, {c}));
  }
  EXPECT_TRUE(geom::MbrCoveredByDiskUnion(box, cover));
}

TEST(MbrCoverTest, GapDetected) {
  Mbr box{{0, 0}, {4, 2}};
  std::vector<Circle> cover{Circle({0.5, 1}, 1.2), Circle({3.5, 1}, 1.2)};
  EXPECT_FALSE(geom::MbrCoveredByDiskUnion(box, cover));
}

TEST(MbrCoverTest, EmptyBoxAndEmptyCover) {
  EXPECT_TRUE(geom::MbrCoveredByDiskUnion(Mbr::Empty(), {Circle({0, 0}, 1)}));
  EXPECT_FALSE(geom::MbrCoveredByDiskUnion(Mbr{{0, 0}, {1, 1}}, {}));
}

TEST(MbrCoverTest, WorkBudgetCapsThePolygonWork) {
  // Both halves are needed, so the verdict takes polygon work; a budget
  // that affords it changes nothing and is drawn down.
  const Mbr box{{0, 0}, {4, 2}};
  const std::vector<Circle> halves{Circle({1, 1}, 2.4), Circle({3, 1}, 2.4)};
  const uint64_t plenty = 1u << 20;
  uint64_t budget = plenty;
  EXPECT_TRUE(geom::MbrCoveredByDiskUnion(box, halves, {}, &budget));
  const uint64_t spent = plenty - budget;
  EXPECT_GT(spent, 0u);

  // One unit short: the conservative "not covered", and the budget is gone,
  // so the next test sharing it answers at once.
  budget = spent - 1;
  EXPECT_FALSE(geom::MbrCoveredByDiskUnion(box, halves, {}, &budget));
  EXPECT_EQ(budget, 0u);
  EXPECT_FALSE(geom::MbrCoveredByDiskUnion(box, halves, {}, &budget));
  // The exact single-disk check costs nothing and still answers.
  EXPECT_TRUE(geom::MbrCoveredByDiskUnion(box, {Circle({2, 1}, 2.3)}, {}, &budget));

  // Disjoint disks inside the box split its remainder piece after piece:
  // the work grows steeply with their number, and the budget stops it.
  std::vector<Circle> grid;
  for (int i = 0; i < kMaxRegionDisks; ++i) {
    grid.emplace_back(Vec2{0.25 + 0.5 * (i % 8), 0.125 + 0.25 * (i / 8)}, 0.05);
  }
  budget = plenty;
  EXPECT_FALSE(geom::MbrCoveredByDiskUnion(box, grid, {}, &budget));
  EXPECT_EQ(budget, 0u);
}

TEST(MbrCoverTest, ConservativeNeverFalselyCovers) {
  // Sampling oracle: if any sample point in the box is uncovered, the test
  // must not report covered.
  Rng rng(1);
  for (int trial = 0; trial < 300; ++trial) {
    Vec2 lo{rng.Uniform(-2, 0), rng.Uniform(-2, 0)};
    Vec2 hi{lo.x + rng.Uniform(0.5, 3), lo.y + rng.Uniform(0.5, 3)};
    Mbr box{lo, hi};
    std::vector<Circle> cover;
    for (int i = 0; i < 3; ++i) {
      cover.push_back(Circle({rng.Uniform(-2, 2), rng.Uniform(-2, 2)},
                             rng.Uniform(0.5, 2.5)));
    }
    if (!geom::MbrCoveredByDiskUnion(box, cover)) continue;
    for (int s = 0; s < 200; ++s) {
      Vec2 p{rng.Uniform(lo.x, hi.x), rng.Uniform(lo.y, hi.y)};
      bool inside = false;
      for (const Circle& c : cover) inside |= c.Contains(p, 1e-9);
      ASSERT_TRUE(inside) << "trial " << trial;
    }
  }
}

// ---- end-to-end region protocol ----

std::vector<Poi> RandomPois(int n, Rng* rng, double extent) {
  std::vector<Poi> pois;
  for (int i = 0; i < n; ++i) {
    pois.push_back({i, {rng->Uniform(0, extent), rng->Uniform(0, extent)}});
  }
  return pois;
}

std::vector<RankedPoi> TrueKnn(const std::vector<Poi>& pois, Vec2 q, int k) {
  std::vector<RankedPoi> all;
  for (const Poi& p : pois) all.push_back({p.id, p.position, geom::Dist(q, p.position)});
  std::sort(all.begin(), all.end(),
            [](const RankedPoi& a, const RankedPoi& b) { return a.distance < b.distance; });
  if (static_cast<int>(all.size()) > k) all.resize(static_cast<size_t>(k));
  return all;
}

TEST(RegionProtocolTest, ExactAcrossRandomWorlds) {
  Rng rng(2);
  int region_used = 0;
  for (int trial = 0; trial < 120; ++trial) {
    std::vector<Poi> pois = RandomPois(static_cast<int>(rng.UniformInt(10, 60)), &rng, 600);
    SpatialServer server(pois);
    SennOptions options;
    options.server_request_k = 8;
    options.ship_region = true;
    SennProcessor senn(&server, options);
    Vec2 q{rng.Uniform(150, 450), rng.Uniform(150, 450)};
    std::vector<CachedResult> caches;
    for (int i = 0; i < 4; ++i) {
      CachedResult c;
      c.query_location = {q.x + rng.Uniform(-200, 200), q.y + rng.Uniform(-200, 200)};
      c.neighbors = server.QueryKnn(c.query_location, 8).neighbors;
      caches.push_back(std::move(c));
    }
    server.ResetStats();
    std::vector<const CachedResult*> peers;
    for (const CachedResult& c : caches) peers.push_back(&c);
    int k = static_cast<int>(rng.UniformInt(1, 6));
    SennOutcome outcome = senn.Execute(q, k, peers);
    std::vector<RankedPoi> truth = TrueKnn(pois, q, k);
    ASSERT_EQ(outcome.neighbors.size(), truth.size()) << "trial " << trial;
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(outcome.neighbors[i].id, truth[i].id)
          << "trial " << trial << " rank " << i << " ("
          << ResolutionName(outcome.resolution) << ")";
    }
    if (outcome.resolution == Resolution::kServer && outcome.bounds.upper.has_value()) {
      ++region_used;
    }
  }
  EXPECT_GT(region_used, 5);  // the region path must actually be exercised
}

TEST(RegionProtocolTest, MatchesScalarProtocolResults) {
  Rng rng(3);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Poi> pois = RandomPois(50, &rng, 600);
    SpatialServer server(pois);
    Vec2 q{rng.Uniform(150, 450), rng.Uniform(150, 450)};
    std::vector<CachedResult> caches;
    for (int i = 0; i < 3; ++i) {
      CachedResult c;
      c.query_location = {q.x + rng.Uniform(-250, 250), q.y + rng.Uniform(-250, 250)};
      c.neighbors = server.QueryKnn(c.query_location, 8).neighbors;
      caches.push_back(std::move(c));
    }
    std::vector<const CachedResult*> peers;
    for (const CachedResult& c : caches) peers.push_back(&c);
    SennOptions scalar;
    scalar.server_request_k = 8;
    SennOptions region = scalar;
    region.ship_region = true;
    SennOutcome a = SennProcessor(&server, scalar).Execute(q, 4, peers);
    SennOutcome b = SennProcessor(&server, region).Execute(q, 4, peers);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << "trial " << trial;
    }
  }
}

TEST(RegionProtocolTest, RegionQueryExcludesKnownAndKeepsRest) {
  Rng rng(4);
  std::vector<Poi> pois = RandomPois(200, &rng, 1000);
  SpatialServer server(pois);
  Vec2 q{500, 500};
  std::vector<geom::Circle> region{Circle({480, 500}, 120.0)};
  const double horizon = 300.0;
  const int k = 10;
  ServerReply reply = server.QueryKnnWithRegion(q, k, horizon, region);
  for (const RankedPoi& n : reply.neighbors) {
    EXPECT_LE(n.distance, horizon);
    EXPECT_FALSE(region[0].Contains(n.position)) << "known POI returned";
  }
  // Ascending order, at most k results.
  EXPECT_LE(reply.neighbors.size(), static_cast<size_t>(k));
  for (size_t i = 1; i < reply.neighbors.size(); ++i) {
    EXPECT_GE(reply.neighbors[i].distance, reply.neighbors[i - 1].distance);
  }
  // The merge contract: region POIs (client-known) plus the reply contain
  // the exact top-k within the horizon.
  std::vector<RankedPoi> truth = TrueKnn(pois, q, k);
  for (const RankedPoi& t : truth) {
    if (t.distance > horizon) continue;
    bool known = region[0].Contains(t.position);
    bool returned = std::any_of(reply.neighbors.begin(), reply.neighbors.end(),
                                [&](const RankedPoi& n) { return n.id == t.id; });
    EXPECT_TRUE(known || returned) << "top-k POI " << t.id << " unreachable by merge";
  }
}

// k <= 0 asks for no rank: the empty reply QueryKnn(q, 0) gives, without a
// page read (the dynamic bound's heap stays empty, so it must not be read).
TEST(RegionProtocolTest, NonPositiveKReturnsAnEmptyReply) {
  Rng rng(6);
  SpatialServer server(RandomPois(100, &rng, 100));
  EXPECT_TRUE(server.QueryKnn({50, 50}, 0).neighbors.empty());
  for (int k : {0, -1}) {
    ServerReply reply = server.QueryKnnWithRegion({50, 50}, k, 1e9, {});
    EXPECT_TRUE(reply.neighbors.empty()) << "k=" << k;
    EXPECT_EQ(reply.einn_accesses.total(), 0u) << "k=" << k;
  }
}

TEST(RegionProtocolTest, RegionPruningSavesPagesOnCoveredLeaves) {
  // Small fan-out => small leaves => peer disks can cover whole subtrees.
  Rng rng(5);
  std::vector<Poi> pois = RandomPois(4000, &rng, 1000);
  rtree::RStarTree::Options opts;
  opts.max_entries = 8;
  opts.min_entries = 3;
  SpatialServer server(pois, opts);
  // Isolate the pruning mechanism: the identical search once with the
  // region and once without (empty region), same k and horizon. A large
  // known disk overlapping the search area lets the saturated search skip
  // covered subtrees it would otherwise read.
  uint64_t with_region = 0, without_region = 0;
  for (int trial = 0; trial < 30; ++trial) {
    Vec2 q{rng.Uniform(300, 700), rng.Uniform(300, 700)};
    std::vector<geom::Circle> region{Circle({q.x + 100, q.y}, 200.0)};
    ServerReply a = server.QueryKnnWithRegion(q, 60, 250.0, region);
    ServerReply b = server.QueryKnnWithRegion(q, 60, 250.0, {});
    with_region += a.einn_accesses.total();
    without_region += b.einn_accesses.total();
  }
  EXPECT_LT(with_region, without_region);
}

}  // namespace
}  // namespace senn::core
