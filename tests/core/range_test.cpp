// Tests of the sharing-based range query extension (core/range.h):
// completeness and exactness across resolution paths, pruning correctness,
// and the PrunedCircleQuery server primitive.
#include "src/core/range.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/common/rng.h"

namespace senn::core {
namespace {

using geom::Vec2;

std::vector<Poi> RandomPois(int n, Rng* rng, double extent) {
  std::vector<Poi> pois;
  for (int i = 0; i < n; ++i) {
    pois.push_back({i, {rng->Uniform(0, extent), rng->Uniform(0, extent)}});
  }
  return pois;
}

std::set<PoiId> TrueRange(const std::vector<Poi>& pois, Vec2 q, double r) {
  std::set<PoiId> ids;
  for (const Poi& p : pois) {
    if (geom::Dist(q, p.position) <= r) ids.insert(p.id);
  }
  return ids;
}

CachedResult MakePeerCache(SpatialServer* server, Vec2 at, int cache_size) {
  CachedResult c;
  c.query_location = at;
  c.neighbors = server->QueryKnn(at, cache_size).neighbors;
  return c;
}

std::set<PoiId> Ids(const std::vector<RankedPoi>& pois) {
  std::set<PoiId> ids;
  for (const RankedPoi& p : pois) ids.insert(p.id);
  return ids;
}

TEST(PrunedCircleQueryTest, PoiAtQueryPointReturnedWithZeroInner) {
  // Regression: with inner = 0, a POI exactly at the query point must still
  // be returned (strict d > inner would drop it).
  SpatialServer server({{7, {100, 100}}});
  std::vector<RankedPoi> got = PrunedCircleQuery(server.tree(), {100, 100}, 50.0, 0.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 7);
  EXPECT_DOUBLE_EQ(got[0].distance, 0.0);
}

TEST(PrunedCircleQueryTest, MatchesBruteForceWithoutInner) {
  Rng rng(1);
  std::vector<Poi> pois = RandomPois(500, &rng, 1000);
  SpatialServer server(pois);
  for (int trial = 0; trial < 40; ++trial) {
    Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    double r = rng.Uniform(20, 300);
    std::vector<RankedPoi> got = PrunedCircleQuery(server.tree(), q, r, 0.0);
    EXPECT_EQ(Ids(got), TrueRange(pois, q, r)) << "trial " << trial;
    // Ascending distances.
    for (size_t i = 1; i < got.size(); ++i) {
      EXPECT_GE(got[i].distance, got[i - 1].distance);
    }
  }
}

TEST(PrunedCircleQueryTest, InnerDiskExcludedExactly) {
  Rng rng(2);
  std::vector<Poi> pois = RandomPois(500, &rng, 1000);
  SpatialServer server(pois);
  for (int trial = 0; trial < 40; ++trial) {
    Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    double r = rng.Uniform(100, 300);
    double inner = rng.Uniform(0, r);
    std::vector<RankedPoi> got = PrunedCircleQuery(server.tree(), q, r, inner);
    std::set<PoiId> expected;
    for (const Poi& p : pois) {
      double d = geom::Dist(q, p.position);
      if (d <= r && d > inner) expected.insert(p.id);
    }
    EXPECT_EQ(Ids(got), expected) << "trial " << trial;
  }
}

TEST(PrunedCircleQueryTest, ResultCapStopsTheScan) {
  Rng rng(4);
  std::vector<Poi> pois = RandomPois(3000, &rng, 1000);
  SpatialServer server(pois);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    const Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    const double r = rng.Uniform(100, 400);
    rtree::AccessCounter full_pages;
    const std::vector<RankedPoi> full =
        PrunedCircleQuery(server.tree(), q, r, 0.0, &full_pages);
    ASSERT_GT(full.size(), 20u);
    // A cap the range does not reach changes nothing, pages included (the
    // service's cap of kMaxKnnK + 1 leaves every answerable fetch whole).
    rtree::AccessCounter loose_pages;
    EXPECT_EQ(
        PrunedCircleQuery(server.tree(), q, r, 0.0, &loose_pages, nullptr, full.size() + 1),
        full);
    EXPECT_EQ(loose_pages, full_pages);
    // A cap it passes stops the walk: that many POIs of the range, read
    // from fewer pages.
    rtree::AccessCounter capped_pages;
    const std::vector<RankedPoi> capped =
        PrunedCircleQuery(server.tree(), q, r, 0.0, &capped_pages, nullptr, 5);
    ASSERT_EQ(capped.size(), 5u);
    for (const RankedPoi& p : capped) {
      EXPECT_TRUE(std::find(full.begin(), full.end(), p) != full.end());
    }
    EXPECT_LT(capped_pages.total(), full_pages.total());
  }
}

TEST(PrunedCircleQueryTest, InnerPruningSavesPages) {
  Rng rng(3);
  std::vector<Poi> pois = RandomPois(5000, &rng, 1000);
  rtree::RStarTree::Options opts;
  opts.max_entries = 8;
  opts.min_entries = 3;
  rtree::RStarTree inserted(opts);
  for (const Poi& p : pois) inserted.Insert(p.position, p.id);
  const rtree::PackedTree tree = rtree::Pack(inserted);
  uint64_t pruned_total = 0, plain_total = 0;
  for (int trial = 0; trial < 30; ++trial) {
    Vec2 q{rng.Uniform(200, 800), rng.Uniform(200, 800)};
    rtree::AccessCounter pruned, plain;
    PrunedCircleQuery(tree, q, 200.0, 150.0, &pruned);
    PrunedCircleQuery(tree, q, 200.0, 0.0, &plain);
    pruned_total += pruned.total();
    plain_total += plain.total();
  }
  EXPECT_LT(pruned_total, plain_total);
}

TEST(RangeProcessorTest, CoveredByOnePeerResolvesLocally) {
  Rng rng(4);
  std::vector<Poi> pois = RandomPois(60, &rng, 1000);
  SpatialServer server(pois);
  RangeProcessor range(&server);
  Vec2 q{500, 500};
  CachedResult peer = MakePeerCache(&server, q, 20);  // big disk around q
  double r = peer.Radius() * 0.4;                     // well inside
  server.ResetStats();
  RangeOutcome out = range.Execute(q, r, {&peer});
  EXPECT_EQ(out.resolution, RangeResolution::kSinglePeer);
  EXPECT_EQ(Ids(out.pois), TrueRange(pois, q, r));
  EXPECT_EQ(server.stats().queries, 0u);
  EXPECT_DOUBLE_EQ(out.certain_radius, r);
}

TEST(RangeProcessorTest, NoPeersGoesToServer) {
  Rng rng(5);
  std::vector<Poi> pois = RandomPois(60, &rng, 1000);
  SpatialServer server(pois);
  RangeProcessor range(&server);
  RangeOutcome out = range.Execute({400, 400}, 250.0, {});
  EXPECT_EQ(out.resolution, RangeResolution::kServer);
  EXPECT_EQ(Ids(out.pois), TrueRange(pois, {400, 400}, 250.0));
  EXPECT_DOUBLE_EQ(out.certain_radius, 0.0);
}

TEST(RangeProcessorTest, AlwaysCompleteAcrossRandomWorlds) {
  Rng rng(6);
  int local = 0, remote = 0;
  for (int trial = 0; trial < 120; ++trial) {
    std::vector<Poi> pois = RandomPois(static_cast<int>(rng.UniformInt(10, 80)), &rng, 600);
    SpatialServer server(pois);
    RangeProcessor range(&server);
    Vec2 q{rng.Uniform(150, 450), rng.Uniform(150, 450)};
    std::vector<CachedResult> caches;
    int peer_count = static_cast<int>(rng.UniformInt(0, 5));
    for (int i = 0; i < peer_count; ++i) {
      caches.push_back(MakePeerCache(
          &server, {q.x + rng.Uniform(-150, 150), q.y + rng.Uniform(-150, 150)},
          static_cast<int>(rng.UniformInt(3, 12))));
    }
    std::vector<const CachedResult*> peers;
    for (const CachedResult& c : caches) peers.push_back(&c);
    double r = rng.Uniform(20, 250);
    RangeOutcome out = range.Execute(q, r, peers);
    EXPECT_EQ(Ids(out.pois), TrueRange(pois, q, r)) << "trial " << trial;
    // Results sorted ascending.
    for (size_t i = 1; i < out.pois.size(); ++i) {
      EXPECT_GE(out.pois[i].distance, out.pois[i - 1].distance);
    }
    (out.resolution == RangeResolution::kServer ? remote : local) += 1;
  }
  EXPECT_GT(local, 0);   // sharing resolves some queries entirely
  EXPECT_GT(remote, 0);  // and some need the server
}

TEST(RangeProcessorTest, CertainRadiusNeverExceedsQueryRadius) {
  Rng rng(7);
  std::vector<Poi> pois = RandomPois(50, &rng, 600);
  SpatialServer server(pois);
  RangeProcessor range(&server);
  for (int trial = 0; trial < 40; ++trial) {
    Vec2 q{rng.Uniform(100, 500), rng.Uniform(100, 500)};
    CachedResult peer = MakePeerCache(
        &server, {q.x + rng.Uniform(-100, 100), q.y + rng.Uniform(-100, 100)}, 8);
    double r = rng.Uniform(50, 400);
    RangeOutcome out = range.Execute(q, r, {&peer});
    EXPECT_GE(out.certain_radius, 0.0);
    EXPECT_LE(out.certain_radius, r + 1e-9);
    if (out.resolution != RangeResolution::kServer) {
      EXPECT_DOUBLE_EQ(out.certain_radius, r);
    }
  }
}

TEST(RangeProcessorTest, PrunedNeverCostsMoreThanPlain) {
  Rng rng(8);
  std::vector<Poi> pois = RandomPois(2000, &rng, 1000);
  SpatialServer server(pois);
  RangeProcessor range(&server);
  for (int trial = 0; trial < 30; ++trial) {
    Vec2 q{rng.Uniform(200, 800), rng.Uniform(200, 800)};
    CachedResult peer = MakePeerCache(
        &server, {q.x + rng.Uniform(-30, 30), q.y + rng.Uniform(-30, 30)}, 20);
    RangeOutcome out = range.Execute(q, 300.0, {&peer});
    if (out.resolution == RangeResolution::kServer) {
      EXPECT_LE(out.pruned_accesses.total(), out.plain_accesses.total());
    }
  }
}

TEST(RangeProcessorTest, ZeroRadiusIsEmptyOrSelf) {
  Rng rng(9);
  std::vector<Poi> pois = RandomPois(20, &rng, 100);
  SpatialServer server(pois);
  RangeProcessor range(&server);
  RangeOutcome out = range.Execute({50, 50}, 0.0, {});
  EXPECT_EQ(Ids(out.pois), TrueRange(pois, {50, 50}, 0.0));
}

TEST(RangeResolutionTest, Names) {
  EXPECT_STREQ(RangeResolutionName(RangeResolution::kSinglePeer), "single-peer");
  EXPECT_STREQ(RangeResolutionName(RangeResolution::kServer), "server");
}

}  // namespace
}  // namespace senn::core
