#include "src/core/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <type_traits>

#include "src/common/rng.h"
#include "src/storage/page.h"

namespace senn::core {
namespace {

using geom::Vec2;

std::vector<Poi> RandomPois(int n, Rng* rng, double extent = 1000.0) {
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

TEST(SpatialServerTest, BuildsTreeWithPaperBranchingFactor) {
  Rng rng(1);
  SpatialServer server(RandomPois(500, &rng));
  EXPECT_EQ(server.poi_count(), 500u);
  EXPECT_EQ(server.tree().options().max_entries, 30);
  EXPECT_TRUE(server.tree().CheckInvariants().ok());
}

// The storage engine points at the server's tree, so a server cannot be
// copied or moved away from it.
static_assert(!std::is_copy_constructible_v<SpatialServer>);
static_assert(!std::is_move_constructible_v<SpatialServer>);
static_assert(!std::is_move_assignable_v<SpatialServer>);

// The tree is the server's only copy of the POIs: the count survives the
// construction whether the caller moves its set in or keeps it.
TEST(SpatialServerTest, PoiCountSurvivesConstruction) {
  Rng rng(9);
  const std::vector<Poi> pois = RandomPois(1234, &rng);
  SpatialServer copied(pois);
  EXPECT_EQ(pois.size(), 1234u);
  EXPECT_EQ(copied.poi_count(), 1234u);
  EXPECT_EQ(copied.tree().size(), 1234u);

  std::vector<Poi> owned = pois;
  SpatialServer moved(std::move(owned));
  EXPECT_EQ(moved.poi_count(), 1234u);
  EXPECT_EQ(moved.tree().size(), 1234u);
  EXPECT_EQ(moved.QueryKnn({500, 500}, 9), copied.QueryKnn({500, 500}, 9));

  SpatialServer empty({});
  EXPECT_EQ(empty.poi_count(), 0u);
  EXPECT_TRUE(empty.QueryKnn({0, 0}, 3).neighbors.empty());
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

bool SamePoint(Vec2 p, Vec2 q) { return Bits(p.x) == Bits(q.x) && Bits(p.y) == Bits(q.y); }

void ExpectSameTree(const rtree::PackedTree& a, const rtree::PackedTree& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.size(), b.size());
  for (rtree::NodeId id = 0; id < a.node_count(); ++id) {
    const rtree::PackedTree::Node& x = a.node(id);
    const rtree::PackedTree::Node& y = b.node(id);
    ASSERT_EQ(x.first, y.first) << id;
    ASSERT_EQ(x.count, y.count) << id;
    ASSERT_EQ(x.level, y.level) << id;
    if (x.IsLeaf()) {
      for (uint32_t i = 0; i < x.count; ++i) {
        EXPECT_TRUE(SamePoint(a.objects(x)[i].position, b.objects(y)[i].position)) << id;
        EXPECT_EQ(a.objects(x)[i].id, b.objects(y)[i].id) << id;
      }
      continue;
    }
    for (uint32_t i = 0; i < x.count; ++i) {
      EXPECT_TRUE(SamePoint(a.branches(x)[i].mbr.lo, b.branches(y)[i].mbr.lo)) << id;
      EXPECT_TRUE(SamePoint(a.branches(x)[i].mbr.hi, b.branches(y)[i].mbr.hi)) << id;
      EXPECT_EQ(a.branches(x)[i].child, b.branches(y)[i].child) << id;
    }
  }
}

// The entries constructor and the POI constructor build the same server:
// the same node, branch and object arrays, and the same replies in memory
// and through a small LRU pool. The world holds every position three
// times, every seventh position has x = +0.0 or -0.0, and ids are shuffled
// against input order.
TEST(SpatialServerTest, EntryAndPoiConstructorsBuildTheSameServer) {
  Rng rng(10);
  std::vector<Poi> pois;
  for (int i = 0; i < 2000; ++i) {
    Vec2 p{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    if (i % 7 == 0) p.x = (i % 2 == 0) ? 0.0 : -0.0;
    for (int copy = 0; copy < 3; ++copy) pois.push_back({0, p});
  }
  std::vector<PoiId> ids(pois.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<PoiId>(i);
  rng.Shuffle(&ids);
  for (size_t i = 0; i < pois.size(); ++i) pois[i].id = ids[i];
  std::vector<rtree::ObjectEntry> entries;
  for (const Poi& poi : pois) entries.push_back({poi.position, poi.id});

  storage::BufferPoolOptions pool;
  pool.capacity_pages = 8;
  pool.policy = storage::ReplacementPolicy::kLru;
  for (const std::optional<storage::BufferPoolOptions>& storage :
       {std::optional<storage::BufferPoolOptions>(), std::optional(pool)}) {
    SpatialServer from_entries(entries, SpatialServer::DefaultTreeOptions(),
                               rtree::AccessCountMode::kOnExpand, storage);
    SpatialServer from_pois(pois, SpatialServer::DefaultTreeOptions(),
                            rtree::AccessCountMode::kOnExpand, storage);
    EXPECT_EQ(from_entries.poi_count(), pois.size());
    EXPECT_EQ(from_entries.poi_count(), from_pois.poi_count());
    ExpectSameTree(from_entries.tree(), from_pois.tree());
    for (int trial = 0; trial < 60; ++trial) {
      Vec2 q{rng.Uniform(-50, 1050), rng.Uniform(-50, 1050)};
      const int k = 1 + static_cast<int>(rng.NextIndex(12));
      const ServerReply a = from_entries.QueryKnn(q, k);
      const ServerReply b = from_pois.QueryKnn(q, k);
      ASSERT_EQ(a, b) << trial;
      for (size_t i = 0; i < a.neighbors.size(); ++i) {
        EXPECT_TRUE(SamePoint(a.neighbors[i].position, b.neighbors[i].position)) << trial;
        EXPECT_EQ(Bits(a.neighbors[i].distance), Bits(b.neighbors[i].distance)) << trial;
      }
    }
    EXPECT_EQ(from_entries.stats().einn, from_pois.stats().einn);
  }
}

TEST(SpatialServerTest, PlainQueryMatchesBruteForce) {
  Rng rng(2);
  std::vector<Poi> pois = RandomPois(800, &rng);
  SpatialServer server(pois);
  for (int trial = 0; trial < 30; ++trial) {
    Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    ServerReply reply = server.QueryKnn(q, 7);
    std::vector<RankedPoi> want = TrueKnn(pois, q, 7);
    ASSERT_EQ(reply.neighbors.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(reply.neighbors[i].id, want[i].id) << "trial " << trial << " rank " << i;
    }
  }
}

TEST(SpatialServerTest, BoundsProduceSameMergedAnswer) {
  Rng rng(3);
  std::vector<Poi> pois = RandomPois(800, &rng);
  SpatialServer server(pois);
  for (int trial = 0; trial < 30; ++trial) {
    Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    std::vector<RankedPoi> want = TrueKnn(pois, q, 10);
    int certified = 4;
    rtree::PruneBounds bounds;
    bounds.lower = want[static_cast<size_t>(certified - 1)].distance;
    bounds.upper = want.back().distance;
    ServerReply reply = server.QueryKnn(q, 10, bounds, certified);
    ASSERT_EQ(reply.neighbors.size(), static_cast<size_t>(10 - certified));
    for (size_t i = 0; i < reply.neighbors.size(); ++i) {
      EXPECT_EQ(reply.neighbors[i].id, want[i + static_cast<size_t>(certified)].id);
    }
  }
}

TEST(SpatialServerTest, EinnNeverAccessesMorePagesThanInn) {
  Rng rng(4);
  std::vector<Poi> pois = RandomPois(3000, &rng);
  SpatialServer server(pois);
  uint64_t inn_total = 0;
  for (int trial = 0; trial < 50; ++trial) {
    Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    std::vector<RankedPoi> want = TrueKnn(pois, q, 12);
    rtree::PruneBounds bounds;
    bounds.lower = want[5].distance;
    bounds.upper = want.back().distance;
    ServerReply reply = server.QueryKnn(q, 12, bounds, 6);
    const rtree::AccessCounter inn = server.InnBaseline(q, 12);
    EXPECT_LE(reply.einn_accesses.total(), inn.total()) << trial;
    inn_total += inn.total();
  }
  EXPECT_LE(server.stats().einn.total(), inn_total);
  EXPECT_EQ(server.stats().queries, 50u);
}

TEST(SpatialServerTest, KLargerThanDataSet) {
  Rng rng(5);
  std::vector<Poi> pois = RandomPois(5, &rng);
  SpatialServer server(pois);
  ServerReply reply = server.QueryKnn({0, 0}, 10);
  EXPECT_EQ(reply.neighbors.size(), 5u);
}

TEST(SpatialServerTest, AlreadyCertifiedExceedsK) {
  Rng rng(6);
  SpatialServer server(RandomPois(100, &rng));
  ServerReply reply = server.QueryKnn({500, 500}, 3, {}, 5);
  EXPECT_TRUE(reply.neighbors.empty());
}

TEST(SpatialServerTest, ResetStatsClearsCounters) {
  Rng rng(7);
  SpatialServer server(RandomPois(100, &rng));
  server.QueryKnn({1, 1}, 3);
  EXPECT_GT(server.stats().queries, 0u);
  server.ResetStats();
  EXPECT_EQ(server.stats().queries, 0u);
  EXPECT_EQ(server.stats().einn.total(), 0u);
}

bool SamePoolStats(const storage::BufferPoolStats& a, const storage::BufferPoolStats& b) {
  return a.logical == b.logical && a.hits == b.hits && a.misses == b.misses &&
         a.evictions == b.evictions;
}

// The INN baseline is hypothetical work: on a paged server it must neither
// warm nor thrash the pool nor count as a query, and its counts must be the
// unpaged server's. Bound-free EINN never needs more pages than it.
TEST(SpatialServerTest, InnBaselineIsPoolNeutralAndMatchesUnpagedServer) {
  Rng rng(8);
  std::vector<Poi> pois = RandomPois(3000, &rng);
  storage::BufferPoolOptions pool;
  pool.capacity_pages = 8;
  pool.policy = storage::ReplacementPolicy::kLru;
  for (rtree::AccessCountMode mode :
       {rtree::AccessCountMode::kOnExpand, rtree::AccessCountMode::kOnEnqueue}) {
    SpatialServer paged(pois, SpatialServer::DefaultTreeOptions(), mode, pool);
    SpatialServer unpaged(pois, SpatialServer::DefaultTreeOptions(), mode);
    for (int trial = 0; trial < 40; ++trial) {
      Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
      const int k = 1 + static_cast<int>(rng.NextIndex(20));
      // Answer first so the pool holds this query's pages when the baseline
      // runs: a baseline that went through the pool would register hits.
      const ServerReply reply = paged.QueryKnn(q, k);
      const storage::BufferPoolStats pool_before = paged.pager()->pool().stats();
      const ServerStats stats_before = paged.stats();

      const rtree::AccessCounter inn = paged.InnBaseline(q, k);
      EXPECT_TRUE(SamePoolStats(paged.pager()->pool().stats(), pool_before)) << trial;
      EXPECT_EQ(paged.stats().queries, stats_before.queries) << trial;
      EXPECT_EQ(paged.stats().einn, stats_before.einn) << trial;

      EXPECT_EQ(inn, unpaged.InnBaseline(q, k)) << trial;
      EXPECT_EQ(inn.misses(), 0u) << trial;
      EXPECT_LE(reply.einn_accesses.total(), inn.total()) << trial;
    }
    EXPECT_EQ(unpaged.stats().queries, 0u);
  }
}

}  // namespace
}  // namespace senn::core
