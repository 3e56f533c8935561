// Metamorphic test for the server under paging: the storage engine is a
// pure observer of the traversals. Across pool sizes {2, 8, unbounded} and
// both replacement policies — and against a server with no storage engine
// at all — every query (kNN, range and region kNN) must return the
// identical result set with identical LOGICAL page-access counts; only the
// physical miss counters may differ, and those never exceed the logical
// count.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/core/range.h"
#include "src/core/server.h"
#include "src/geom/circle.h"
#include "src/storage/page.h"

namespace senn::core {
namespace {

struct ServerVariant {
  const char* label;
  std::unique_ptr<SpatialServer> server;
};

std::vector<ServerVariant> MakeVariants(const std::vector<Poi>& pois,
                                        rtree::AccessCountMode mode) {
  auto make = [&](std::optional<storage::BufferPoolOptions> options) {
    return std::make_unique<SpatialServer>(pois, SpatialServer::DefaultTreeOptions(), mode,
                                           options);
  };
  auto opts = [](size_t pages, storage::ReplacementPolicy policy) {
    storage::BufferPoolOptions o;
    o.capacity_pages = pages;
    o.policy = policy;
    return o;
  };
  std::vector<ServerVariant> variants;
  variants.push_back({"no-storage", make(std::nullopt)});
  variants.push_back({"unbounded-lru", make(opts(0, storage::ReplacementPolicy::kLru))});
  variants.push_back({"2-lru", make(opts(2, storage::ReplacementPolicy::kLru))});
  variants.push_back({"8-lru", make(opts(8, storage::ReplacementPolicy::kLru))});
  variants.push_back({"2-clock", make(opts(2, storage::ReplacementPolicy::kClock))});
  variants.push_back({"8-clock", make(opts(8, storage::ReplacementPolicy::kClock))});
  return variants;
}

// `expected_baseline`/`got_baseline` are the comparison runs for the same
// query (SpatialServer::InnBaseline for kNN, the unpruned scan for range).
void ExpectSameAnswer(const ServerReply& expected, const ServerReply& got,
                      const rtree::AccessCounter& expected_baseline,
                      const rtree::AccessCounter& got_baseline, const char* label) {
  ASSERT_EQ(expected.neighbors.size(), got.neighbors.size()) << label;
  for (size_t i = 0; i < expected.neighbors.size(); ++i) {
    EXPECT_EQ(expected.neighbors[i].id, got.neighbors[i].id) << label << " rank " << i;
    EXPECT_EQ(expected.neighbors[i].distance, got.neighbors[i].distance)
        << label << " rank " << i;
  }
  // The paper's metric: logical accesses are pool-independent.
  EXPECT_EQ(expected.einn_accesses.total(), got.einn_accesses.total()) << label;
  EXPECT_EQ(expected_baseline.total(), got_baseline.total()) << label;
  // Only the physical misses may differ, bounded by the logical count. The
  // comparison run bypasses the pool in every variant.
  EXPECT_LE(got.einn_accesses.misses(), got.einn_accesses.total()) << label;
  EXPECT_EQ(got_baseline.misses(), 0u) << label;
}

TEST(PagingMetamorphicTest, ResultsAndLogicalCountsAreIdenticalAcrossPools) {
  constexpr double kSide = 2000.0;
  for (uint64_t world = 0; world < 100; ++world) {
    Rng rng(1000 + world);
    const int poi_count = 50 + static_cast<int>(rng.NextIndex(351));  // 50..400
    std::vector<Poi> pois;
    pois.reserve(static_cast<size_t>(poi_count));
    for (int i = 0; i < poi_count; ++i) {
      pois.push_back({i, {rng.Uniform(0, kSide), rng.Uniform(0, kSide)}});
    }
    // Alternate the accounting mode: kOnEnqueue holds the expanding node
    // pinned while fetching each child, so it exercises the two-pin floor
    // of the capacity-2 pools.
    const rtree::AccessCountMode mode = world % 2 == 0
                                            ? rtree::AccessCountMode::kOnExpand
                                            : rtree::AccessCountMode::kOnEnqueue;
    std::vector<ServerVariant> variants = MakeVariants(pois, mode);

    // A few kNN queries, some with EINN bounds, plus range queries.
    for (int trial = 0; trial < 4; ++trial) {
      geom::Vec2 q{rng.Uniform(0, kSide), rng.Uniform(0, kSide)};
      const int k = 1 + static_cast<int>(rng.NextIndex(10));
      rtree::PruneBounds bounds;
      if (rng.Bernoulli(0.5)) bounds.lower = rng.Uniform(0, kSide / 10.0);
      if (rng.Bernoulli(0.5)) bounds.upper = rng.Uniform(kSide / 10.0, kSide / 2.0);
      ServerReply expected = variants[0].server->QueryKnn(q, k, bounds);
      const rtree::AccessCounter expected_inn = variants[0].server->InnBaseline(q, k);
      for (size_t v = 1; v < variants.size(); ++v) {
        SCOPED_TRACE(testing::Message() << "world " << world << " knn trial " << trial);
        ServerReply got = variants[v].server->QueryKnn(q, k, bounds);
        ExpectSameAnswer(expected, got, expected_inn, variants[v].server->InnBaseline(q, k),
                         variants[v].label);
        if (HasFatalFailure()) return;
      }
    }
    for (int trial = 0; trial < 2; ++trial) {
      geom::Vec2 q{rng.Uniform(0, kSide), rng.Uniform(0, kSide)};
      const double radius = rng.Uniform(kSide / 20.0, kSide / 4.0);
      const double inner = rng.Bernoulli(0.5) ? rng.Uniform(0, radius / 2.0) : 0.0;
      auto plain_scan = [&](const SpatialServer& server) {
        rtree::AccessCounter counter;
        PrunedCircleQuery(server.tree(), q, radius, 0.0, &counter);
        return counter;
      };
      ServerReply expected = variants[0].server->QueryRange(q, radius, inner);
      const rtree::AccessCounter expected_plain = plain_scan(*variants[0].server);
      for (size_t v = 1; v < variants.size(); ++v) {
        SCOPED_TRACE(testing::Message() << "world " << world << " range trial " << trial);
        ServerReply got = variants[v].server->QueryRange(q, radius, inner);
        ExpectSameAnswer(expected, got, expected_plain, plain_scan(*variants[v].server),
                         variants[v].label);
        if (HasFatalFailure()) return;
      }
    }
    // Region kNN (the --ship-region contact): a few seeded peer disks near
    // q and a horizon, as SennProcessor::Prepare ships them. Its traversal
    // holds the expanding node pinned like the others, so the 2-frame
    // pools check it releases every pin.
    for (int trial = 0; trial < 2; ++trial) {
      geom::Vec2 q{rng.Uniform(0, kSide), rng.Uniform(0, kSide)};
      const int k = 1 + static_cast<int>(rng.NextIndex(10));
      const double horizon = rng.Uniform(kSide / 10.0, kSide / 2.0);
      std::vector<geom::Circle> region;
      const int peers = 1 + static_cast<int>(rng.NextIndex(4));
      for (int p = 0; p < peers; ++p) {
        const geom::Vec2 center{q.x + rng.Uniform(-kSide / 10.0, kSide / 10.0),
                                q.y + rng.Uniform(-kSide / 10.0, kSide / 10.0)};
        region.emplace_back(center, rng.Uniform(kSide / 40.0, kSide / 8.0));
      }
      ServerReply expected = variants[0].server->QueryKnnWithRegion(q, k, horizon, region);
      const rtree::AccessCounter expected_inn = variants[0].server->InnBaseline(q, k);
      for (size_t v = 1; v < variants.size(); ++v) {
        SCOPED_TRACE(testing::Message() << "world " << world << " region trial " << trial);
        ServerReply got = variants[v].server->QueryKnnWithRegion(q, k, horizon, region);
        ExpectSameAnswer(expected, got, expected_inn, variants[v].server->InnBaseline(q, k),
                         variants[v].label);
        if (HasFatalFailure()) return;
      }
    }

    // No traversal leaks a pin.
    for (const ServerVariant& v : variants) {
      if (v.server->pager() != nullptr) {
        EXPECT_EQ(v.server->pager()->pool().pinned_pages(), 0u) << v.label;
      }
    }
  }
}

TEST(PagingMetamorphicTest, UnboundedPoolMissesExactlyThePagesItFirstTouches) {
  Rng rng(7);
  std::vector<Poi> pois;
  for (int i = 0; i < 300; ++i) {
    pois.push_back({i, {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}});
  }
  SpatialServer server(pois, SpatialServer::DefaultTreeOptions(),
                       rtree::AccessCountMode::kOnExpand,
                       storage::BufferPoolOptions{});
  for (int trial = 0; trial < 30; ++trial) {
    geom::Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    server.QueryKnn(q, 5);
  }
  const storage::BufferPoolStats& st = server.pager()->pool().stats();
  // Every miss is a distinct page faulted in exactly once.
  EXPECT_EQ(st.misses, server.pager()->pool().resident_pages());
  EXPECT_EQ(st.logical, st.hits + st.misses);
  EXPECT_LE(st.misses, server.tree().node_count());
}

}  // namespace
}  // namespace senn::core
