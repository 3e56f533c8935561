// End-to-end tests of Algorithm 1 (SENN): correctness of the final answer
// regardless of resolution path, resolution classification, bound shipping,
// and the ablation switches.
#include "src/core/senn.h"

#include <gtest/gtest.h>

#include <algorithm>

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

std::vector<RankedPoi> TrueKnn(const std::vector<Poi>& pois, Vec2 q, int k) {
  std::vector<RankedPoi> all;
  for (const Poi& p : pois) all.push_back({p.id, p.position, geom::Dist(q, p.position)});
  std::sort(all.begin(), all.end(),
            [](const RankedPoi& a, const RankedPoi& b) { return a.distance < b.distance; });
  if (static_cast<int>(all.size()) > k) all.resize(static_cast<size_t>(k));
  return all;
}

CachedResult MakePeerCache(const std::vector<Poi>& pois, Vec2 at, int cache_size) {
  CachedResult r;
  r.query_location = at;
  r.neighbors = TrueKnn(pois, at, cache_size);
  return r;
}

void ExpectSameIds(const std::vector<RankedPoi>& got, const std::vector<RankedPoi>& want,
                   const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " rank " << i;
  }
}

TEST(SennTest, NoPeersGoesToServerAndIsExact) {
  Rng rng(1);
  std::vector<Poi> pois = RandomPois(200, &rng, 1000);
  SpatialServer server(pois);
  SennOptions options;
  options.server_request_k = 10;
  SennProcessor senn(&server, options);
  Vec2 q{321, 456};
  SennOutcome outcome = senn.Execute(q, 3, {});
  EXPECT_EQ(outcome.resolution, Resolution::kServer);
  EXPECT_EQ(outcome.heap_state, HeapState::kEmpty);
  ExpectSameIds(outcome.neighbors, TrueKnn(pois, q, 3), "server path");
  // Cache policy 2: the certain prefix covers the full server request.
  EXPECT_EQ(outcome.certain_prefix.size(), 10u);
  EXPECT_FALSE(outcome.bounds.lower.has_value());
  EXPECT_FALSE(outcome.bounds.upper.has_value());
}

TEST(SennTest, ColocatedPeerSolvesLocally) {
  Rng rng(2);
  std::vector<Poi> pois = RandomPois(200, &rng, 1000);
  SpatialServer server(pois);
  SennProcessor senn(&server, SennOptions{});
  Vec2 q{500, 500};
  CachedResult peer = MakePeerCache(pois, q, 10);
  SennOutcome outcome = senn.Execute(q, 3, {&peer});
  EXPECT_EQ(outcome.resolution, Resolution::kSinglePeer);
  ExpectSameIds(outcome.neighbors, TrueKnn(pois, q, 3), "single-peer path");
  EXPECT_EQ(server.stats().queries, 0u);  // the server was never contacted
}

TEST(SennTest, AnswerAlwaysExactAcrossRandomWorlds) {
  Rng rng(3);
  int by_single = 0, by_multi = 0, by_server = 0;
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<Poi> pois = RandomPois(static_cast<int>(rng.UniformInt(5, 60)), &rng, 600);
    SpatialServer server(pois);
    SennOptions options;
    options.server_request_k = 8;
    SennProcessor senn(&server, options);
    Vec2 q{rng.Uniform(100, 500), rng.Uniform(100, 500)};
    std::vector<CachedResult> caches;
    int peer_count = static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < peer_count; ++i) {
      caches.push_back(MakePeerCache(
          pois, {q.x + rng.Uniform(-150, 150), q.y + rng.Uniform(-150, 150)}, 8));
    }
    std::vector<const CachedResult*> peers;
    for (const CachedResult& c : caches) peers.push_back(&c);
    int k = static_cast<int>(rng.UniformInt(1, 5));
    SennOutcome outcome = senn.Execute(q, k, peers);
    ExpectSameIds(outcome.neighbors, TrueKnn(pois, q, k), "random world");
    switch (outcome.resolution) {
      case Resolution::kSinglePeer:
        ++by_single;
        break;
      case Resolution::kMultiPeer:
        ++by_multi;
        break;
      case Resolution::kServer:
        ++by_server;
        break;
      case Resolution::kUncertain:
        FAIL() << "uncertain disabled";
    }
    // The cached prefix must itself be an exact rank prefix.
    std::vector<RankedPoi> truth =
        TrueKnn(pois, q, static_cast<int>(outcome.certain_prefix.size()));
    for (size_t i = 0; i < outcome.certain_prefix.size(); ++i) {
      EXPECT_EQ(outcome.certain_prefix[i].id, truth[i].id) << "prefix rank " << i;
    }
  }
  // All three resolution paths must be exercised by the mix.
  EXPECT_GT(by_single, 0);
  EXPECT_GT(by_multi, 0);
  EXPECT_GT(by_server, 0);
}

TEST(SennTest, BoundsShippedMatchHeapState) {
  Rng rng(4);
  std::vector<Poi> pois = RandomPois(300, &rng, 1000);
  SpatialServer server(pois);
  SennOptions options;
  options.server_request_k = 6;
  SennProcessor senn(&server, options);
  Vec2 q{500, 500};
  // A peer somewhat away: typically certifies some but not all.
  CachedResult peer = MakePeerCache(pois, {540, 500}, 6);
  SennOutcome outcome = senn.Execute(q, 6, {&peer});
  if (outcome.resolution == Resolution::kServer) {
    if (!outcome.certain_prefix.empty() &&
        (outcome.heap_state == HeapState::kFullMixed ||
         outcome.heap_state == HeapState::kPartialMixed ||
         outcome.heap_state == HeapState::kPartialCertainOnly)) {
      EXPECT_TRUE(outcome.bounds.lower.has_value());
    }
    EXPECT_LE(outcome.einn_accesses.total(), server.InnBaseline(q, 6).total());
  }
}

TEST(SennTest, AcceptUncertainReturnsFullHeap) {
  Rng rng(5);
  std::vector<Poi> pois = RandomPois(100, &rng, 1000);
  SpatialServer server(pois);
  SennOptions options;
  options.server_request_k = 4;
  options.accept_uncertain = true;
  SennProcessor senn(&server, options);
  Vec2 q{0, 0};
  // Far peer: uncertain candidates only; heap (capacity 4) fills with them.
  CachedResult peer = MakePeerCache(pois, {900, 900}, 6);
  SennOutcome outcome = senn.Execute(q, 4, {&peer});
  EXPECT_EQ(outcome.resolution, Resolution::kUncertain);
  EXPECT_EQ(outcome.neighbors.size(), 4u);
  EXPECT_EQ(server.stats().queries, 0u);
}

TEST(SennTest, DisablingMultiPeerFallsBackToServer) {
  Rng rng(6);
  int multi_with = 0, multi_without = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Poi> pois = RandomPois(40, &rng, 500);
    SpatialServer server(pois);
    Vec2 q{rng.Uniform(150, 350), rng.Uniform(150, 350)};
    std::vector<CachedResult> caches;
    for (int i = 0; i < 4; ++i) {
      caches.push_back(MakePeerCache(
          pois, {q.x + rng.Uniform(-60, 60), q.y + rng.Uniform(-60, 60)}, 6));
    }
    std::vector<const CachedResult*> peers;
    for (const CachedResult& c : caches) peers.push_back(&c);
    SennOptions with;
    with.server_request_k = 6;
    SennOptions without = with;
    without.enable_multi_peer = false;
    SennOutcome a = SennProcessor(&server, with).Execute(q, 4, peers);
    SennOutcome b = SennProcessor(&server, without).Execute(q, 4, peers);
    multi_with += a.resolution == Resolution::kMultiPeer;
    multi_without += b.resolution == Resolution::kMultiPeer;
    // Both must still be exact.
    ExpectSameIds(a.neighbors, TrueKnn(pois, q, 4), "with multi");
    ExpectSameIds(b.neighbors, TrueKnn(pois, q, 4), "without multi");
  }
  EXPECT_GT(multi_with, 0);
  EXPECT_EQ(multi_without, 0);
}

TEST(SennTest, KBelowServerRequestGetsFatCachePrefix) {
  Rng rng(7);
  std::vector<Poi> pois = RandomPois(100, &rng, 1000);
  SpatialServer server(pois);
  SennOptions options;
  options.server_request_k = 10;
  SennProcessor senn(&server, options);
  SennOutcome outcome = senn.Execute({500, 500}, 2, {});
  EXPECT_EQ(outcome.neighbors.size(), 2u);
  EXPECT_EQ(outcome.certain_prefix.size(), 10u);  // policy 2
}

TEST(SennTest, EmptyDatabase) {
  SpatialServer server({});
  SennProcessor senn(&server, SennOptions{});
  SennOutcome outcome = senn.Execute({0, 0}, 3, {});
  EXPECT_EQ(outcome.resolution, Resolution::kServer);
  EXPECT_TRUE(outcome.neighbors.empty());
}

TEST(SennTest, PeerOrderingAblationStillExact) {
  Rng rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Poi> pois = RandomPois(40, &rng, 500);
    SpatialServer server(pois);
    Vec2 q{rng.Uniform(100, 400), rng.Uniform(100, 400)};
    std::vector<CachedResult> caches;
    for (int i = 0; i < 4; ++i) {
      caches.push_back(MakePeerCache(
          pois, {rng.Uniform(0, 500), rng.Uniform(0, 500)}, 6));
    }
    std::vector<const CachedResult*> peers;
    for (const CachedResult& c : caches) peers.push_back(&c);
    SennOptions unsorted;
    unsorted.sort_peers = false;
    unsorted.server_request_k = 6;
    SennOutcome outcome = SennProcessor(&server, unsorted).Execute(q, 3, peers);
    ExpectSameIds(outcome.neighbors, TrueKnn(pois, q, 3), "unsorted peers");
  }
}

// A ServerLink that counts each kind of call and forwards it to a server.
class CountingLink final : public ServerLink {
 public:
  explicit CountingLink(SpatialServer* server) : server_(server) {}

  ServerReply QueryKnn(Vec2 q, int k, rtree::PruneBounds bounds, int already_certified,
                       obs::QueryTracer* tracer) override {
    ++knn;
    return server_->QueryKnn(q, k, bounds, already_certified, tracer);
  }
  ServerReply QueryKnnWithRegion(Vec2 q, int k, double horizon,
                                 const std::vector<geom::Circle>& region,
                                 obs::QueryTracer* tracer) override {
    ++region_knn;
    return server_->QueryKnnWithRegion(q, k, horizon, region, tracer);
  }
  ServerReply QueryRivals(Vec2 q, double radius) override {
    ++rivals;
    return server_->QueryRivals(q, radius);
  }
  int calls() const { return knn + region_knn + rivals; }

  int knn = 0;
  int region_knn = 0;
  int rivals = 0;

 private:
  SpatialServer* server_;
};

TEST(SennTest, PrepareNeverContactsTheServer) {
  // Prepare owes the contact and Contact makes exactly one call of the
  // protocol's kind, for the scalar protocol and for ship_region, whose
  // bounded heaps (an upper bound exists) ask for the region call.
  Rng rng(11);
  std::vector<Poi> pois = RandomPois(400, &rng, 1000);
  SpatialServer server(pois);
  for (bool ship_region : {false, true}) {
    SCOPED_TRACE(ship_region ? "ship_region" : "scalar");
    SennOptions options;
    options.server_request_k = 6;
    options.ship_region = ship_region;
    CountingLink link(&server);
    SennProcessor senn(&link, options);
    int region_contacts = 0;
    int scalar_contacts = 0;
    for (int trial = 0; trial < 200; ++trial) {
      const Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
      std::vector<CachedResult> caches;
      const int peers = static_cast<int>(rng.UniformInt(0, 3));
      for (int i = 0; i < peers; ++i) {
        caches.push_back(MakePeerCache(
            pois, {q.x + rng.Uniform(-120, 120), q.y + rng.Uniform(-120, 120)}, 6));
      }
      std::vector<const CachedResult*> ptrs;
      for (const CachedResult& c : caches) ptrs.push_back(&c);

      PendingSenn pending = senn.Prepare(q, 4, ptrs);
      ASSERT_EQ(link.calls(), 0) << "trial " << trial;
      if (!pending.needs_server) continue;
      const bool bounded = pending.outcome.bounds.upper.has_value();
      EXPECT_EQ(!pending.region.empty(), ship_region && bounded) << "trial " << trial;
      senn.Finish(&pending, senn.Contact(pending));
      EXPECT_EQ(link.calls(), 1) << "trial " << trial;
      EXPECT_EQ(link.rivals, 0);
      region_contacts += link.region_knn;
      scalar_contacts += link.knn;
      link.knn = link.region_knn = 0;
      ExpectSameIds(pending.outcome.neighbors, TrueKnn(pois, q, 4), "contacted");
    }
    EXPECT_GT(scalar_contacts, 0);
    if (ship_region) {
      EXPECT_GT(region_contacts, 0);
    } else {
      EXPECT_EQ(region_contacts, 0);
    }
  }
}

TEST(SennTest, RegionRequestShipsTheNearestPeersDisksUpToTheCap) {
  // More peers than one region request carries, none near enough to
  // certify: the request ships the disks of the kMaxRegionDisks nearest
  // (Heuristic 3.3 order), and the answer stays exact.
  Rng rng(12);
  std::vector<Poi> pois = RandomPois(400, &rng, 1000);
  SpatialServer server(pois);
  SennOptions options;
  options.server_request_k = 6;
  options.ship_region = true;
  SennProcessor senn(&server, options);
  int region_contacts = 0;
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    const Vec2 q{rng.Uniform(300, 700), rng.Uniform(300, 700)};
    std::vector<CachedResult> caches;
    while (caches.size() < static_cast<size_t>(kMaxRegionDisks) + 10) {
      const Vec2 at{q.x + rng.Uniform(-300, 300), q.y + rng.Uniform(-300, 300)};
      if (geom::Dist(q, at) >= 150) caches.push_back(MakePeerCache(pois, at, 3));
    }
    std::vector<const CachedResult*> ptrs;
    for (const CachedResult& c : caches) ptrs.push_back(&c);

    PendingSenn pending = senn.Prepare(q, 4, ptrs);
    if (!pending.needs_server || pending.region.empty()) continue;
    ++region_contacts;
    ASSERT_EQ(pending.region.size(), static_cast<size_t>(kMaxRegionDisks));
    std::vector<const CachedResult*> nearest = ptrs;
    std::stable_sort(nearest.begin(), nearest.end(),
                     [&](const CachedResult* a, const CachedResult* b) {
                       return geom::Dist2(q, a->query_location) <
                              geom::Dist2(q, b->query_location);
                     });
    for (size_t i = 0; i < pending.region.size(); ++i) {
      EXPECT_EQ(pending.region[i].center.x, nearest[i]->query_location.x);
      EXPECT_EQ(pending.region[i].center.y, nearest[i]->query_location.y);
      EXPECT_EQ(pending.region[i].radius, nearest[i]->Radius());
    }
    senn.Finish(&pending, senn.Contact(pending));
    ExpectSameIds(pending.outcome.neighbors, TrueKnn(pois, q, 4), "capped region");
  }
  EXPECT_GT(region_contacts, 0);
}

}  // namespace
}  // namespace senn::core
