// Regression tests for deterministic tie-breaking: every comparator in the
// query path ranks POIs by the shared (distance, id) strict weak order
// (core::RanksBefore), so co-distant objects never depend on insertion
// order, peer arrival order, or R*-tree exploration order.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/candidate_heap.h"
#include "src/core/senn.h"
#include "src/core/server.h"
#include "src/core/single_peer.h"
#include "src/core/types.h"
#include "src/rtree/knn.h"
#include "src/rtree/rstar_tree.h"

namespace senn::core {
namespace {

constexpr double kTie = 60.0;  // the four co-distant POIs sit at this radius

/// Query point plus four POIs at identical distance kTie (ids 0..3) and a
/// ring of filler POIs further out. Every distance is exact in binary
/// (axis-aligned offsets), so the ties are real, not approximate.
struct TieWorld {
  geom::Vec2 q{500.0, 500.0};
  std::vector<Poi> pois;
  std::unique_ptr<SpatialServer> server;
  std::vector<CachedResult> peer_caches;
};

TieWorld BuildTieWorld() {
  TieWorld w;
  w.pois.push_back({0, {w.q.x + kTie, w.q.y}});
  w.pois.push_back({1, {w.q.x, w.q.y + kTie}});
  w.pois.push_back({2, {w.q.x - kTie, w.q.y}});
  w.pois.push_back({3, {w.q.x, w.q.y - kTie}});
  // Fillers well outside the tie radius, at pairwise-distinct distances.
  w.pois.push_back({4, {w.q.x + 200.0, w.q.y}});
  w.pois.push_back({5, {w.q.x, w.q.y + 230.0}});
  w.pois.push_back({6, {w.q.x - 260.0, w.q.y}});
  w.pois.push_back({7, {w.q.x, w.q.y - 290.0}});
  w.server = std::make_unique<SpatialServer>(w.pois);
  // Four peers just off Q in each direction; each caches the exact server
  // answer at its own location (the CachedResult invariant), large enough
  // that its certain disk around Q spans the tie radius.
  const geom::Vec2 peer_locs[4] = {{w.q.x + 30.0, w.q.y},
                                   {w.q.x, w.q.y + 30.0},
                                   {w.q.x - 30.0, w.q.y},
                                   {w.q.x, w.q.y - 30.0}};
  for (const geom::Vec2& loc : peer_locs) {
    CachedResult cached;
    cached.query_location = loc;
    cached.neighbors = w.server->QueryKnn(loc, 6).neighbors;
    w.peer_caches.push_back(std::move(cached));
  }
  return w;
}

void ExpectSameRanking(const std::vector<RankedPoi>& got, const std::vector<RankedPoi>& want,
                       const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << ", rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << what << ", rank " << i;
  }
}

TEST(TieBreakTest, ServerKnnRanksCoDistantPoisById) {
  TieWorld w = BuildTieWorld();
  // k=2 cuts through the four-way tie: only the two smallest ids survive.
  ServerReply reply = w.server->QueryKnn(w.q, 2);
  ASSERT_EQ(reply.neighbors.size(), 2u);
  EXPECT_EQ(reply.neighbors[0].id, 0);
  EXPECT_EQ(reply.neighbors[1].id, 1);
  // k=4 returns all four, ascending by id.
  reply = w.server->QueryKnn(w.q, 4);
  ASSERT_EQ(reply.neighbors.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(reply.neighbors[static_cast<size_t>(i)].id, i);
}

TEST(TieBreakTest, RtreeSearchesRankCoDistantObjectsById) {
  // Straight at the R*-tree layer, with enough objects to force real node
  // structure. Insertion order is adversarial (descending id).
  TieWorld w = BuildTieWorld();
  std::vector<Poi> pois = w.pois;
  for (int i = 8; i < 64; ++i) {
    pois.push_back({i, {w.q.x + 150.0 + 3.0 * i, w.q.y + 2.0 * i}});
  }
  rtree::RStarTree tree;
  for (auto it = pois.rbegin(); it != pois.rend(); ++it) tree.Insert(it->position, it->id);
  const rtree::PackedTree packed = rtree::Pack(tree);
  std::vector<rtree::Neighbor> df = rtree::DepthFirstKnn(packed, w.q, 3);
  std::vector<rtree::Neighbor> bf = rtree::BestFirstKnn(packed, w.q, 3);
  ASSERT_EQ(df.size(), 3u);
  ASSERT_EQ(bf.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(df[static_cast<size_t>(i)].object.id, i) << "depth-first rank " << i;
    EXPECT_EQ(bf[static_cast<size_t>(i)].object.id, i) << "best-first rank " << i;
  }
}

TEST(TieBreakTest, HeapIdenticalUnderShuffledPeerHarvest) {
  // The four co-distant POIs arrive from peers in every possible order; the
  // candidate heap must end up byte-for-byte identical each time.
  TieWorld w = BuildTieWorld();
  std::vector<size_t> order = {0, 1, 2, 3};
  std::vector<RankedPoi> baseline_certain, baseline_uncertain;
  bool first = true;
  do {
    CandidateHeap heap(3);
    for (size_t p : order) VerifySinglePeer(w.q, w.peer_caches[p], &heap);
    heap.AssertInvariants();
    if (first) {
      baseline_certain = heap.certain();
      baseline_uncertain = heap.uncertain();
      first = false;
      // The tie must actually be cut: rank 3 excludes exactly id 3.
      ASSERT_GE(baseline_certain.size(), 3u);
      for (int i = 0; i < 3; ++i) EXPECT_EQ(baseline_certain[static_cast<size_t>(i)].id, i);
    } else {
      ExpectSameRanking(heap.certain(), baseline_certain, "certain under shuffle");
      ExpectSameRanking(heap.uncertain(), baseline_uncertain, "uncertain under shuffle");
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(TieBreakTest, SennReportIdenticalUnderShuffledPeerOrder) {
  TieWorld w = BuildTieWorld();
  for (bool sort_peers : {true, false}) {
    SennOptions options;
    options.server_request_k = 6;
    options.sort_peers = sort_peers;
    SennProcessor processor(w.server.get(), options);

    std::vector<size_t> order = {0, 1, 2, 3};
    SennOutcome baseline;
    bool first = true;
    do {
      std::vector<const CachedResult*> peers;
      for (size_t p : order) peers.push_back(&w.peer_caches[p]);
      SennOutcome outcome = processor.Execute(w.q, 3, peers);
      if (first) {
        baseline = outcome;
        first = false;
        ASSERT_EQ(baseline.neighbors.size(), 3u) << "sort_peers=" << sort_peers;
        for (int i = 0; i < 3; ++i) EXPECT_EQ(baseline.neighbors[static_cast<size_t>(i)].id, i);
      } else {
        EXPECT_EQ(outcome.resolution, baseline.resolution) << "sort_peers=" << sort_peers;
        EXPECT_EQ(outcome.heap_state, baseline.heap_state) << "sort_peers=" << sort_peers;
        ExpectSameRanking(outcome.neighbors, baseline.neighbors, "SENN neighbors");
        ExpectSameRanking(outcome.certain_prefix, baseline.certain_prefix,
                          "SENN certain prefix");
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

}  // namespace
}  // namespace senn::core
