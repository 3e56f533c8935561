// Pins the answering traversals' replies under arbitrary VALID requests.
//
// The differential batteries (batch_diff_test, oracle_diff_test) build
// their prune bounds the way SennProcessor ships them, and for those
// client-consistent bounds the answer is a pure function of the tree. The
// rpc server accepts anything that passes ValidateKnnRequest, though: a
// `lower` with no matching `already_certified`, an `upper` below the true
// k-th distance, an arbitrary `lower_id_cut`. For such bounds the replies
// depend on the order in which the traversal expands nodes and on when its
// dynamic bounds tighten, so this test fingerprints them — ids, distance
// bits, every AccessCounter field and the buffer pool's counters after
// every reply — for QueryKnn, QueryKnnWithRegion and AnswerBatch, over a
// uniform and a lattice-tied world, both AccessCountModes, in memory and
// over a 4-page LRU pool. The recorded values are the reference kernel's;
// a change to the traversal that moves one of them changed what the server
// answers or fetches.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/batch_server.h"
#include "src/core/server.h"
#include "src/geom/circle.h"

namespace senn::core {
namespace {

constexpr int kRequests = 240;
constexpr int kBatchSize = 40;
constexpr size_t kPoolPages = 4;

struct PinRequest {
  BatchQuery query;
  /// QueryKnnWithRegion arguments.
  double horizon = 0.0;
  std::vector<geom::Circle> region;
};

struct PinWorld {
  std::vector<Poi> pois;
  std::vector<PinRequest> requests;
};

/// Random valid bounds around the true k-th distance `dk`: each bound is
/// present independently, `lower` ignores `already_certified`, `upper` may
/// fall below dk, and the id cut is arbitrary. lower <= upper whenever both
/// are present, as ValidateKnnRequest demands.
void RandomRequest(Rng* rng, geom::Vec2 q, int n, SpatialServer* reference,
                   PinRequest* out) {
  BatchQuery& bq = out->query;
  bq.q = q;
  bq.k = static_cast<int>(rng->UniformInt(1, 20));
  bq.already_certified = static_cast<int>(rng->UniformInt(0, bq.k));
  // The reference server is in memory and used only here, so its reads
  // never touch the measured servers' pools.
  const std::vector<RankedPoi> truth = reference->QueryKnn(q, bq.k).neighbors;
  const double dk = truth.empty() ? 100.0 : truth.back().distance;
  if (rng->Bernoulli(0.6)) bq.bounds.lower = dk * rng->Uniform(0.0, 1.3);
  if (rng->Bernoulli(0.6)) bq.bounds.upper = dk * rng->Uniform(0.3, 1.5);
  if (rng->Bernoulli(0.3) && !truth.empty()) {
    // Exactly a neighbor's distance: the boundary-tie rule applies.
    bq.bounds.lower = truth[rng->NextIndex(truth.size())].distance;
  }
  if (bq.bounds.lower.has_value() && bq.bounds.upper.has_value() &&
      *bq.bounds.lower > *bq.bounds.upper) {
    std::swap(*bq.bounds.lower, *bq.bounds.upper);
  }
  if (rng->Bernoulli(0.5)) bq.bounds.lower_id_cut = rng->UniformInt(-1, n);
  out->horizon = rng->Bernoulli(0.3) ? std::numeric_limits<double>::max()
                                     : dk * rng->Uniform(0.3, 1.5);
  const int disks = static_cast<int>(rng->UniformInt(0, 3));
  for (int d = 0; d < disks; ++d) {
    const geom::Vec2 centre{q.x + rng->Uniform(-1.0, 1.0) * dk,
                            q.y + rng->Uniform(-1.0, 1.0) * dk};
    out->region.push_back({centre, dk * rng->Uniform(0.2, 1.2)});
  }
}

/// 3000 POIs over 2 km; half of the query points fall near four hot
/// centres so AnswerBatch forms clusters.
PinWorld UniformWorld() {
  PinWorld w;
  Rng rng = Rng(0x9E1Au).Stream("reply-pin-uniform", 0);
  const double side = 2000.0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) w.pois.push_back({i, {rng.Uniform(0, side), rng.Uniform(0, side)}});
  SpatialServer reference(w.pois);
  geom::Vec2 hot[4];
  for (geom::Vec2& c : hot) c = {rng.Uniform(100, side - 100), rng.Uniform(100, side - 100)};
  for (int i = 0; i < kRequests; ++i) {
    geom::Vec2 q{rng.Uniform(0, side), rng.Uniform(0, side)};
    if (rng.Bernoulli(0.5)) {
      const geom::Vec2& c = hot[rng.UniformInt(0, 3)];
      q = {c.x + rng.Uniform(-80.0, 80.0), c.y + rng.Uniform(-80.0, 80.0)};
    }
    PinRequest r;
    RandomRequest(&rng, q, n, &reference, &r);
    w.requests.push_back(std::move(r));
  }
  return w;
}

/// A 36 x 36 lattice at 25 m: query points snap to lattice points or cell
/// centres, so POI families and node MINDISTs tie exactly.
PinWorld LatticeWorld() {
  PinWorld w;
  Rng rng = Rng(0x9E1Bu).Stream("reply-pin-lattice", 0);
  const double spacing = 25.0;
  const int side = 36;
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) w.pois.push_back({r * side + c, {c * spacing, r * spacing}});
  }
  SpatialServer reference(w.pois);
  for (int i = 0; i < kRequests; ++i) {
    geom::Vec2 q{static_cast<double>(rng.UniformInt(0, side - 1)) * spacing,
                 static_cast<double>(rng.UniformInt(0, side - 1)) * spacing};
    if (rng.Bernoulli(0.5)) {
      q.x += spacing / 2.0;
      q.y += spacing / 2.0;
    }
    PinRequest r;
    RandomRequest(&rng, q, side * side, &reference, &r);
    w.requests.push_back(std::move(r));
  }
  return w;
}

void Mix(uint64_t* h, uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    *h ^= (v >> (8 * byte)) & 0xFFu;
    *h *= 0x100000001B3ull;
  }
}

void MixCounter(uint64_t* h, const rtree::AccessCounter& c) {
  for (uint64_t v : {c.index_nodes, c.leaf_nodes, c.index_misses, c.leaf_misses,
                     c.shared_misses, c.private_misses}) {
    Mix(h, v);
  }
}

void MixReply(uint64_t* h, const ServerReply& reply, const SpatialServer& server) {
  Mix(h, reply.neighbors.size());
  for (const RankedPoi& n : reply.neighbors) {
    Mix(h, static_cast<uint64_t>(n.id));
    Mix(h, std::bit_cast<uint64_t>(n.distance));
  }
  MixCounter(h, reply.einn_accesses);
  if (server.pager() != nullptr) {
    const storage::BufferPoolStats& s = server.pager()->pool().stats();
    for (uint64_t v : {s.logical, s.hits, s.misses, s.evictions}) Mix(h, v);
  }
}

std::unique_ptr<SpatialServer> MakeServer(const PinWorld& w, rtree::AccessCountMode mode,
                                          bool paged) {
  storage::BufferPoolOptions pool;
  pool.capacity_pages = kPoolPages;
  pool.policy = storage::ReplacementPolicy::kLru;
  return std::make_unique<SpatialServer>(
      w.pois, SpatialServer::DefaultTreeOptions(), mode,
      paged ? std::optional<storage::BufferPoolOptions>(pool) : std::nullopt);
}

struct Fingerprints {
  uint64_t query_knn = 0xCBF29CE484222325ull;
  uint64_t region = 0xCBF29CE484222325ull;
  uint64_t batch = 0xCBF29CE484222325ull;
};

/// One fresh server per entry point, so each fingerprint depends only on
/// its own traversal (pool residency carries from request to request).
Fingerprints Replay(const PinWorld& w, rtree::AccessCountMode mode, bool paged) {
  Fingerprints f;
  {
    auto server = MakeServer(w, mode, paged);
    for (const PinRequest& r : w.requests) {
      const BatchQuery& bq = r.query;
      MixReply(&f.query_knn, server->QueryKnn(bq.q, bq.k, bq.bounds, bq.already_certified),
               *server);
    }
  }
  {
    auto server = MakeServer(w, mode, paged);
    for (const PinRequest& r : w.requests) {
      MixReply(&f.region, server->QueryKnnWithRegion(r.query.q, r.query.k, r.horizon, r.region),
               *server);
    }
  }
  {
    auto server = MakeServer(w, mode, paged);
    BatchOptions options;
    options.cluster_cell_m = 250.0;
    options.max_group = 8;
    BatchServer batch(server.get(), options);
    for (size_t begin = 0; begin < w.requests.size(); begin += kBatchSize) {
      std::vector<BatchQuery> queries;
      for (size_t i = begin; i < std::min(w.requests.size(), begin + kBatchSize); ++i) {
        queries.push_back(w.requests[i].query);
      }
      for (const ServerReply& reply : batch.AnswerBatch(queries)) {
        MixReply(&f.batch, reply, *server);
      }
    }
    MixCounter(&f.batch, batch.stats().shared_traversal);
    Mix(&f.batch, batch.stats().clusters);
  }
  return f;
}

struct Case {
  const char* world;
  rtree::AccessCountMode mode;
  bool paged;
  Fingerprints want;
};

// Recorded from the reference kernel; regenerate only for a change that is
// MEANT to alter what the server answers or fetches, and say so. The
// lattice rows also pin the tie rule: nodes whose keys tie exactly pop in
// push order (rtree/best_first.h), and under these bounds the order of
// expansion shows in the replies. A queue that left tied nodes to the
// heap's internal layout (as a std::priority_queue holding objects beside
// nodes does) answers the uniform rows identically but not the lattice
// ones.
const Case kCases[] = {
    {"uniform", rtree::AccessCountMode::kOnExpand, false,
     {0x98464651632c2ee9ull, 0x8ed377562572ca4cull, 0x929f5c1da08aa8e5ull}},
    {"uniform", rtree::AccessCountMode::kOnExpand, true,
     {0x2056d1c5753ada41ull, 0x8bfe59c21e1a33c8ull, 0x1fee87883d26515aull}},
    {"uniform", rtree::AccessCountMode::kOnEnqueue, false,
     {0x4f1fc95763198ab1ull, 0x8ed377562572ca4cull, 0x4d1a5443fc4a610dull}},
    {"uniform", rtree::AccessCountMode::kOnEnqueue, true,
     {0xd689d2b540d45846ull, 0x8bfe59c21e1a33c8ull, 0x71805ef4a76aa25full}},
    {"lattice", rtree::AccessCountMode::kOnExpand, false,
     {0xf2bd6bf491c2251bull, 0x6c40b8276997b565ull, 0xc6a6ba4ba501b8a5ull}},
    {"lattice", rtree::AccessCountMode::kOnExpand, true,
     {0x519352c636938edcull, 0x01d7687fd3b2529eull, 0x050f61053a0d9434ull}},
    {"lattice", rtree::AccessCountMode::kOnEnqueue, false,
     {0x7f3427fd6caf5f88ull, 0x6c40b8276997b565ull, 0x565c1056535af013ull}},
    {"lattice", rtree::AccessCountMode::kOnEnqueue, true,
     {0xd6280393dbfe3442ull, 0x01d7687fd3b2529eull, 0x9dc79a50062b8cf5ull}},
};

TEST(ReplyPinTest, InconsistentBoundsRepliesMatchTheRecordedKernel) {
  const PinWorld uniform = UniformWorld();
  const PinWorld lattice = LatticeWorld();
  for (const Case& c : kCases) {
    const PinWorld& w = std::string(c.world) == "uniform" ? uniform : lattice;
    const Fingerprints got = Replay(w, c.mode, c.paged);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "{0x%016llxull, 0x%016llxull, 0x%016llxull}",
                  static_cast<unsigned long long>(got.query_knn),
                  static_cast<unsigned long long>(got.region),
                  static_cast<unsigned long long>(got.batch));
    SCOPED_TRACE(std::string(c.world) +
                 (c.mode == rtree::AccessCountMode::kOnExpand ? ", expand" : ", enqueue") +
                 (c.paged ? ", paged" : ", in memory") + ": got " + buf);
    EXPECT_EQ(got.query_knn, c.want.query_knn);
    EXPECT_EQ(got.region, c.want.region);
    EXPECT_EQ(got.batch, c.want.batch);
  }
}

}  // namespace
}  // namespace senn::core
