// Pins the batched path's page accounting, not just its answers.
//
// batch_diff_test proves every batched reply's NEIGHBORS equal the
// sequential ones, but a change to the shared traversal that fetched one
// page too many (or too few), charged a page to the wrong query, or
// classified a miss shared instead of private would still pass it. This
// test replays fixed seeded worlds — hotspot-skewed and lattice-tied POIs,
// a small LRU pool so evictions happen mid-traversal, both
// AccessCountModes, max_group 8 and 32 — and compares every reply's
// einn_accesses (total, misses, shared misses, folded in reply order into
// a fingerprint), the BatchStats::shared_traversal counter and the pool's
// own counters against values recorded from the reference kernel. The
// numbers are a pure function of the world, the batch stream and the
// kernel's fetch sequence, so any drift is a change in what the kernel
// charges, never noise.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/batch_server.h"
#include "src/core/server.h"
#include "tests/core/batch_test_util.h"

namespace senn::core {
namespace {

using batch_testing::ConsistentBounds;

constexpr int kBatches = 3;
constexpr int kQueriesPerBatch = 40;
constexpr size_t kPoolPages = 8;

struct AccountingWorld {
  std::vector<Poi> pois;
  /// kBatches request groups, answered in order by one BatchServer so pool
  /// residency carries from batch to batch.
  std::vector<std::vector<BatchQuery>> batches;
};

/// Bounds come from an unpaged server so building the requests leaves the
/// measured server's pool and stats untouched.
void MaybeBound(SpatialServer* bounds_server, Rng* rng, geom::Vec2 peer_loc,
                BatchQuery* bq) {
  if (bq->k > 0 && rng->Bernoulli(0.66)) {
    ConsistentBounds(bounds_server, bq->q, bq->k, peer_loc,
                     static_cast<int>(rng->UniformInt(1, 12)), bq);
  }
}

/// 2500 POIs over 2 km, 60 % of them inside three 150 m hot squares; 80 %
/// of the query points within 60 m of a hot centre.
AccountingWorld HotspotWorld() {
  AccountingWorld w;
  Rng rng = Rng(0xACC0u).Stream("accounting-hot", 0);
  const double side = 2000.0;
  geom::Vec2 hot[3];
  for (geom::Vec2& c : hot) c = {rng.Uniform(200, side - 200), rng.Uniform(200, side - 200)};
  for (int i = 0; i < 2500; ++i) {
    geom::Vec2 p{rng.Uniform(0, side), rng.Uniform(0, side)};
    if (rng.Bernoulli(0.6)) {
      const geom::Vec2& c = hot[rng.UniformInt(0, 2)];
      p = {c.x + rng.Uniform(-150.0, 150.0), c.y + rng.Uniform(-150.0, 150.0)};
    }
    w.pois.push_back({i, p});
  }
  SpatialServer bounds_server(w.pois);
  for (int b = 0; b < kBatches; ++b) {
    std::vector<BatchQuery> batch;
    for (int i = 0; i < kQueriesPerBatch; ++i) {
      BatchQuery bq;
      if (rng.Bernoulli(0.8)) {
        const geom::Vec2& c = hot[rng.UniformInt(0, 2)];
        bq.q = {c.x + rng.Uniform(-60.0, 60.0), c.y + rng.Uniform(-60.0, 60.0)};
      } else {
        bq.q = {rng.Uniform(0, side), rng.Uniform(0, side)};
      }
      bq.k = static_cast<int>(rng.UniformInt(0, 12));
      MaybeBound(&bounds_server, &rng,
                 {bq.q.x + rng.Uniform(-80.0, 80.0), bq.q.y + rng.Uniform(-80.0, 80.0)},
                 &bq);
      batch.push_back(bq);
    }
    w.batches.push_back(std::move(batch));
  }
  return w;
}

/// A 40 x 40 POI lattice (25 m spacing); query points snap to lattice
/// points or cell centres inside a 12 x 12 corner, so whole POI families
/// are exactly co-distant and equal-key pops happen in the shared queue.
AccountingWorld LatticeWorld() {
  AccountingWorld w;
  Rng rng = Rng(0xACC1u).Stream("accounting-lattice", 0);
  const double spacing = 25.0;
  const int side = 40;
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      w.pois.push_back({r * side + c, {c * spacing, r * spacing}});
    }
  }
  SpatialServer bounds_server(w.pois);
  for (int b = 0; b < kBatches; ++b) {
    std::vector<BatchQuery> batch;
    for (int i = 0; i < kQueriesPerBatch; ++i) {
      BatchQuery bq;
      const int qc = static_cast<int>(rng.UniformInt(4, 15));
      const int qr = static_cast<int>(rng.UniformInt(4, 15));
      bq.q = {qc * spacing, qr * spacing};
      if (rng.Bernoulli(0.5)) {
        bq.q.x += spacing / 2.0;
        bq.q.y += spacing / 2.0;
      }
      bq.k = static_cast<int>(rng.UniformInt(0, 12));
      const int pc = qc + static_cast<int>(rng.UniformInt(-2, 2));
      const int pr = qr + static_cast<int>(rng.UniformInt(-2, 2));
      MaybeBound(&bounds_server, &rng, {pc * spacing, pr * spacing}, &bq);
      batch.push_back(bq);
    }
    w.batches.push_back(std::move(batch));
  }
  return w;
}

/// Everything the kernel charges over one replay.
struct Accounting {
  /// FNV-1a over (total, misses, shared_misses) of every reply, in batch
  /// order and reply order within a batch.
  uint64_t reply_fingerprint = 0;
  uint64_t reply_total = 0;
  uint64_t reply_misses = 0;
  uint64_t reply_shared = 0;
  rtree::AccessCounter shared_traversal;
  uint64_t clusters = 0;
  storage::BufferPoolStats pool;
};

std::string Describe(const Accounting& a) {
  const rtree::AccessCounter& s = a.shared_traversal;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{0x%016llxull, %llu, %llu, %llu, {%llu, %llu, %llu, %llu, %llu, %llu}, "
                "%llu, {%llu, %llu, %llu, %llu}}",
                static_cast<unsigned long long>(a.reply_fingerprint),
                static_cast<unsigned long long>(a.reply_total),
                static_cast<unsigned long long>(a.reply_misses),
                static_cast<unsigned long long>(a.reply_shared),
                static_cast<unsigned long long>(s.index_nodes),
                static_cast<unsigned long long>(s.leaf_nodes),
                static_cast<unsigned long long>(s.index_misses),
                static_cast<unsigned long long>(s.leaf_misses),
                static_cast<unsigned long long>(s.shared_misses),
                static_cast<unsigned long long>(s.private_misses),
                static_cast<unsigned long long>(a.clusters),
                static_cast<unsigned long long>(a.pool.logical),
                static_cast<unsigned long long>(a.pool.hits),
                static_cast<unsigned long long>(a.pool.misses),
                static_cast<unsigned long long>(a.pool.evictions));
  return buf;
}

void Mix(uint64_t* h, uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    *h ^= (v >> (8 * byte)) & 0xFFu;
    *h *= 0x100000001B3ull;
  }
}

Accounting Replay(const AccountingWorld& w, rtree::AccessCountMode mode, int max_group) {
  storage::BufferPoolOptions pool;
  pool.capacity_pages = kPoolPages;
  pool.policy = storage::ReplacementPolicy::kLru;
  SpatialServer server(w.pois, SpatialServer::DefaultTreeOptions(), mode, pool);
  BatchOptions options;
  options.cluster_cell_m = 250.0;
  options.max_group = max_group;
  BatchServer batch(&server, options);

  Accounting a;
  a.reply_fingerprint = 0xCBF29CE484222325ull;
  for (const std::vector<BatchQuery>& queries : w.batches) {
    for (const ServerReply& reply : batch.AnswerBatch(queries)) {
      const rtree::AccessCounter& c = reply.einn_accesses;
      Mix(&a.reply_fingerprint, c.total());
      Mix(&a.reply_fingerprint, c.misses());
      Mix(&a.reply_fingerprint, c.shared_misses);
      a.reply_total += c.total();
      a.reply_misses += c.misses();
      a.reply_shared += c.shared_misses;
    }
  }
  a.shared_traversal = batch.stats().shared_traversal;
  a.clusters = batch.stats().clusters;
  a.pool = server.pager()->pool().stats();
  return a;
}

struct Case {
  const char* world;
  rtree::AccessCountMode mode;
  int max_group;
  Accounting want;
};

// Recorded from the reference kernel; regenerate only for a change that is
// MEANT to alter what the batched traversal fetches, and say so.
const Case kCases[] = {
    {"hotspot", rtree::AccessCountMode::kOnExpand, 8,
     {0x2a32e1fda6aa9c41ull, 207, 113, 52, {48, 93, 11, 71, 52, 30}, 21, {207, 94, 113, 105}}},
    {"hotspot", rtree::AccessCountMode::kOnExpand, 32,
     {0xcba7e83c067a8764ull, 183, 120, 60, {37, 80, 16, 69, 60, 25}, 16, {183, 63, 120, 112}}},
    {"hotspot", rtree::AccessCountMode::kOnEnqueue, 8,
     {0x437f5db0027a59eeull, 1053, 1024, 662, {105, 661, 91, 661, 662, 90}, 21, {1053, 29, 1024, 1016}}},
    {"hotspot", rtree::AccessCountMode::kOnEnqueue, 32,
     {0xb8f740688511207eull, 863, 834, 524, {80, 496, 66, 496, 524, 38}, 16, {863, 29, 834, 826}}},
    {"lattice", rtree::AccessCountMode::kOnExpand, 8,
     {0x0d97a1a516f34fc6ull, 116, 40, 27, {34, 72, 2, 36, 27, 11}, 17, {116, 76, 40, 32}}},
    {"lattice", rtree::AccessCountMode::kOnExpand, 32,
     {0xccd72b912e2184a1ull, 86, 43, 29, {24, 62, 2, 41, 29, 14}, 12, {86, 43, 43, 35}}},
    {"lattice", rtree::AccessCountMode::kOnEnqueue, 8,
     {0x6804bdce881f983aull, 589, 589, 527, {51, 476, 51, 476, 527, 0}, 17, {589, 0, 589, 581}}},
    {"lattice", rtree::AccessCountMode::kOnEnqueue, 32,
     {0x0a02b0a9a1a2c7e5ull, 372, 372, 372, {36, 336, 36, 336, 372, 0}, 12, {372, 0, 372, 364}}},
};

TEST(BatchAccountingTest, ChargesMatchTheRecordedKernel) {
  const AccountingWorld hotspot = HotspotWorld();
  const AccountingWorld lattice = LatticeWorld();
  for (const Case& c : kCases) {
    const AccountingWorld& w = std::string(c.world) == "hotspot" ? hotspot : lattice;
    const Accounting got = Replay(w, c.mode, c.max_group);
    const char* mode = c.mode == rtree::AccessCountMode::kOnExpand ? "expand" : "enqueue";
    SCOPED_TRACE(std::string(c.world) + ", " + mode +
                 ", max_group " + std::to_string(c.max_group) + ": got " + Describe(got));
    // Internal consistency first: every charged access went through the
    // pool, and the cluster counter's misses split exactly shared/private.
    EXPECT_EQ(got.pool.logical, got.reply_total);
    EXPECT_EQ(got.pool.misses, got.reply_misses);
    EXPECT_EQ(got.shared_traversal.shared_misses + got.shared_traversal.private_misses,
              got.shared_traversal.misses());
    EXPECT_GT(got.clusters, 0u);
    EXPECT_GT(got.pool.evictions, 0u);

    EXPECT_EQ(got.reply_fingerprint, c.want.reply_fingerprint);
    EXPECT_EQ(got.reply_total, c.want.reply_total);
    EXPECT_EQ(got.reply_misses, c.want.reply_misses);
    EXPECT_EQ(got.reply_shared, c.want.reply_shared);
    EXPECT_EQ(got.shared_traversal, c.want.shared_traversal);
    EXPECT_EQ(got.clusters, c.want.clusters);
    EXPECT_EQ(got.pool.logical, c.want.pool.logical);
    EXPECT_EQ(got.pool.hits, c.want.pool.hits);
    EXPECT_EQ(got.pool.misses, c.want.pool.misses);
    EXPECT_EQ(got.pool.evictions, c.want.pool.evictions);
  }
}

}  // namespace
}  // namespace senn::core
