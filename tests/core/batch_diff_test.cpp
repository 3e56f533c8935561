// Differential battery for the batched answering path: over hundreds of
// generated worlds — uniform and hotspot-skewed, random and lattice-tied,
// in-memory and paged, both access-accounting modes — every per-query reply
// of BatchServer::AnswerBatch must be BITWISE identical to the sequential
// SpatialServer::QueryKnn answer, at every batch size.
//
// This is the enforcement of the equivalence contract in batch_server.h: the
// shared traversal may visit nodes in a completely different order (and
// fewer of them), but for system-consistent inputs the per-query answer is a
// pure function of (query, world, bounds), so any divergence — a tie broken
// by traversal order, a prune that is too eager for one member, a candidate
// heap displaced by another query's objects — shows up as a wrong id or a
// non-identical double.
//
// The trial count is a compile definition: the same source builds the quick
// tier-1 binary (SENN_BATCH_TRIALS small) and the full sweep (slow label).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/batch_server.h"
#include "src/core/senn.h"
#include "tests/core/batch_test_util.h"

#ifndef SENN_BATCH_TRIALS
#define SENN_BATCH_TRIALS 200
#endif

namespace senn::core {
namespace {

using batch_testing::BatchWorld;
using batch_testing::BuildBatchWorld;
using batch_testing::BuildLatticeBatchWorld;
using batch_testing::ExpectSameNeighbors;
using batch_testing::WorldOptions;

constexpr int kTrials = SENN_BATCH_TRIALS;
constexpr int kBatchSizes[] = {1, 2, 8, 32};

/// Variant matrix per trial: storage engine and accounting mode rotate so
/// every combination appears many times across the sweep.
WorldOptions VariantFor(int trial, bool hotspot) {
  WorldOptions options;
  options.hotspot = hotspot;
  options.paged = trial % 2 == 1;
  options.count_mode =
      trial % 4 < 2 ? rtree::AccessCountMode::kOnExpand : rtree::AccessCountMode::kOnEnqueue;
  return options;
}

void RunDiff(const BatchWorld& w, int trial, const char* family) {
  // Sequential baseline. Answers do not depend on server state (stats and
  // pool residency never reach the result), so one server serves both paths.
  std::vector<ServerReply> sequential;
  std::vector<rtree::AccessCounter> sequential_inn;
  sequential.reserve(w.queries.size());
  for (const BatchQuery& bq : w.queries) {
    sequential.push_back(
        w.server->QueryKnn(bq.q, bq.k, bq.bounds, bq.already_certified));
    sequential_inn.push_back(w.server->InnBaseline(bq.q, bq.k));
  }
  for (int max_group : kBatchSizes) {
    BatchOptions options;
    options.cluster_cell_m = 250.0;
    options.max_group = max_group;
    BatchServer batch(w.server.get(), options);
    std::vector<ServerReply> replies = batch.AnswerBatch(w.queries);
    ASSERT_EQ(replies.size(), w.queries.size());
    for (size_t i = 0; i < replies.size(); ++i) {
      ExpectSameNeighbors(replies[i].neighbors, sequential[i].neighbors, trial, i,
                          family);
      // The INN baseline is per query and never touches the pool: the
      // batch drain's pool traffic must not move its logical counters.
      EXPECT_EQ(w.server->InnBaseline(w.queries[i].q, w.queries[i].k).total(),
                sequential_inn[i].total())
          << family << ", trial " << trial << ", query " << i
          << ", max_group " << max_group;
    }
    EXPECT_EQ(batch.stats().queries, w.queries.size());
    EXPECT_EQ(batch.stats().batched_queries + batch.stats().singleton_queries,
              batch.stats().queries);
    if (max_group == 1) {
      EXPECT_EQ(batch.stats().batched_queries, 0u);
    }
  }
}

TEST(BatchDiffTest, UniformWorldsMatchSequentialAtEveryBatchSize) {
  for (int trial = 0; trial < kTrials; ++trial) {
    RunDiff(BuildBatchWorld(trial, VariantFor(trial, false)), trial, "uniform");
  }
}

TEST(BatchDiffTest, HotspotWorldsMatchSequentialAtEveryBatchSize) {
  int clustered = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    BatchWorld w = BuildBatchWorld(trial, VariantFor(trial, true));
    RunDiff(w, trial, "hotspot");
    BatchOptions options;
    options.cluster_cell_m = 250.0;
    options.max_group = 32;
    BatchServer batch(w.server.get(), options);
    for (const std::vector<size_t>& cluster : batch.FormClusters(w.queries)) {
      if (cluster.size() >= 2) ++clustered;
    }
  }
  // The skew generator must actually produce shared traversals, or every
  // "batched" reply above went through the sequential delegation and the
  // test lost its teeth.
  EXPECT_GT(clustered, kTrials / 2);
}

TEST(BatchDiffTest, LatticeTieWorldsMatchSequentialAtEveryBatchSize) {
  for (int trial = 0; trial < kTrials; ++trial) {
    RunDiff(BuildLatticeBatchWorld(trial, VariantFor(trial, false)), trial, "lattice");
  }
}

// The full pipeline seam: SennProcessor::Execute must equal Prepare + a
// BatchServer drain + Finish — including the case where the same pending
// query is answered inside a genuine shared traversal (duplicated request,
// max_group 2).
TEST(BatchDiffTest, PreparePlusBatchDrainMatchesExecute) {
  int server_bound = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    WorldOptions wopt = VariantFor(trial, trial % 2 == 0);
    BatchWorld w = BuildBatchWorld(trial, wopt);
    // Peer caches: exact server answers near the first query point, the way
    // the simulator's hosts hold them.
    Rng rng = Rng(0x5EA2u).Stream("drain-trial", static_cast<uint64_t>(trial));
    geom::Vec2 q{rng.Uniform(0, batch_testing::kSide),
                 rng.Uniform(0, batch_testing::kSide)};
    const int k = static_cast<int>(rng.UniformInt(1, 10));
    std::vector<CachedResult> caches;
    const int peers = static_cast<int>(rng.UniformInt(0, 5));
    for (int p = 0; p < peers; ++p) {
      CachedResult cached;
      cached.query_location = {q.x + rng.Uniform(-80.0, 80.0),
                               q.y + rng.Uniform(-80.0, 80.0)};
      cached.neighbors =
          w.server->QueryKnn(cached.query_location,
                             static_cast<int>(rng.UniformInt(1, 12)))
              .neighbors;
      if (!cached.Empty()) caches.push_back(std::move(cached));
    }
    std::vector<const CachedResult*> cache_ptrs;
    for (const CachedResult& c : caches) cache_ptrs.push_back(&c);

    SennOptions sopt;
    sopt.server_request_k = std::max(k, 10);
    SennProcessor processor(w.server.get(), sopt);
    SennOutcome sequential = processor.Execute(q, k, cache_ptrs);

    PendingSenn pending = processor.Prepare(q, k, cache_ptrs);
    ASSERT_EQ(pending.needs_server, sequential.resolution == Resolution::kServer)
        << "trial " << trial;
    if (pending.needs_server) {
      ++server_bound;
      BatchQuery bq{pending.q, pending.heap_capacity, pending.outcome.bounds,
                    static_cast<int>(pending.certain.size())};
      BatchOptions options;
      options.max_group = 2;
      BatchServer batch(w.server.get(), options);
      // Duplicate the request: a cluster of two identical queries forces the
      // shared-traversal path (a singleton would delegate to QueryKnn and
      // prove nothing).
      std::vector<ServerReply> replies = batch.AnswerBatch({bq, bq});
      ASSERT_EQ(batch.stats().batched_queries, 2u) << "trial " << trial;
      ExpectSameNeighbors(replies[0].neighbors, replies[1].neighbors, trial, 0,
                          "duplicated request");
      processor.Finish(&pending, replies[0]);
    }
    ASSERT_EQ(pending.outcome.resolution, sequential.resolution) << "trial " << trial;
    ExpectSameNeighbors(pending.outcome.neighbors, sequential.neighbors, trial, 0,
                        "drained outcome");
    ExpectSameNeighbors(pending.outcome.certain_prefix, sequential.certain_prefix,
                        trial, 0, "drained certified prefix");
  }
  EXPECT_GT(server_bound, kTrials / 8);
}

}  // namespace
}  // namespace senn::core
