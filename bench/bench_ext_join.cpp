// Extension bench: sharing-based local spatial joins (the paper's second
// named future-work query). Measures the fraction of "A near me with B
// within d" joins that complete with zero server contact, as a function of
// the query radius, plus the R-tree distance-join substrate's page behaviour
// against nested loops.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/join.h"
#include "src/rtree/bulk_load.h"
#include "src/rtree/spatial_join.h"

int main(int argc, char** argv) {
  using namespace senn;
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintRunBanner("Extension: sharing-based spatial joins", args);
  const int trials = args.full ? 2000 : 500;

  Rng rng(args.seed);
  const double side = 3218.688;  // 2 miles
  std::vector<core::Poi> restaurants, parking;
  for (int i = 0; i < 120; ++i) {
    restaurants.push_back({i, {rng.Uniform(0, side), rng.Uniform(0, side)}});
  }
  for (int i = 0; i < 90; ++i) {
    parking.push_back({1000 + i, {rng.Uniform(0, side), rng.Uniform(0, side)}});
  }
  core::SpatialServer server_a(restaurants);
  core::SpatialServer server_b(parking);
  core::SharingJoinProcessor join(&server_a, &server_b);

  std::printf("%12s %14s %14s %12s\n", "radius_m", "fully local%", "pairs/query",
              "d = 150 m");
  std::printf("csv,radius_m,fully_local_pct,pairs_per_query\n");
  for (double radius : {100.0, 200.0, 350.0, 500.0, 700.0}) {
    Rng trial_rng(args.seed + static_cast<uint64_t>(radius));
    int local = 0;
    double pairs = 0;
    for (int t = 0; t < trials; ++t) {
      geom::Vec2 q{trial_rng.Uniform(0, side), trial_rng.Uniform(0, side)};
      std::vector<core::CachedResult> ca, cb;
      for (int p = 0; p < 4; ++p) {
        geom::Vec2 at{q.x + trial_rng.Uniform(-250, 250),
                      q.y + trial_rng.Uniform(-250, 250)};
        core::CachedResult a;
        a.query_location = at;
        a.neighbors = server_a.QueryKnn(at, 8).neighbors;
        ca.push_back(std::move(a));
        core::CachedResult b;
        b.query_location = at;
        b.neighbors = server_b.QueryKnn(at, 8).neighbors;
        cb.push_back(std::move(b));
      }
      std::vector<const core::CachedResult*> peers_a, peers_b;
      for (const core::CachedResult& c : ca) peers_a.push_back(&c);
      for (const core::CachedResult& c : cb) peers_b.push_back(&c);
      core::JoinOutcome out = join.Execute(q, radius, 150.0, peers_a, peers_b);
      local += out.fully_local;
      pairs += static_cast<double>(out.pairs.size());
    }
    std::printf("%12.0f %14.1f %14.2f\n", radius, 100.0 * local / trials, pairs / trials);
    std::printf("csv,%.0f,%.2f,%.3f\n", radius, 100.0 * local / trials, pairs / trials);
  }

  // Substrate: synchronized-descent distance join vs nested loops (pages).
  Rng join_rng(args.seed);
  std::vector<rtree::ObjectEntry> ea, eb;
  for (int i = 0; i < 3000; ++i) {
    ea.push_back({{join_rng.Uniform(0, 10000), join_rng.Uniform(0, 10000)}, i});
    eb.push_back({{join_rng.Uniform(0, 10000), join_rng.Uniform(0, 10000)}, 100000 + i});
  }
  const rtree::PackedTree ta = rtree::BulkLoadPacked(std::move(ea));
  const rtree::PackedTree tb = rtree::BulkLoadPacked(std::move(eb));
  std::printf("\n%14s %12s %16s\n", "threshold_m", "pairs", "pages (A+B)");
  std::printf("csv2,threshold_m,pairs,pages\n");
  for (double d : {10.0, 50.0, 200.0}) {
    rtree::AccessCounter pa, pb;
    std::vector<rtree::JoinPair> pairs = rtree::DistanceJoin(ta, tb, d, &pa, &pb);
    std::printf("%14.0f %12zu %16llu\n", d, pairs.size(),
                static_cast<unsigned long long>(pa.total() + pb.total()));
    std::printf("csv2,%.0f,%zu,%llu\n", d, pairs.size(),
                static_cast<unsigned long long>(pa.total() + pb.total()));
  }
  return 0;
}
