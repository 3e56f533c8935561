// google-benchmark microbenchmarks for the R*-tree substrate: insertion,
// range queries, kNN variants, and the exact disk-union coverage test. These
// guard the index against performance regressions; absolute numbers are
// machine-dependent.
#include <benchmark/benchmark.h>

#include "src/common/rng.h"
#include "src/geom/disk_cover.h"
#include "src/rtree/knn.h"
#include "src/rtree/rstar_tree.h"

namespace {

using namespace senn;

rtree::RStarTree BuildTree(int n, uint64_t seed) {
  Rng rng(seed);
  rtree::RStarTree tree;
  for (int i = 0; i < n; ++i) {
    tree.Insert({rng.Uniform(0, 10000), rng.Uniform(0, 10000)}, i);
  }
  return tree;
}

void BM_RStarInsert(benchmark::State& state) {
  Rng rng(1);
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    rtree::RStarTree tree;
    for (int i = 0; i < n; ++i) {
      tree.Insert({rng.Uniform(0, 10000), rng.Uniform(0, 10000)}, i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RStarInsert)->Arg(1000)->Arg(10000);

void BM_RangeQuery(benchmark::State& state) {
  rtree::RStarTree tree = BuildTree(static_cast<int>(state.range(0)), 2);
  Rng rng(3);
  std::vector<rtree::ObjectEntry> out;
  for (auto _ : state) {
    out.clear();
    double x = rng.Uniform(0, 9000), y = rng.Uniform(0, 9000);
    tree.RangeQuery(geom::Mbr{{x, y}, {x + 1000, y + 1000}}, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_RangeQuery)->Arg(10000)->Arg(100000);

void BM_BestFirstKnn(benchmark::State& state) {
  const rtree::PackedTree tree = rtree::Pack(BuildTree(static_cast<int>(state.range(0)), 4));
  Rng rng(5);
  for (auto _ : state) {
    geom::Vec2 q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    benchmark::DoNotOptimize(BestFirstKnn(tree, q, 10));
  }
}
BENCHMARK(BM_BestFirstKnn)->Arg(10000)->Arg(100000);

void BM_DepthFirstKnn(benchmark::State& state) {
  const rtree::PackedTree tree = rtree::Pack(BuildTree(static_cast<int>(state.range(0)), 4));
  Rng rng(5);
  for (auto _ : state) {
    geom::Vec2 q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    benchmark::DoNotOptimize(DepthFirstKnn(tree, q, 10));
  }
}
BENCHMARK(BM_DepthFirstKnn)->Arg(10000)->Arg(100000);

void BM_DiskUnionCoverage(benchmark::State& state) {
  Rng rng(6);
  const int m = static_cast<int>(state.range(0));
  std::vector<std::vector<geom::Circle>> covers;
  std::vector<geom::Circle> subjects;
  for (int i = 0; i < 256; ++i) {
    std::vector<geom::Circle> cover;
    for (int j = 0; j < m; ++j) {
      cover.push_back(geom::Circle({rng.Uniform(-1, 1), rng.Uniform(-1, 1)},
                                   rng.Uniform(0.3, 1.5)));
    }
    covers.push_back(std::move(cover));
    subjects.push_back(geom::Circle({0, 0}, rng.Uniform(0.2, 1.2)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        geom::DiskCoveredByUnion(subjects[i & 255], covers[i & 255]));
    ++i;
  }
}
BENCHMARK(BM_DiskUnionCoverage)->Arg(2)->Arg(8)->Arg(32);

}  // namespace
