// Ablation: the server-side base kNN algorithm — depth-first branch-and-
// bound (Roussopoulos et al.) versus the best-first incremental algorithm
// (Hjaltason & Samet) the paper builds EINN on. Node accesses per query over
// data sets of increasing size motivate the paper's choice.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/rtree/knn.h"

int main(int argc, char** argv) {
  using namespace senn;
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintRunBanner("Ablation: depth-first vs best-first kNN", args);
  const int queries = args.full ? 2000 : 400;
  const int k = 10;

  std::printf("%-10s %16s %16s %10s\n", "POIs", "DF pages/query", "BF pages/query",
              "saving%");
  std::printf("csv,pois,df_pages,bf_pages\n");
  for (int n : {500, 2000, 8000, 32000}) {
    Rng rng(args.seed + static_cast<uint64_t>(n));
    rtree::RStarTree tree;
    for (int i = 0; i < n; ++i) {
      tree.Insert({rng.Uniform(0, 10000), rng.Uniform(0, 10000)}, i);
    }
    const rtree::PackedTree packed = rtree::Pack(tree);
    rtree::AccessCounter df, bf;
    for (int qi = 0; qi < queries; ++qi) {
      geom::Vec2 q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
      DepthFirstKnn(packed, q, k, &df);
      BestFirstKnn(packed, q, k, {}, &bf);
    }
    double dfq = static_cast<double>(df.total()) / queries;
    double bfq = static_cast<double>(bf.total()) / queries;
    std::printf("%-10d %16.2f %16.2f %10.1f\n", n, dfq, bfq, 100.0 * (1.0 - bfq / dfq));
    std::printf("csv,%d,%.3f,%.3f\n", n, dfq, bfq);
  }
  return 0;
}
