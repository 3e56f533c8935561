// Extension bench: the paged storage engine (src/storage/) under the
// server's R*-tree. The paper equates node accesses with page accesses
// (branching factor 30 sized to a disk page); this bench puts a real buffer
// pool underneath and sweeps its capacity to separate the LOGICAL access
// count (the paper's metric, pool-independent) from the PHYSICAL miss count
// that an actual server would pay.
//
// One sweep on the LA 30x30 set (road mode, density-preserving scale-down
// as in the Fig. 17 bench — the 2x2 set's 16 POIs fit in a single R*-tree
// node, which would leave nothing for a pool to do): pool sizes from 2
// frames to unbounded, crossed with both replacement policies (LRU and
// CLOCK). Every point runs the SAME seed, so the logical reference string
// is identical across the whole grid and the hit-rate column isolates the
// pool. LRU is a stack algorithm, so its hit rate is monotone
// non-decreasing in the pool size; CLOCK approximates it and may cross
// over. The bench exits 1 unless the logical count is constant within each
// policy and LRU misses do not increase with capacity.
//
// Emitted machine-readable as BENCH_bufferpool.json (in the working
// directory).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/storage/page.h"

namespace {

struct Point {
  size_t pages;  // 0 = unbounded
  senn::storage::ReplacementPolicy policy;
};

std::string PagesLabel(size_t pages) {
  return pages == 0 ? "unbounded" : std::to_string(pages);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace senn;
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintRunBanner("Extension: buffer-pool sweep under the server R*-tree", args);
  double duration = args.full ? 3600.0 : 600.0;
  double scale = args.full ? 2.0 : 3.0;

  // The served tree has 17 nodes at the default scale and 39 under --full,
  // so a pool of 64 or 128 frames holds it whole and reads exactly as the
  // unbounded row (0 misses, every access a hit, under both policies); the
  // sweep stops at 32, past which only the unbounded row is worth a run.
  const std::vector<size_t> pool_sizes{2, 4, 8, 16, 32, 0};
  const std::vector<storage::ReplacementPolicy> policies{
      storage::ReplacementPolicy::kLru, storage::ReplacementPolicy::kClock};

  std::vector<Point> points;
  std::vector<sim::SimulationConfig> configs;
  for (storage::ReplacementPolicy policy : policies) {
    for (size_t pages : pool_sizes) {
      sim::SimulationConfig cfg;
      cfg.params = bench::ScaleDown(sim::Table4(sim::Region::kLosAngeles), scale);
      cfg.params.k_nn = 10;
      cfg.params.cache_size = 10;
      cfg.mode = sim::MovementMode::kRoadNetwork;
      cfg.time_step_s = 2.0;
      // Same seed everywhere: identical world and workload, identical
      // logical reference string — the grid isolates the pool.
      cfg.seed = args.seed;
      cfg.duration_s = args.duration_s > 0 ? args.duration_s : duration;
      cfg.paged_storage = true;
      cfg.buffer.capacity_pages = pages;
      cfg.buffer.policy = policy;
      points.push_back({pages, policy});
      configs.push_back(std::move(cfg));
    }
  }
  std::vector<sim::SimulationResult> results = sim::RunConfigs(configs, args.Sweep());

  std::printf("%10s %8s %12s %12s %10s %16s %14s\n", "pool", "policy", "logical",
              "misses", "hit%", "einn pages/q", "miss pages/q");
  std::printf("csv,pool_pages,policy,logical,misses,hit_rate,einn_pages_mean,"
              "miss_pages_mean\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const sim::SimulationResult& r = results[i];
    std::printf("%10s %8s %12llu %12llu %10.2f %16.2f %14.2f\n",
                PagesLabel(points[i].pages).c_str(),
                storage::ReplacementPolicyName(points[i].policy),
                static_cast<unsigned long long>(r.buffer.total()),
                static_cast<unsigned long long>(r.buffer.misses()),
                100.0 * r.buffer.rate(), r.einn_pages.mean(), r.einn_miss_pages.mean());
    std::printf("csv,%s,%s,%llu,%llu,%.6f,%.3f,%.3f\n", PagesLabel(points[i].pages).c_str(),
                storage::ReplacementPolicyName(points[i].policy),
                static_cast<unsigned long long>(r.buffer.total()),
                static_cast<unsigned long long>(r.buffer.misses()),
                r.buffer.rate(), r.einn_pages.mean(), r.einn_miss_pages.mean());
  }
  // The logical column is constant down each policy's rows (the paper's
  // page-access metric does not see the pool), and LRU misses never grow
  // with capacity (a stack algorithm). Within a policy the points run in
  // pool_sizes order, ascending with unbounded last, so each row is
  // compared with the next smaller pool.
  bool logical_constant = true;
  bool lru_monotone = true;
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].policy != points[i - 1].policy) continue;
    if (results[i].buffer.total() != results[i - 1].buffer.total()) logical_constant = false;
    if (points[i].policy == storage::ReplacementPolicy::kLru &&
        results[i].buffer.misses() > results[i - 1].buffer.misses()) {
      lru_monotone = false;
    }
  }
  std::printf("\ncheck: logical count constant within each policy: %s\n",
              logical_constant ? "ok" : "FAILED");
  std::printf("check: LRU misses non-increasing in capacity: %s\n",
              lru_monotone ? "ok" : "FAILED");

  const char* json_path = "BENCH_bufferpool.json";
  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(f, "{\"seed\":%llu,\"mode\":\"%s\",\"sweep\":[",
               static_cast<unsigned long long>(args.seed), args.full ? "full" : "quick");
  for (size_t i = 0; i < points.size(); ++i) {
    const sim::SimulationResult& r = results[i];
    std::fprintf(f,
                 "%s{\"pool_pages\":%zu,\"policy\":\"%s\",\"logical\":%llu,"
                 "\"hits\":%llu,\"misses\":%llu,\"hit_rate\":%.6f,"
                 "\"einn_pages_mean\":%.4f,\"einn_miss_pages_mean\":%.4f}",
                 i > 0 ? "," : "", points[i].pages,
                 storage::ReplacementPolicyName(points[i].policy),
                 static_cast<unsigned long long>(r.buffer.total()),
                 static_cast<unsigned long long>(r.buffer.hits()),
                 static_cast<unsigned long long>(r.buffer.misses()), r.buffer.rate(),
                 r.einn_pages.mean(), r.einn_miss_pages.mean());
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("json: %s\n", json_path);
  return logical_constant && lru_monotone ? 0 : 1;
}
