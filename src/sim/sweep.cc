#include "src/sim/sweep.h"

#include <atomic>
#include <thread>

namespace senn::sim {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<SimulationResult> RunConfigs(const std::vector<SimulationConfig>& configs,
                                         const SweepOptions& options) {
  std::vector<SimulationResult> results(configs.size());
  if (configs.empty()) return results;
  int threads = ResolveThreads(options.threads);
  if (threads > static_cast<int>(configs.size())) threads = static_cast<int>(configs.size());

  // Work stealing over a shared index; each worker owns the full lifetime of
  // its runs (Simulator construction, Run, teardown), so no state is shared
  // between runs and the slot written is unique per index.
  std::atomic<size_t> next{0};
  auto worker = [&configs, &results, &next]() {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= configs.size()) return;
      results[i] = Simulator(configs[i]).Run();
    }
  };
  if (threads == 1) {
    worker();
    return results;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

SimulationResult MergeResults(const std::vector<SimulationResult>& parts) {
  SimulationResult merged;
  for (const SimulationResult& part : parts) {
    merged.measured_queries += part.measured_queries;
    merged.by_single_peer += part.by_single_peer;
    merged.by_multi_peer += part.by_multi_peer;
    merged.by_server += part.by_server;
    merged.einn_pages.Merge(part.einn_pages);
    merged.inn_pages.Merge(part.inn_pages);
    merged.peers_in_range.Merge(part.peers_in_range);
    merged.p2p_messages_per_query.Merge(part.p2p_messages_per_query);
    merged.p2p_bytes_per_query.Merge(part.p2p_bytes_per_query);
    merged.query_latency_s.Merge(part.query_latency_s);
    merged.latency_p50.Merge(part.latency_p50);
    merged.latency_p95.Merge(part.latency_p95);
    merged.latency_p99.Merge(part.latency_p99);
    merged.retries_per_query.Merge(part.retries_per_query);
    merged.transmissions_lost += part.transmissions_lost;
    merged.replies_missed += part.replies_missed;
    merged.loss_induced_server_fallbacks += part.loss_induced_server_fallbacks;
    merged.einn_miss_pages.Merge(part.einn_miss_pages);
    merged.buffer.Merge(part.buffer);
    merged.continuous_steps += part.continuous_steps;
    merged.continuous_safe_region_steps += part.continuous_safe_region_steps;
    merged.continuous_peer_region_steps += part.continuous_peer_region_steps;
    merged.continuous_own_cache_steps += part.continuous_own_cache_steps;
    merged.continuous_peer_steps += part.continuous_peer_steps;
    merged.continuous_uncertain_steps += part.continuous_uncertain_steps;
    merged.continuous_server_steps += part.continuous_server_steps;
    merged.continuous_region_pages += part.continuous_region_pages;
    merged.continuous_region_area_m2.Merge(part.continuous_region_area_m2);
    merged.simulated_seconds += part.simulated_seconds;
  }
  if (merged.measured_queries > 0) {
    double n = static_cast<double>(merged.measured_queries);
    merged.pct_single_peer = 100.0 * static_cast<double>(merged.by_single_peer) / n;
    merged.pct_multi_peer = 100.0 * static_cast<double>(merged.by_multi_peer) / n;
    merged.pct_server = 100.0 * static_cast<double>(merged.by_server) / n;
  }
  return merged;
}

SimulationConfig ShardConfig(const SimulationConfig& base, int shard) {
  SimulationConfig cfg = base;
  if (shard > 0) {
    cfg.seed = Rng(base.seed).Stream("shard", static_cast<uint64_t>(shard)).NextU64();
  }
  return cfg;
}

SimulationResult RunSeedShards(const SimulationConfig& base, int shards,
                               const SweepOptions& options) {
  if (shards < 1) shards = 1;
  std::vector<SimulationConfig> configs;
  configs.reserve(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) configs.push_back(ShardConfig(base, s));
  return MergeResults(RunConfigs(configs, options));
}

}  // namespace senn::sim
