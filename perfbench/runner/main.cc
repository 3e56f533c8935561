// perfbench_runner — runs one workload once and prints one JSON line.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --served PATH [--spans-out FILE]
//
// run.py pins it to one CPU, builds it, and checks its output; see
// README.md in this directory.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runner/workloads.h"

namespace perfbench {

namespace {

// Every per-layer metric of the traced run, in report order. A workload
// reports the layers it runs; the rest read 0 (the layer is not on that
// workload's path — README.md maps each metric to its workload).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"sim.world_build_s", "s"},
    {"sim.warm_start_s", "s"},
    {"sim.queries_per_s", "1/s"},
    {"mobility.run_s", "s"},
    {"mobility.ns_per_host_step", "ns"},
    {"sim.query_path_s", "s"},
    {"roadnet.generate_s", "s"},
    {"roadnet.find_path_us", "us"},
    {"core.senn_prepare_us", "us"},
    {"geom.disk_cover_us", "us"},
    {"sim.sqrr_pct", "%"},
    {"sim.peers_in_range", "count"},
    {"net.p2p_messages_per_query", "count"},
    {"rtree.einn_pages_per_server_query", "pages"},
    {"rtree.inn_pages_per_server_query", "pages"},
    {"core.query_knn_us", "us"},
    {"rtree.best_first_knn_us", "us"},
    {"rtree.pages_per_query", "pages"},
    {"rpc.codec_ns_per_request", "ns"},
    {"rpc.answer_group_us_per_request", "us"},
    {"rpc.loopback_latency_us", "us"},
    {"rpc.tcp_overhead_us", "us"},
    {"rpc.avg_group_size", "count"},
    {"rpc.requests_shed", "count"},
    {"rpc.framing_errors", "count"},
    {"core.batch_us_per_query", "us"},
    {"core.sequential_us_per_query", "us"},
    {"core.batch_avg_cluster_size", "count"},
    {"core.batch_pages_per_query", "pages"},
    {"storage.miss_pages_per_query", "pages"},
    {"storage.hit_rate", "ratio"},
    {"traced.setup_s", "s"},
    {"traced.queries_per_s", "1/s"},
    {"traced.latency_p50_us", "us"},
    {"traced.latency_p99_us", "us"},
    {"traced.latency_samples", "count"},
};

// Reorders the traced run's metrics into kLayerMetrics order, filling the
// layers this workload does not run with 0. A name outside the table is a
// runner bug and fails the run.
void CompleteLayerMetrics(Result* result) {
  std::vector<Metric> ordered;
  for (const LayerMetric& m : kLayerMetrics) {
    Metric out{m.name, m.unit, 0.0};
    for (const Metric& got : result->metrics) {
      if (got.name == m.name) out.value = got.value;
    }
    ordered.push_back(out);
  }
  for (const Metric& got : result->metrics) {
    bool known = false;
    for (const LayerMetric& m : kLayerMetrics) known = known || got.name == m.name;
    if (!known) result->Fail("unknown per-layer metric " + got.name);
  }
  result->metrics = std::move(ordered);
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload NAME --seed N --seconds S "
               "--trace 0|1 --served PATH [--spans-out FILE]\n");
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--served") {
      options.served = value;
    } else if (arg == "--spans-out") {
      options.spans_out = value;
    } else {
      Usage();
    }
  }
  if (options.seconds <= 0) Usage();

  if (!IsServeWorkload(options.workload)) {
    std::fprintf(stderr, "perfbench_runner: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  if (options.served.empty()) Usage();
  SpanLog spans;
  Result result = RunServe(options, &spans);
  if (options.trace && options.workload == "serve_uniform") {
    // The simulator is no gated workload (README.md says why); its layers
    // are timed here, after the server has stopped.
    MeasureSimLayers(options.seed, &spans, &result);
  }
  if (options.trace) {
    CompleteLayerMetrics(&result);
    if (!options.spans_out.empty() && !spans.WriteChromeTrace(options.spans_out)) {
      result.Fail("cannot write " + options.spans_out);
    }
  }
  for (const std::string& p : result.problems) std::printf("problem: %s\n", p.c_str());
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
