// The perfbench workloads (README.md in this directory says why each
// exists and which layers it stresses).
#pragma once

#include <cstdint>
#include <string>

#include "runner/bench_lib.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Path of the senn_served binary (serve workloads).
  std::string served;
  /// Where the traced run writes its spans; empty = nowhere.
  std::string spans_out;
};

bool IsServeWorkload(const std::string& name);
Result RunServe(const Options& options, SpanLog* spans);

/// Times the simulator's layers on the seed's Table 4 world (traced run).
void MeasureSimLayers(uint64_t seed, SpanLog* spans, Result* result);

}  // namespace perfbench
