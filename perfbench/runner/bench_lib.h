// Shared pieces of the perfbench runner: the percentile rule, the
// brute-force kNN oracle, wall-clock spans, and the result JSON.
//
// Everything here is benchmark code. Wall-clock time is the point of it,
// so it sits outside the library's determinism contract; the inputs it
// generates are still pure functions of the seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/types.h"
#include "src/geom/vec2.h"

namespace perfbench {

/// Fewest samples that must lie beyond a reported tail percentile.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile (q in (0, 1]) of an ascending-sorted sample.
/// Returns the smallest value with at least q * n samples at or below it.
double Percentile(const std::vector<double>& sorted, double q);

/// Samples strictly beyond the nearest-rank percentile position, i.e.
/// n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

/// Whether the q-th percentile of n samples may be reported: at least
/// kMinTailSamples samples lie beyond it.
bool TailReportable(size_t n, double q);

/// Median of an unsorted sample (the lower middle for even sizes, so the
/// value is always one that was measured). Empty input gives 0.
double Median(std::vector<double> values);

/// The POI world every senn_served instance and simulator builds for
/// (seed, count, side): uniform over the square, from the seed's
/// "world/poi" stream, ids 0..count-1.
std::vector<senn::core::Poi> WorldPois(uint64_t seed, int count, double side_m);

/// Exact k nearest POIs of q by brute force, ranked by (distance, id) —
/// the library's tie rule — with distances computed by geom::Dist like
/// the server's.
std::vector<senn::core::RankedPoi> BruteForceKnn(const std::vector<senn::core::Poi>& pois,
                                                 senn::geom::Vec2 q, int k);

/// Same ids in the same order and bitwise-equal distances.
bool SameAnswer(const std::vector<senn::core::RankedPoi>& got,
                const std::vector<senn::core::RankedPoi>& want);

/// Monotonic wall clock in seconds.
inline double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder of the traced run: each span has a name, wall
/// start/end and the id of the span that caused it (0 = none).
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  /// Opens a span; returns its id (never 0).
  uint64_t Begin(std::string name, uint64_t parent = 0);
  /// Closes span `id`; returns its duration in seconds.
  double End(uint64_t id);

  /// Sum of the durations of every closed span named `name`.
  double Total(const std::string& name) const;
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as a Chrome trace_event JSON array (microseconds).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The runner's result: the metrics plus the operation tally.
struct Result {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  /// Problems found by the checks; a non-empty list makes `correct` false.
  std::vector<std::string> problems;

  void Add(std::string name, std::string unit, double value);
  void Fail(std::string problem);
  /// One JSON object on one line.
  std::string ToJson() const;
};

}  // namespace perfbench
