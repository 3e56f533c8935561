// Unit tests of the benchmark's own helpers: the percentile rule, the
// brute-force oracle and the result JSON.
#include "runner/bench_lib.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

using senn::core::Poi;
using senn::core::RankedPoi;

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(Percentile(v, 0.50), 50.0);
  EXPECT_EQ(Percentile(v, 0.99), 99.0);  // 0.99 * 100 must not round up to 100
  EXPECT_EQ(Percentile(v, 1.00), 100.0);
  EXPECT_EQ(Percentile(OneTo(7), 0.50), 4.0);
  EXPECT_EQ(Percentile({5.0}, 0.99), 5.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(TailReportable(1000, 0.99));
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_FALSE(TailReportable(999, 0.99));
  EXPECT_FALSE(TailReportable(100, 0.99));
  EXPECT_TRUE(TailReportable(20, 0.50));
}

TEST(Median, LowerMiddleIsAMeasuredValue) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.0);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(BruteForceKnn, HandBuiltWorldWithTies) {
  // q at the origin; ids 3 and 1 tie at distance 1, id 2 is at distance 2,
  // id 0 at 5. Ties rank by ascending id.
  const std::vector<Poi> pois = {{0, {3.0, 4.0}}, {1, {0.0, 1.0}}, {2, {2.0, 0.0}},
                                 {3, {-1.0, 0.0}}};
  const std::vector<RankedPoi> got = BruteForceKnn(pois, {0.0, 0.0}, 3);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].id, 1);
  EXPECT_EQ(got[1].id, 3);
  EXPECT_EQ(got[2].id, 2);
  EXPECT_EQ(got[2].distance, 2.0);
  EXPECT_EQ(BruteForceKnn(pois, {0.0, 0.0}, 10).size(), 4u);
  EXPECT_TRUE(BruteForceKnn(pois, {0.0, 0.0}, 0).empty());
}

TEST(SameAnswer, IdsAndBitwiseDistances) {
  const std::vector<RankedPoi> a = {{1, {0.0, 1.0}, 1.0}, {2, {2.0, 0.0}, 2.0}};
  std::vector<RankedPoi> b = a;
  EXPECT_TRUE(SameAnswer(a, b));
  b[1].distance = std::nextafter(2.0, 3.0);
  EXPECT_FALSE(SameAnswer(a, b));
  b = a;
  b[0].id = 7;
  EXPECT_FALSE(SameAnswer(a, b));
  b = a;
  b.pop_back();
  EXPECT_FALSE(SameAnswer(a, b));
}

TEST(WorldPois, IsAPureFunctionOfTheSeed) {
  const std::vector<Poi> a = WorldPois(7, 100, 1000.0);
  const std::vector<Poi> b = WorldPois(7, 100, 1000.0);
  ASSERT_EQ(a.size(), 100u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<int>(i));
    EXPECT_EQ(a[i].position.x, b[i].position.x);
    EXPECT_GE(a[i].position.x, 0.0);
    EXPECT_LT(a[i].position.y, 1000.0);
  }
  EXPECT_NE(WorldPois(8, 1, 1000.0)[0].position.x, a[0].position.x);
}

TEST(Result, JsonShape) {
  Result r;
  r.attempted = 10;
  r.Add("queries_per_s", "1/s", 1234.5);
  r.Add("latency_p50_us", "us", 0.1);
  EXPECT_EQ(r.ToJson(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"
            "\"queries_per_s\":{\"value\":1234.5,\"unit\":\"1/s\"},"
            "\"latency_p50_us\":{\"value\":0.10000000000000001,\"unit\":\"us\"}},"
            "\"problems\":[]}");
  r.Add("broken", "s", std::nan(""));
  EXPECT_FALSE(r.correct);
  ASSERT_EQ(r.problems.size(), 1u);
}

TEST(SpanLog, TotalsByName) {
  SpanLog log;
  const uint64_t outer = log.Begin("outer");
  const uint64_t inner = log.Begin("inner", outer);
  EXPECT_GE(log.End(inner), 0.0);
  log.End(outer);
  EXPECT_EQ(log.spans()[1].parent, outer);
  EXPECT_GE(log.Total("outer"), log.Total("inner"));
}

}  // namespace
}  // namespace perfbench
