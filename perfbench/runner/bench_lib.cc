#include "runner/bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/common/rng.h"

namespace perfbench {

using senn::core::Poi;
using senn::core::RankedPoi;

namespace {

// ceil(q * n) without the floating-point overshoot that q * n can carry
// (0.99 * 100 is 99.00000000000001 in binary64).
size_t RankPosition(size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  const double rounded = std::round(exact);
  if (std::fabs(exact - rounded) < 1e-9 * std::max(1.0, exact)) {
    return static_cast<size_t>(rounded);
  }
  return static_cast<size_t>(std::ceil(exact));
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendNumber(double v, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = std::clamp<size_t>(RankPosition(sorted.size(), q), 1, sorted.size());
  return sorted[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = std::min(RankPosition(n, q), n);
  return n - rank;
}

bool TailReportable(size_t n, double q) { return SamplesBeyond(n, q) >= kMinTailSamples; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

std::vector<Poi> WorldPois(uint64_t seed, int count, double side_m) {
  senn::Rng poi_rng = senn::Rng(seed).Stream("world/poi");
  std::vector<Poi> pois;
  pois.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    pois.push_back({i, {poi_rng.Uniform(0, side_m), poi_rng.Uniform(0, side_m)}});
  }
  return pois;
}

std::vector<RankedPoi> BruteForceKnn(const std::vector<Poi>& pois, senn::geom::Vec2 q,
                                     int k) {
  // A sorted list of the k best so far; one pass, no per-query allocation
  // beyond it.
  const size_t keep = static_cast<size_t>(std::max(k, 0));
  auto ranks = [](const RankedPoi& a, const RankedPoi& b) {
    return senn::core::RanksBefore(a, b);
  };
  std::vector<RankedPoi> best;
  best.reserve(keep + 1);
  if (keep == 0) return best;
  for (const Poi& p : pois) {
    const RankedPoi c{p.id, p.position, senn::geom::Dist(q, p.position)};
    if (best.size() == keep && !ranks(c, best.back())) continue;
    best.insert(std::upper_bound(best.begin(), best.end(), c, ranks), c);
    if (best.size() > keep) best.pop_back();
  }
  return best;
}

bool SameAnswer(const std::vector<RankedPoi>& got, const std::vector<RankedPoi>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id) return false;
    if (std::memcmp(&got[i].distance, &want[i].distance, sizeof(double)) != 0) return false;
  }
  return true;
}

uint64_t SpanLog::Begin(std::string name, uint64_t parent) {
  Span span;
  span.name = std::move(name);
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.start_s = Now();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

double SpanLog::End(uint64_t id) {
  Span& span = spans_[id - 1];
  span.end_s = Now();
  return span.end_s - span.start_s;
}

double SpanLog::Total(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_s > 0.0) total += s.end_s - s.start_s;
  }
  return total;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string line = "{\"name\":";
    AppendJsonString(s.name, &line);
    line += ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    AppendNumber((s.start_s - origin) * 1e6, &line);
    line += ",\"dur\":";
    AppendNumber((std::max(s.end_s, s.start_s) - s.start_s) * 1e6, &line);
    line += ",\"args\":{\"id\":";
    line += std::to_string(s.id);
    line += ",\"parent\":";
    line += std::to_string(s.parent);
    line += "}}";
    out << line << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

void Result::Add(std::string name, std::string unit, double value) {
  if (!std::isfinite(value)) {
    Fail(std::string("metric ").append(name).append(" is not finite"));
    value = 0.0;
  }
  metrics.push_back({std::move(name), std::move(unit), value});
}

void Result::Fail(std::string problem) {
  correct = false;
  problems.push_back(std::move(problem));
}

std::string Result::ToJson() const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out.append(",\"attempted\":").append(std::to_string(attempted));
  out.append(",\"failed\":").append(std::to_string(failed));
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(metrics[i].name, &out);
    out += ":{\"value\":";
    AppendNumber(metrics[i].value, &out);
    out += ",\"unit\":";
    AppendJsonString(metrics[i].unit, &out);
    out += "}";
  }
  out += "},\"problems\":[";
  for (size_t i = 0; i < problems.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(problems[i], &out);
  }
  out += "]}";
  return out;
}

}  // namespace perfbench
