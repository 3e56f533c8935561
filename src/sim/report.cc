#include "src/sim/report.h"

namespace senn::sim {

void PrintFigure(const std::string& title, const std::string& x_label,
                 const std::vector<FigureSeries>& series) {
  std::printf("=== %s ===\n", title.c_str());
  for (const FigureSeries& s : series) {
    std::printf("--- %s ---\n", s.label.c_str());
    std::printf("%14s %10s %14s %13s %10s\n", x_label.c_str(), "server%", "single-peer%",
                "multi-peer%", "queries");
    for (const FigureRow& row : s.rows) {
      std::printf("%14.1f %10.1f %14.1f %13.1f %10llu\n", row.x, row.result.pct_server,
                  row.result.pct_single_peer, row.result.pct_multi_peer,
                  static_cast<unsigned long long>(row.result.measured_queries));
    }
  }
  std::printf("csv,series,%s,server_pct,single_pct,multi_pct,queries\n", x_label.c_str());
  for (const FigureSeries& s : series) {
    for (const FigureRow& row : s.rows) {
      std::printf("csv,%s,%g,%.2f,%.2f,%.2f,%llu\n", s.label.c_str(), row.x,
                  row.result.pct_server, row.result.pct_single_peer,
                  row.result.pct_multi_peer,
                  static_cast<unsigned long long>(row.result.measured_queries));
    }
  }
  std::printf("\n");
}

void PrintPageAccessFigure(const std::string& title,
                           const std::vector<PageAccessSeries>& series) {
  std::printf("=== %s ===\n", title.c_str());
  for (const PageAccessSeries& s : series) {
    std::printf("--- %s ---\n", s.label.c_str());
    std::printf("%6s %12s %12s %10s\n", "k", "EINN pages", "INN pages", "saving%");
    for (const PageAccessRow& row : s.rows) {
      double saving =
          row.inn_pages > 0 ? 100.0 * (1.0 - row.einn_pages / row.inn_pages) : 0.0;
      std::printf("%6d %12.2f %12.2f %10.1f\n", row.k, row.einn_pages, row.inn_pages,
                  saving);
    }
  }
  std::printf("csv,series,k,einn_pages,inn_pages\n");
  for (const PageAccessSeries& s : series) {
    for (const PageAccessRow& row : s.rows) {
      std::printf("csv,%s,%d,%.3f,%.3f\n", s.label.c_str(), row.k, row.einn_pages,
                  row.inn_pages);
    }
  }
  std::printf("\n");
}

namespace {

void AppendKv(std::string* out, const char* key, double value, bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.17g%s", key, value, comma ? "," : "");
  *out += buf;
}

void AppendKv(std::string* out, const char* key, uint64_t value, bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%llu%s", key,
                static_cast<unsigned long long>(value), comma ? "," : "");
  *out += buf;
}

void AppendStats(std::string* out, const char* key, const RunningStats& s,
                 bool comma = true) {
  *out += '"';
  *out += key;
  *out += "\":{";
  AppendKv(out, "n", s.count());
  AppendKv(out, "mean", s.mean());
  AppendKv(out, "var", s.variance());
  AppendKv(out, "sum", s.sum());
  AppendKv(out, "min", s.min());
  AppendKv(out, "max", s.max(), false);
  *out += comma ? "}," : "}";
}

}  // namespace

std::string SimulationResultJson(const SimulationResult& r) {
  std::string out = "{";
  AppendKv(&out, "measured_queries", r.measured_queries);
  AppendKv(&out, "by_single_peer", r.by_single_peer);
  AppendKv(&out, "by_multi_peer", r.by_multi_peer);
  AppendKv(&out, "by_server", r.by_server);
  AppendKv(&out, "pct_single_peer", r.pct_single_peer);
  AppendKv(&out, "pct_multi_peer", r.pct_multi_peer);
  AppendKv(&out, "pct_server", r.pct_server);
  AppendStats(&out, "einn_pages", r.einn_pages);
  AppendStats(&out, "inn_pages", r.inn_pages);
  AppendStats(&out, "peers_in_range", r.peers_in_range);
  AppendStats(&out, "p2p_messages_per_query", r.p2p_messages_per_query);
  AppendStats(&out, "p2p_bytes_per_query", r.p2p_bytes_per_query);
  // Messaging-subsystem metrics (appended after the historical fields so
  // golden JSON captured before the net/ layer stays a field-wise prefix).
  AppendStats(&out, "query_latency_s", r.query_latency_s);
  AppendKv(&out, "latency_p50_s", r.latency_p50.value());
  AppendKv(&out, "latency_p95_s", r.latency_p95.value());
  AppendKv(&out, "latency_p99_s", r.latency_p99.value());
  AppendStats(&out, "retries_per_query", r.retries_per_query);
  AppendKv(&out, "transmissions_lost", r.transmissions_lost);
  AppendKv(&out, "replies_missed", r.replies_missed);
  AppendKv(&out, "loss_induced_server_fallbacks", r.loss_induced_server_fallbacks);
  // Storage-engine metrics (appended after the historical fields, same
  // prefix convention as above; all zero unless paged_storage is on).
  AppendStats(&out, "einn_miss_pages", r.einn_miss_pages);
  AppendKv(&out, "buffer_logical_accesses", r.buffer.total());
  AppendKv(&out, "buffer_hits", r.buffer.hits());
  AppendKv(&out, "buffer_misses", r.buffer.misses());
  AppendKv(&out, "buffer_hit_rate", r.buffer.rate());
  // Continuous-query metrics (appended before the tail field, same golden
  // prefix convention; all zero unless `continuous` is on).
  AppendKv(&out, "continuous_steps", r.continuous_steps);
  AppendKv(&out, "continuous_safe_region_steps", r.continuous_safe_region_steps);
  AppendKv(&out, "continuous_peer_region_steps", r.continuous_peer_region_steps);
  AppendKv(&out, "continuous_own_cache_steps", r.continuous_own_cache_steps);
  AppendKv(&out, "continuous_peer_steps", r.continuous_peer_steps);
  AppendKv(&out, "continuous_uncertain_steps", r.continuous_uncertain_steps);
  AppendKv(&out, "continuous_server_steps", r.continuous_server_steps);
  AppendKv(&out, "continuous_region_pages", r.continuous_region_pages);
  AppendStats(&out, "continuous_region_area_m2", r.continuous_region_area_m2);
  AppendKv(&out, "simulated_seconds", r.simulated_seconds, false);
  out += "}";
  return out;
}

void PrintParameterSet(const ParameterSet& p) {
  std::printf("--- %s ---\n", p.name.c_str());
  std::printf("  %-22s %10.0f x %.0f miles\n", "Area", p.area_side_miles, p.area_side_miles);
  std::printf("  %-22s %10d\n", "POI Number", p.poi_number);
  std::printf("  %-22s %10d\n", "MH Number", p.mh_number);
  std::printf("  %-22s %10d POIs\n", "C_Size", p.cache_size);
  std::printf("  %-22s %10.0f %%\n", "M_Percentage", p.move_percentage * 100.0);
  std::printf("  %-22s %10.0f mph\n", "M_Velocity", p.velocity_mph);
  std::printf("  %-22s %10.1f /min\n", "lambda_Query", p.queries_per_minute);
  std::printf("  %-22s %10.0f m\n", "Tx_Range", p.tx_range_m);
  std::printf("  %-22s %10d\n", "lambda_kNN", p.k_nn);
  std::printf("  %-22s %10.1f hr\n", "T_execution", p.execution_hours);
}

}  // namespace senn::sim
