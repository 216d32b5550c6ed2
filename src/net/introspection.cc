#include "net/introspection.h"

#include <cstdio>
#include <sstream>

namespace i3 {
namespace net {

namespace {

void AppendEscaped(std::ostringstream* os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *os << "\\\"";
        break;
      case '\\':
        *os << "\\\\";
        break;
      case '\n':
        *os << "\\n";
        break;
      case '\t':
        *os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *os << buf;
        } else {
          *os << c;
        }
    }
  }
}

/// Counter/gauge value by name (no labels), 0 when absent.
double MetricValue(const obs::MetricsSnapshot& snapshot,
                   const std::string& name) {
  const obs::MetricSample* s = snapshot.Find(name);
  return s == nullptr ? 0.0 : s->value;
}

/// Leaves the level's object open for the caller to close.
void AppendCacheLevel(std::ostringstream* os, const char* level,
                      double hits, double misses, double evictions,
                      const char* occupancy_key, double occupancy) {
  const double lookups = hits + misses;
  *os << "{\"level\": \"" << level << "\", \"hits\": "
      << static_cast<uint64_t>(hits)
      << ", \"misses\": " << static_cast<uint64_t>(misses)
      << ", \"hit_ratio\": " << (lookups > 0 ? hits / lookups : 0.0)
      << ", \"evictions\": " << static_cast<uint64_t>(evictions) << ", \""
      << occupancy_key << "\": " << static_cast<uint64_t>(occupancy);
}

}  // namespace

std::string StatuszJson(const ServerStatus& s) {
  uint64_t open_connections = 0;
  for (const LoopStatus& l : s.loops) open_connections += l.open_connections;
  std::ostringstream os;
  os << "{\n  \"build\": {\"compiler\": \"";
  AppendEscaped(&os, s.build_compiler);
  os << "\", \"mode\": \"" << s.build_mode
     << "\", \"protocol_version\": " << s.protocol_version << "},\n"
     << "  \"uptime_s\": " << s.uptime_s << ",\n"
     << "  \"config\": {\"worker_threads\": " << s.worker_threads
     << ", \"max_queue\": " << s.max_queue
     << ", \"max_connections\": " << s.max_connections
     << ", \"result_cache_entries\": " << s.result_cache_entries
     << ", \"slow_threshold_us\": " << s.slow_threshold_us
     << ", \"slo_window_seconds\": " << s.slo_window_seconds << "},\n"
     << "  \"live\": {\"documents\": " << s.documents
     << ", \"open_connections\": " << open_connections
     << ", \"queue_depth\": " << s.queue_depth
     << ", \"requests_ok\": " << s.requests_ok
     << ", \"requests_shed\": " << s.requests_shed
     << ", \"requests_error\": " << s.requests_error << "},\n"
     << "  \"loops\": [";
  for (size_t i = 0; i < s.loops.size(); ++i) {
    const LoopStatus& l = s.loops[i];
    os << (i == 0 ? "" : ", ") << "{\"loop\": " << i
       << ", \"open_connections\": " << l.open_connections
       << ", \"searches\": " << l.searches
       << ", \"peak_unsent_bytes\": " << l.peak_unsent_bytes << "}";
  }
  os << "],\n"
     << "  \"replication\": {\"replicated_shards\": " << s.replicated_shards
     << ", \"failovers\": " << s.failovers
     << ", \"recoveries\": " << s.recoveries
     << ", \"scrub_pages_healed\": " << s.scrub_pages_healed << "},\n"
     << "  \"slo\": " << s.slo_json << "\n}";
  return os.str();
}

std::string TracezJson(double sample_rate,
                       const std::vector<obs::QueryTrace>& recent,
                       const obs::SlowQueryLog& slow_log) {
  std::ostringstream os;
  os << "{\n  \"sample_rate\": " << sample_rate << ",\n  \"recent\": "
     << obs::TracesToJson(recent)
     << ",\n  \"slow_log\": " << obs::SlowLogToJson(slow_log) << "\n}";
  return os.str();
}

std::string CachezJson(const obs::MetricsSnapshot& snapshot,
                       const std::vector<size_t>& result_cache_stripes) {
  std::ostringstream os;
  os << "{\n  \"levels\": [\n    ";
  AppendCacheLevel(&os, "buffer_pool",
                   MetricValue(snapshot, "i3_buffer_pool_hits_total"),
                   MetricValue(snapshot, "i3_buffer_pool_misses_total"),
                   MetricValue(snapshot, "i3_buffer_pool_evictions_total"),
                   "stripes",
                   MetricValue(snapshot, "i3_buffer_pool_stripes"));
  os << "},\n    ";
  AppendCacheLevel(&os, "cell_cache",
                   MetricValue(snapshot, "i3_cell_cache_hits_total"),
                   MetricValue(snapshot, "i3_cell_cache_misses_total"),
                   MetricValue(snapshot, "i3_cell_cache_evictions_total"),
                   "resident_bytes",
                   MetricValue(snapshot, "i3_cell_cache_bytes"));
  os << "},\n    ";
  AppendCacheLevel(&os, "result_cache",
                   MetricValue(snapshot, "i3_result_cache_hits_total"),
                   MetricValue(snapshot, "i3_result_cache_misses_total"),
                   MetricValue(snapshot, "i3_result_cache_evictions_total"),
                   "entries",
                   MetricValue(snapshot, "i3_result_cache_entries"));
  // Hits served after replaying the writes since their entry was cached.
  os << ", \"replayed_hits\": "
     << static_cast<uint64_t>(
            MetricValue(snapshot, "i3_result_cache_replayed_hits_total"))
     << "}\n  ],\n  \"result_cache_bypass\": "
     << static_cast<uint64_t>(
            MetricValue(snapshot, "i3_result_cache_bypass_total"))
     << ",\n  \"result_cache_stripe_entries\": [";
  for (size_t i = 0; i < result_cache_stripes.size(); ++i) {
    if (i != 0) os << ", ";
    os << result_cache_stripes[i];
  }
  os << "]\n}";
  return os.str();
}

std::string HealthzJson(bool ok, uint64_t uptime_s,
                        const std::vector<ReplicaSetStatus>& shards) {
  std::ostringstream os;
  os << "{\"status\": \"" << (ok ? "ok" : "stopping")
     << "\", \"uptime_s\": " << uptime_s << ", \"shards\": [";
  for (size_t i = 0; i < shards.size(); ++i) {
    const ReplicaSetStatus& s = shards[i];
    if (i != 0) os << ", ";
    os << "{\"shard\": " << s.shard
       << ", \"replicated\": " << (s.replicated ? "true" : "false")
       << ", \"log_head\": " << s.log_head
       << ", \"failovers\": " << s.failovers
       << ", \"recoveries\": " << s.recoveries
       << ", \"scrub\": {\"pages_verified\": " << s.scrub_pages_verified
       << ", \"corrupt_found\": " << s.scrub_corrupt_found
       << ", \"pages_healed\": " << s.scrub_pages_healed << "}"
       << ", \"replicas\": [";
    for (size_t r = 0; r < s.replicas.size(); ++r) {
      const ReplicaStatus& rep = s.replicas[r];
      if (r != 0) os << ", ";
      os << "{\"replica\": " << r << ", \"state\": \""
         << ReplicaStateName(rep.state) << "\", \"watermark\": "
         << rep.watermark << ", \"lag\": " << rep.lag
         << ", \"quarantined_pages\": " << rep.quarantined_pages
         << ", \"read_failures\": " << rep.read_failures
         << ", \"write_failures\": " << rep.write_failures << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

std::string HttpOk(const std::string& content_type, const std::string& body) {
  return "HTTP/1.1 200 OK\r\nContent-Type: " + content_type +
         "\r\nConnection: close\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string HttpNotFound() {
  static constexpr char kBody[] = "not found\n";
  return std::string("HTTP/1.1 404 Not Found\r\nContent-Type: text/plain"
                     "\r\nConnection: close\r\nContent-Length: ") +
         std::to_string(sizeof(kBody) - 1) + "\r\n\r\n" + kBody;
}

}  // namespace net
}  // namespace i3
