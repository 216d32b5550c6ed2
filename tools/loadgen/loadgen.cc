// loadgen: closed-loop load generator for the serving front end.
//
// Opens N connections to a running `spatialkw_cli serve` (or any
// net::Server), drives a seeded random top-k workload through each, and
// reports throughput, outcome counts, and latency percentiles -- human
// text by default, a single JSON object with --json (for CI and
// tools/check_bench.py-style gating).
//
// Usage:
//   loadgen --port=N [--host=H] [--connections=4] [--requests=500]
//           [--seconds=0]
//           [--seed=42] [--k=10] [--qn=2] [--max-term=50]
//           [--and-fraction=0.5] [--alpha=0.5] [--tenants=1]
//           [--tenant-base=0] [--distinct=0]
//           [--deadline-ms=0] [--space=minx,miny,maxx,maxy]
//           [--connect-retries=20] [--json] [--trace]
//
// `--requests` is per connection; `--seconds=S` instead keeps every
// connection sending for S seconds. Terms are uniform ids in
// [0, max-term); locations are uniform in `--space` (default the
// 0..100 square the synthetic corpora use). Tenant ids round-robin over
// `--tenant-base` + [0, `--tenants`), so shed behavior under per-tenant
// limits is observable from one process, and two loadgen processes can
// play disjoint tenants. `--distinct=N` draws every request Zipf(1) from
// one pool of N requests shared by all connections (a repeat-heavy mix
// that the server's result cache answers). Every response must be a
// well-formed ok/shed/error frame; anything else (transport error, id
// mismatch) is a hard failure and a nonzero exit.
//
// `--trace` sets the wire trace flag on every request and reports the
// aggregated server-side span timeline next to the client-observed
// latency: per-stage average time and share, plus the server-total vs
// client-total gap (wire + client overhead the server cannot see). It
// also splits ok latency into result-cache hits and misses, which only
// the trace's `result_cache_hit` annotation tells apart.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/client.h"
#include "net/protocol.h"
#include "obs/clock.h"
#include "obs/histogram.h"

using namespace i3;

namespace {

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  uint32_t connections = 4;
  uint32_t requests = 500;
  double seconds = 0.0;
  uint64_t seed = 42;
  uint32_t k = 10;
  uint32_t qn = 2;
  uint32_t max_term = 50;
  double and_fraction = 0.5;
  double alpha = 0.5;
  uint32_t tenants = 1;
  uint32_t tenant_base = 0;
  uint32_t distinct = 0;
  uint32_t deadline_ms = 0;
  double space[4] = {0.0, 0.0, 100.0, 100.0};
  uint32_t connect_retries = 20;
  bool json = false;
  bool trace = false;
};

struct WorkerStats {
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t error = 0;
  uint64_t mismatched = 0;  ///< id mismatches: always a bug somewhere
  obs::HistogramSnapshot ok_latency_us;
  obs::HistogramSnapshot shed_latency_us;
  /// --trace only: ok latency of result-cache hits and of misses.
  obs::HistogramSnapshot hit_latency_us;
  obs::HistogramSnapshot miss_latency_us;

  /// --trace aggregation: responses that carried a timeline, the
  /// server-reported totals, the client-observed wall time of those same
  /// requests, and per-stage sums across all traced responses.
  uint64_t traced = 0;
  uint64_t server_total_ns = 0;
  uint64_t client_total_ns = 0;
  std::map<std::string, uint64_t> stage_ns;

  void MergeFrom(const WorkerStats& o) {
    ok += o.ok;
    shed += o.shed;
    error += o.error;
    mismatched += o.mismatched;
    ok_latency_us.MergeFrom(o.ok_latency_us);
    shed_latency_us.MergeFrom(o.shed_latency_us);
    hit_latency_us.MergeFrom(o.hit_latency_us);
    miss_latency_us.MergeFrom(o.miss_latency_us);
    traced += o.traced;
    server_total_ns += o.server_total_ns;
    client_total_ns += o.client_total_ns;
    for (const auto& [name, ns] : o.stage_ns) stage_ns[name] += ns;
  }
};

bool ParseFlag(const char* arg, const char* name, const char** value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  *value = arg + n;
  return true;
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  const char* v = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--host=", &v)) {
      opt->host = v;
    } else if (ParseFlag(argv[i], "--port=", &v)) {
      opt->port = static_cast<uint16_t>(std::atoi(v));
    } else if (ParseFlag(argv[i], "--connections=", &v)) {
      opt->connections = static_cast<uint32_t>(std::atoi(v));
    } else if (ParseFlag(argv[i], "--requests=", &v)) {
      opt->requests = static_cast<uint32_t>(std::atoi(v));
    } else if (ParseFlag(argv[i], "--seconds=", &v)) {
      opt->seconds = std::atof(v);
    } else if (ParseFlag(argv[i], "--seed=", &v)) {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (ParseFlag(argv[i], "--k=", &v)) {
      opt->k = static_cast<uint32_t>(std::atoi(v));
    } else if (ParseFlag(argv[i], "--qn=", &v)) {
      opt->qn = static_cast<uint32_t>(std::atoi(v));
    } else if (ParseFlag(argv[i], "--max-term=", &v)) {
      opt->max_term = static_cast<uint32_t>(std::atoi(v));
    } else if (ParseFlag(argv[i], "--and-fraction=", &v)) {
      opt->and_fraction = std::atof(v);
    } else if (ParseFlag(argv[i], "--alpha=", &v)) {
      opt->alpha = std::atof(v);
    } else if (ParseFlag(argv[i], "--tenants=", &v)) {
      opt->tenants = static_cast<uint32_t>(std::atoi(v));
    } else if (ParseFlag(argv[i], "--tenant-base=", &v)) {
      opt->tenant_base = static_cast<uint32_t>(std::atoi(v));
    } else if (ParseFlag(argv[i], "--distinct=", &v)) {
      opt->distinct = static_cast<uint32_t>(std::atoi(v));
    } else if (ParseFlag(argv[i], "--deadline-ms=", &v)) {
      opt->deadline_ms = static_cast<uint32_t>(std::atoi(v));
    } else if (ParseFlag(argv[i], "--space=", &v)) {
      if (std::sscanf(v, "%lf,%lf,%lf,%lf", &opt->space[0], &opt->space[1],
                      &opt->space[2], &opt->space[3]) != 4) {
        std::fprintf(stderr, "bad --space (want minx,miny,maxx,maxy)\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--connect-retries=", &v)) {
      opt->connect_retries = static_cast<uint32_t>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt->json = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt->trace = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  if (opt->port == 0) {
    std::fprintf(stderr, "--port is required\n");
    return false;
  }
  if (opt->connections == 0 || opt->requests == 0 || opt->qn == 0 ||
      opt->max_term == 0 || opt->tenants == 0) {
    std::fprintf(stderr,
                 "--connections/--requests/--qn/--max-term/--tenants must "
                 "be >= 1\n");
    return false;
  }
  return true;
}

net::Request RandomRequest(const Options& opt, Rng* rng, uint64_t id) {
  net::Request req;
  req.request_id = id;
  req.tenant = opt.tenant_base + static_cast<uint32_t>(id % opt.tenants);
  req.k = opt.k;
  req.semantics = rng->Chance(opt.and_fraction) ? Semantics::kAnd
                                                : Semantics::kOr;
  req.deadline_ms = opt.deadline_ms;
  req.trace = opt.trace;
  req.x = rng->UniformDouble(opt.space[0], opt.space[2]);
  req.y = rng->UniformDouble(opt.space[1], opt.space[3]);
  req.alpha = opt.alpha;
  while (req.terms.size() < opt.qn) {
    const TermId t = static_cast<TermId>(
        rng->UniformInt(0, static_cast<int64_t>(opt.max_term) - 1));
    bool dup = false;
    for (const TermId seen : req.terms) dup = dup || seen == t;
    if (!dup) req.terms.push_back(t);
    if (req.terms.size() >= opt.max_term) break;
  }
  return req;
}

/// The --distinct request pool, shared read-only by every connection.
struct RequestPool {
  std::vector<net::Request> requests;
  std::unique_ptr<ZipfSampler> rank;
};

void RunWorker(const Options& opt, const RequestPool& pool,
               uint32_t worker_id, WorkerStats* stats,
               std::atomic<bool>* hard_failure) {
  net::ClientOptions copts;
  copts.host = opt.host;
  copts.port = opt.port;
  copts.connect_retries = opt.connect_retries;
  copts.recv_timeout_ms = 30000;
  auto client = net::Client::Connect(copts);
  if (!client.ok()) {
    std::fprintf(stderr, "worker %u: %s\n", worker_id,
                 client.status().ToString().c_str());
    hard_failure->store(true);
    return;
  }
  Rng rng(opt.seed * 1000003 + worker_id);
  const uint64_t end_ns =
      obs::NowNanos() + static_cast<uint64_t>(opt.seconds * 1e9);
  for (uint32_t i = 0;
       opt.seconds > 0 ? obs::NowNanos() < end_ns : i < opt.requests; ++i) {
    const uint64_t id = uint64_t{worker_id} << 32 | i;
    net::Request req;
    if (pool.rank != nullptr) {
      req = pool.requests[pool.rank->Sample(&rng)];
      req.request_id = id;
      req.tenant = opt.tenant_base + static_cast<uint32_t>(id % opt.tenants);
    } else {
      req = RandomRequest(opt, &rng, id);
    }
    const uint64_t t0 = obs::NowNanos();
    auto resp = client.ValueOrDie()->Call(req);
    const uint64_t us = (obs::NowNanos() - t0) / 1000;
    if (!resp.ok()) {
      std::fprintf(stderr, "worker %u request %u: %s\n", worker_id, i,
                   resp.status().ToString().c_str());
      hard_failure->store(true);
      return;
    }
    const net::Response& r = resp.ValueOrDie();
    if (r.request_id != id) {
      ++stats->mismatched;
      continue;
    }
    bool hit = false;
    if (r.has_trace) {
      ++stats->traced;
      for (const auto& a : r.trace.annotations) {
        hit = hit || (a.name == "result_cache_hit" && a.value != 0);
      }
      stats->server_total_ns += r.trace.total_ns;
      stats->client_total_ns += us * 1000;
      for (const auto& span : r.trace.spans) {
        stats->stage_ns[span.name] += span.total_ns;
      }
    }
    switch (r.outcome) {
      case net::ResponseOutcome::kOk:
        ++stats->ok;
        stats->ok_latency_us.Record(us);
        if (r.has_trace) {
          (hit ? stats->hit_latency_us : stats->miss_latency_us).Record(us);
        }
        break;
      case net::ResponseOutcome::kShed:
        ++stats->shed;
        stats->shed_latency_us.Record(us);
        break;
      case net::ResponseOutcome::kError:
        ++stats->error;
        break;
    }
  }
}

void PrintLatency(const char* label, const obs::HistogramSnapshot& h) {
  if (h.count() == 0) return;
  std::printf("  %-16s p50 %llu  p90 %llu  p99 %llu\n", label,
              static_cast<unsigned long long>(h.Quantile(0.5)),
              static_cast<unsigned long long>(h.Quantile(0.9)),
              static_cast<unsigned long long>(h.Quantile(0.99)));
}

void PrintHuman(const Options& opt, const WorkerStats& total,
                double elapsed_s, double qps) {
  std::printf("loadgen: %u connections, %llu requests in %.2fs "
              "(%.0f req/s)\n",
              opt.connections,
              static_cast<unsigned long long>(total.ok + total.shed +
                                              total.error),
              elapsed_s, qps);
  std::printf("  ok       %llu\n",
              static_cast<unsigned long long>(total.ok));
  std::printf("  shed     %llu\n",
              static_cast<unsigned long long>(total.shed));
  std::printf("  error    %llu\n",
              static_cast<unsigned long long>(total.error));
  PrintLatency("ok latency us", total.ok_latency_us);
  PrintLatency("shed latency us", total.shed_latency_us);
  PrintLatency("hit latency us", total.hit_latency_us);
  PrintLatency("miss latency us", total.miss_latency_us);
  if (total.traced > 0) {
    const double n = static_cast<double>(total.traced);
    const double server_avg_us =
        static_cast<double>(total.server_total_ns) / n / 1000.0;
    const double client_avg_us =
        static_cast<double>(total.client_total_ns) / n / 1000.0;
    std::printf("  traced   %llu responses\n",
                static_cast<unsigned long long>(total.traced));
    std::printf("  server stages (avg us/request, share of server "
                "total):\n");
    for (const auto& [name, ns] : total.stage_ns) {
      std::printf("    %-22s %10.1f  %5.1f%%\n", name.c_str(),
                  static_cast<double>(ns) / n / 1000.0,
                  total.server_total_ns > 0
                      ? 100.0 * static_cast<double>(ns) /
                            static_cast<double>(total.server_total_ns)
                      : 0.0);
    }
    std::printf("  server total avg %.1f us, client-observed avg %.1f us "
                "(gap %.1f us = wire + client)\n",
                server_avg_us, client_avg_us,
                client_avg_us - server_avg_us);
  }
}

std::string LatencyJson(const obs::HistogramSnapshot& h) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"p50\": %llu, \"p90\": %llu, \"p99\": %llu}",
                static_cast<unsigned long long>(h.Quantile(0.5)),
                static_cast<unsigned long long>(h.Quantile(0.9)),
                static_cast<unsigned long long>(h.Quantile(0.99)));
  return buf;
}

void PrintJson(const Options& opt, const WorkerStats& total,
               double elapsed_s, double qps) {
  std::printf(
      "{\"connections\": %u, \"requests_per_connection\": %u, "
      "\"seed\": %llu, \"elapsed_s\": %.4f, \"qps\": %.1f, "
      "\"ok\": %llu, \"shed\": %llu, "
      "\"error\": %llu, \"mismatched\": %llu, "
      "\"ok_latency_us\": %s, \"shed_latency_us\": %s",
      opt.connections, opt.requests,
      static_cast<unsigned long long>(opt.seed), elapsed_s, qps,
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.shed),
      static_cast<unsigned long long>(total.error),
      static_cast<unsigned long long>(total.mismatched),
      LatencyJson(total.ok_latency_us).c_str(),
      LatencyJson(total.shed_latency_us).c_str());
  if (total.traced > 0) {
    std::printf(
        ", \"trace\": {\"responses\": %llu, \"server_total_ns\": %llu, "
        "\"client_total_ns\": %llu, \"hits\": %llu, "
        "\"hit_latency_us\": %s, \"miss_latency_us\": %s, "
        "\"stages_ns\": {",
        static_cast<unsigned long long>(total.traced),
        static_cast<unsigned long long>(total.server_total_ns),
        static_cast<unsigned long long>(total.client_total_ns),
        static_cast<unsigned long long>(total.hit_latency_us.count()),
        LatencyJson(total.hit_latency_us).c_str(),
        LatencyJson(total.miss_latency_us).c_str());
    bool first = true;
    for (const auto& [name, ns] : total.stage_ns) {
      std::printf("%s\"%s\": %llu", first ? "" : ", ", name.c_str(),
                  static_cast<unsigned long long>(ns));
      first = false;
    }
    std::printf("}}");
  }
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) return 2;

  RequestPool pool;
  if (opt.distinct > 0) {
    Rng rng(opt.seed);
    for (uint32_t i = 0; i < opt.distinct; ++i) {
      pool.requests.push_back(RandomRequest(opt, &rng, i));
    }
    pool.rank = std::make_unique<ZipfSampler>(opt.distinct, 1.0);
  }
  std::vector<WorkerStats> per_worker(opt.connections);
  std::atomic<bool> hard_failure{false};
  const uint64_t t0 = obs::NowNanos();
  std::vector<std::thread> threads;
  threads.reserve(opt.connections);
  for (uint32_t w = 0; w < opt.connections; ++w) {
    threads.emplace_back(RunWorker, std::cref(opt), std::cref(pool), w,
                         &per_worker[w], &hard_failure);
  }
  for (auto& t : threads) t.join();
  const double elapsed_s =
      static_cast<double>(obs::NowNanos() - t0) / 1e9;

  WorkerStats total;
  for (const WorkerStats& w : per_worker) total.MergeFrom(w);
  const double qps =
      elapsed_s > 0
          ? static_cast<double>(total.ok + total.shed + total.error) /
                elapsed_s
          : 0.0;
  if (opt.json) {
    PrintJson(opt, total, elapsed_s, qps);
  } else {
    PrintHuman(opt, total, elapsed_s, qps);
  }
  if (hard_failure.load()) return 1;
  if (total.mismatched > 0) return 1;
  return 0;
}
