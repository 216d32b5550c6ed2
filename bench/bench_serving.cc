// Serving-stack benchmark: the full wire path (client -> TCP -> epoll
// loop -> admission -> Search -> response) against an in-process
// net::Server, plus a forced-overload phase measuring shed behavior.
//
// Differential anchor: the query workload is EXACTLY the hot-path smoke
// workload (tier-0 Twitter stand-in, 20 queries per semantics, seed 42,
// k=10), and the doc-id-sum checksum is folded exactly like
// bench_hotpath's -- so tools/check_bench.py can assert that answers
// served over the wire are the very answers the hot-path smoke run
// records, across the whole serving stack. Within the run, a second
// (order- and score-sensitive) checksum proves wire results
// byte-identical to direct ShardedIndex::Search calls.
//
// Shed phase: a fresh server with a starvation-level default tenant
// budget takes a burst, which must shed with zero errors.
//
// Observability phase: a fresh server with the slow-query threshold on
// the floor serves traced requests; every response must carry a
// consistent span timeline and every request must land in the slow log.
//
// Replication phase: the same workload against a server whose index
// is a 2-replica ReplicaSet, with the corpus inserted through the
// replicated write path. Four wire checksums must all equal the
// unreplicated one -- all-healthy cold, warm (result cache),
// primary-killed cold (every query fails over), and post-recovery cold --
// proving failover and online recovery are invisible at the byte level.
// A full scrub sweep runs with queries in flight to measure scrub
// overhead and to move the i3_scrub_* series.
//
// The JSON's "gates" list (GateList) declares each of these properties as
// an entry for tools/check_bench.py, with the metric series that must
// have moved; throughput and latency figures are recorded, never gated
// (CI timing noise). A --smoke run's file is the gate's serving baseline.
//
// Flags (on top of the shared bench flags): --smoke (tiny config for CI),
// --json=PATH (default BENCH_serving.json), --reps=N.

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "i3/replica_ops.h"
#include "model/replica_set.h"
#include "model/sharded_index.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/clock.h"
#include "obs/histogram.h"

namespace i3 {
namespace bench {
namespace {

struct ServingResult {
  const char* semantics;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// Order+score-sensitive FNV fold over the wire responses, and the same
  /// fold over direct ShardedIndex::Search -- equal iff the wire serves
  /// byte-identical results.
  uint64_t wire_checksum = 0;
  uint64_t direct_checksum = 0;
  /// Doc-id sum folded like bench_hotpath's checksum -- comparable with its
  /// smoke run's.
  uint64_t docsum_checksum = 0;
  /// The wire fold repeated over the timed warm passes, which are served
  /// almost entirely by the server's result cache -- equal to
  /// wire_checksum iff cached responses are byte-identical to the
  /// uncached first pass.
  uint64_t warm_wire_checksum = 0;
};

/// FNV-fold a per-query result checksum into a workload checksum.
void FoldChecksum(uint64_t* acc, uint64_t qsum) {
  for (int i = 0; i < 8; ++i) {
    *acc ^= qsum >> (i * 8) & 0xff;
    *acc *= 1099511628211ull;
  }
}

net::Request ToRequest(const Query& q, uint64_t id, double alpha) {
  net::Request req;
  req.request_id = id;
  req.k = q.k;
  req.semantics = q.semantics;
  req.x = q.location.x;
  req.y = q.location.y;
  req.alpha = alpha;
  req.terms = q.terms;
  return req;
}

ServingResult MeasureSemantics(net::Client* client, ShardedIndex* index,
                               const std::vector<Query>& queries,
                               double alpha, uint32_t reps) {
  ServingResult r;
  r.semantics = SemanticsName(queries.front().semantics);
  r.wire_checksum = 1469598103934665603ull;
  r.direct_checksum = 1469598103934665603ull;

  // Checksum pass: wire vs direct on identical queries.
  for (size_t i = 0; i < queries.size(); ++i) {
    auto wire = client->Call(ToRequest(queries[i], i, alpha));
    if (!wire.ok() ||
        wire.ValueOrDie().outcome != net::ResponseOutcome::kOk) {
      std::fprintf(stderr, "wire search failed: %s\n",
                   wire.ok() ? wire.ValueOrDie().message.c_str()
                             : wire.status().ToString().c_str());
      std::abort();
    }
    FoldChecksum(&r.wire_checksum,
                 net::ResultChecksum(wire.ValueOrDie().results));
    for (const ScoredDoc& d : wire.ValueOrDie().results) {
      r.docsum_checksum += d.doc;
    }
    auto direct = index->Search(queries[i], alpha);
    if (!direct.ok()) {
      std::fprintf(stderr, "direct search failed: %s\n",
                   direct.status().ToString().c_str());
      std::abort();
    }
    FoldChecksum(&r.direct_checksum,
                 net::ResultChecksum(direct.ValueOrDie()));
  }

  // Timed closed-loop passes over the warm index. The repeated queries
  // are result-cache hits after the first pass; folding the checksum per
  // pass proves cached responses byte-identical to the uncached pass.
  obs::HistogramSnapshot latencies_us;
  Timer timer;
  for (uint32_t rep = 0; rep < reps; ++rep) {
    uint64_t fold = 1469598103934665603ull;
    for (size_t i = 0; i < queries.size(); ++i) {
      const uint64_t q0 = obs::NowNanos();
      auto wire = client->Call(ToRequest(queries[i], i, alpha));
      latencies_us.Record((obs::NowNanos() - q0) / 1000);
      if (!wire.ok() ||
          wire.ValueOrDie().outcome != net::ResponseOutcome::kOk) {
        std::fprintf(stderr, "timed wire search failed\n");
        std::abort();
      }
      FoldChecksum(&fold, net::ResultChecksum(wire.ValueOrDie().results));
    }
    if (rep == 0) {
      r.warm_wire_checksum = fold;
    } else if (fold != r.warm_wire_checksum) {
      std::fprintf(stderr, "warm wire checksum drifted between passes\n");
      std::abort();
    }
  }
  const double secs = timer.ElapsedMillis() / 1e3;
  const double n = static_cast<double>(queries.size()) * reps;
  r.qps = n / secs;
  r.p50_us = static_cast<double>(latencies_us.Quantile(0.50));
  r.p99_us = static_cast<double>(latencies_us.Quantile(0.99));
  return r;
}

struct ShedResult {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t error = 0;
  double shed_p50_us = 0.0;
  double shed_p99_us = 0.0;
};

/// Overload phase: a starvation-level default budget (burst 5, 1/s) takes
/// a burst of `sent` requests; everything past the burst must shed, fast.
ShedResult MeasureShedding(ShardedIndex* index, const Query& query,
                           double alpha) {
  ShedResult out;
  net::ServerOptions sopts;
  sopts.worker_threads = 2;
  sopts.default_limit = {.rate = 1.0, .burst = 5.0};
  net::Server server(index, sopts);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "shed-phase server failed to start\n");
    std::abort();
  }
  net::ClientOptions copts;
  copts.port = server.port();
  copts.recv_timeout_ms = 30000;
  auto client = net::Client::Connect(copts);
  if (!client.ok()) {
    std::fprintf(stderr, "shed-phase connect failed\n");
    std::abort();
  }
  obs::HistogramSnapshot shed_us;
  constexpr uint64_t kBurst = 100;
  for (uint64_t i = 0; i < kBurst; ++i) {
    const uint64_t q0 = obs::NowNanos();
    auto resp = client.ValueOrDie()->Call(ToRequest(query, i, alpha));
    const uint64_t us = (obs::NowNanos() - q0) / 1000;
    if (!resp.ok()) {
      std::fprintf(stderr, "shed-phase request failed: %s\n",
                   resp.status().ToString().c_str());
      std::abort();
    }
    ++out.sent;
    switch (resp.ValueOrDie().outcome) {
      case net::ResponseOutcome::kOk:
        ++out.ok;
        break;
      case net::ResponseOutcome::kShed:
        ++out.shed;
        shed_us.Record(us);
        break;
      case net::ResponseOutcome::kError:
        ++out.error;
        break;
    }
  }
  out.shed_p50_us = static_cast<double>(shed_us.Quantile(0.50));
  out.shed_p99_us = static_cast<double>(shed_us.Quantile(0.99));
  server.Stop();
  return out;
}

struct ObsPhaseResult {
  uint64_t sent = 0;
  /// Responses that came back with a non-empty span timeline.
  uint64_t traced_responses = 0;
  /// Timelines where no stage outruns the end-to-end time.
  uint64_t timeline_consistent = 0;
  /// Slow-query log records on the phase's server (threshold 0: all).
  uint64_t slow_recorded = 0;
};

/// Observability phase: every request is traced and the slow-query
/// threshold is 0, so every request must return a timeline and land in
/// the slow log -- and the traced/slow/SLO metric series must move.
ObsPhaseResult MeasureObservability(ShardedIndex* index,
                                    const std::vector<Query>& queries,
                                    double alpha) {
  ObsPhaseResult out;
  net::ServerOptions sopts;
  sopts.worker_threads = 2;
  sopts.slow_threshold_us = 0;
  net::Server server(index, sopts);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "obs-phase server failed to start\n");
    std::abort();
  }
  net::ClientOptions copts;
  copts.port = server.port();
  copts.recv_timeout_ms = 30000;
  auto client = net::Client::Connect(copts);
  if (!client.ok()) {
    std::fprintf(stderr, "obs-phase connect failed\n");
    std::abort();
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    net::Request req = ToRequest(queries[i], i, alpha);
    req.trace = true;
    req.no_cache = true;  // exercise the full queue + index path
    auto resp = client.ValueOrDie()->Call(req);
    if (!resp.ok() ||
        resp.ValueOrDie().outcome != net::ResponseOutcome::kOk) {
      std::fprintf(stderr, "obs-phase request failed\n");
      std::abort();
    }
    ++out.sent;
    const net::Response& r = resp.ValueOrDie();
    if (r.has_trace && r.trace.total_ns > 0 && !r.trace.spans.empty()) {
      ++out.traced_responses;
      bool consistent = true;
      for (const net::WireTraceSpan& s : r.trace.spans) {
        if (s.total_ns > r.trace.total_ns) consistent = false;
      }
      if (consistent) ++out.timeline_consistent;
    }
  }
  out.slow_recorded = server.slow_log().recorded();
  // Stop() pulls a final SLO export into the global registry, so the
  // i3_slo_window_* gauges below reflect this phase's traffic.
  server.Stop();
  return out;
}

struct ReplicaPhaseResult {
  /// Wire checksums (order+score-sensitive fold), all four equal to the
  /// unreplicated OR direct checksum.
  uint64_t baseline_checksum = 0;   ///< all replicas healthy, cache off
  uint64_t warm_checksum = 0;       ///< all healthy, result-cache hits
  uint64_t failover_checksum = 0;   ///< primary killed, cache off
  uint64_t recovered_checksum = 0;  ///< after online recovery, cache off
  uint64_t failovers = 0;           ///< reads served by a non-primary
  uint64_t recoveries = 0;
  uint64_t scrub_pages_verified = 0;
  /// Wall time of the online snapshot + catch-up recovery.
  double recover_ms = 0.0;
  /// p99 of the cold pass with all replicas healthy vs failed-over.
  double baseline_p99_us = 0.0;
  double failover_p99_us = 0.0;
  /// Cold-pass qps without / with a concurrent full scrub sweep.
  double qps_quiet = 0.0;
  double qps_scrubbing = 0.0;
};

/// One cold (cache-bypassing) wire pass; returns the checksum fold and
/// fills `p99_us`/`qps` when non-null.
uint64_t ColdWirePass(net::Client* client, const std::vector<Query>& queries,
                      double alpha, double* p99_us, double* qps) {
  uint64_t fold = 1469598103934665603ull;
  obs::HistogramSnapshot us;
  Timer timer;
  for (size_t i = 0; i < queries.size(); ++i) {
    net::Request req = ToRequest(queries[i], i, alpha);
    req.no_cache = true;
    const uint64_t q0 = obs::NowNanos();
    auto wire = client->Call(req);
    us.Record((obs::NowNanos() - q0) / 1000);
    if (!wire.ok() ||
        wire.ValueOrDie().outcome != net::ResponseOutcome::kOk) {
      std::fprintf(stderr, "replica-phase wire search failed\n");
      std::abort();
    }
    FoldChecksum(&fold, net::ResultChecksum(wire.ValueOrDie().results));
  }
  const double secs = timer.ElapsedMillis() / 1e3;
  if (p99_us != nullptr) {
    *p99_us = static_cast<double>(us.Quantile(0.99));
  }
  if (qps != nullptr && secs > 0) {
    *qps = static_cast<double>(queries.size()) / secs;
  }
  return fold;
}

/// Replication phase: 2-replica index, corpus inserted through the
/// replicated write path; checksum equality across healthy / warm /
/// failed-over / recovered serving, plus scrub overhead.
ReplicaPhaseResult MeasureReplication(const Dataset& ds,
                                      const BenchConfig& cfg,
                                      const std::vector<Query>& queries,
                                      double alpha) {
  ReplicaPhaseResult out;
  I3Options opt;
  opt.space = ds.space;
  opt.signature_bits = cfg.eta;
  opt.buffer_pool.capacity_pages = cfg.pool_pages;
  opt.head_pool_pages = cfg.head_pool_pages;
  opt.cell_cache_bytes = cfg.cell_cache_mb << 20;
  ReplicaSetOptions ropt;
  ropt.replication_factor = 2;
  auto set = ReplicaSet::Create(
      [&opt](uint32_t) { return std::make_unique<I3Index>(opt); },
      MakeI3ReplicaOps([opt](uint32_t) { return opt; }), ropt);
  if (!set.ok()) {
    std::fprintf(stderr, "replica-phase set failed: %s\n",
                 set.status().ToString().c_str());
    std::abort();
  }
  std::vector<std::unique_ptr<SpatialKeywordIndex>> shards;
  shards.push_back(set.MoveValue());
  ShardedIndex index(std::move(shards));
  for (const auto& d : ds.docs) {
    auto st = index.Insert(d);
    if (!st.ok()) {
      std::fprintf(stderr, "replicated insert failed: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
  }
  ReplicaSet* rset = index.replica_set();

  net::ServerOptions sopts;
  sopts.worker_threads = 2;
  sopts.result_cache_entries = cfg.result_cache_entries;
  net::Server server(&index, sopts);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "replica-phase server failed to start\n");
    std::abort();
  }
  net::ClientOptions copts;
  copts.port = server.port();
  copts.recv_timeout_ms = 30000;
  auto client = net::Client::Connect(copts);
  if (!client.ok()) {
    std::fprintf(stderr, "replica-phase connect failed\n");
    std::abort();
  }
  net::Client* c = client.ValueOrDie().get();

  // All-healthy cold baseline, then a warm (result-cache) pass.
  out.baseline_checksum =
      ColdWirePass(c, queries, alpha, &out.baseline_p99_us, nullptr);
  for (int pass = 0; pass < 2; ++pass) {
    uint64_t fold = 1469598103934665603ull;
    for (size_t i = 0; i < queries.size(); ++i) {
      auto wire = c->Call(ToRequest(queries[i], i, alpha));
      if (!wire.ok() ||
          wire.ValueOrDie().outcome != net::ResponseOutcome::kOk) {
        std::fprintf(stderr, "replica-phase warm search failed\n");
        std::abort();
      }
      FoldChecksum(&fold, net::ResultChecksum(wire.ValueOrDie().results));
    }
    out.warm_checksum = fold;
  }

  // Kill the primary: every query must fail over to replica 1 and still
  // serve the identical bytes.
  if (auto st = rset->KillReplica(0); !st.ok()) {
    std::fprintf(stderr, "KillReplica failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  index.ClearCache();
  out.failover_checksum =
      ColdWirePass(c, queries, alpha, &out.failover_p99_us, nullptr);

  // Online recovery (snapshot + catch-up) while the set keeps serving,
  // then the recovered primary serves the same bytes again.
  Timer recover_timer;
  if (auto st = rset->RecoverReplica(0); !st.ok()) {
    std::fprintf(stderr, "RecoverReplica failed: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
  out.recover_ms = recover_timer.ElapsedMillis();
  index.ClearCache();
  out.recovered_checksum = ColdWirePass(c, queries, alpha, nullptr, nullptr);

  // Scrub overhead: cold query passes with and without a concurrent
  // full CRC sweep. One throwaway pass first so both measurements run
  // at the same (lower-level-cache) warmth.
  ColdWirePass(c, queries, alpha, nullptr, nullptr);
  ColdWirePass(c, queries, alpha, nullptr, &out.qps_quiet);
  std::atomic<bool> scrub_done{false};
  // The bench built the replicas itself, so the downcast is safe.
  const uint64_t data_pages =
      static_cast<I3Index*>(rset->replica(0))->DataPageCount();
  std::thread scrubber([&rset, &scrub_done, data_pages]() {
    const uint64_t pages = rset->GetStatus().scrub_pages_verified;
    uint64_t verified = pages;
    // Sweep until every page of both replicas was verified at least once
    // more (the tick size is ReplicaSetOptions::scrub_pages_per_tick).
    while (verified < pages + 2 * data_pages) {
      if (auto st = rset->ScrubTick(); !st.ok()) {
        std::fprintf(stderr, "ScrubTick failed: %s\n",
                     st.ToString().c_str());
        std::abort();
      }
      verified = rset->GetStatus().scrub_pages_verified;
    }
    scrub_done.store(true);
  });
  while (!scrub_done.load()) {
    ColdWirePass(c, queries, alpha, nullptr, &out.qps_scrubbing);
  }
  scrubber.join();

  const ReplicaSetStatus status = rset->GetStatus();
  out.failovers = status.failovers;
  out.recoveries = status.recoveries;
  out.scrub_pages_verified = status.scrub_pages_verified;
  server.Stop();
  return out;
}

int Main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  bool smoke = false;
  uint32_t reps = 0;
  std::string json_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = static_cast<uint32_t>(std::atoi(argv[i] + 7));
    }
  }
  const int tier = smoke ? 0 : 1;
  // The smoke workload mirrors bench_hotpath's exactly (tier 0, 20
  // queries, seed 42, k=10), so the docsum checksums are comparable.
  const uint32_t num_queries = smoke ? 20 : 100;
  if (reps == 0) reps = smoke ? 3 : 20;

  std::printf("building %s (scale %.2f)...\n", kTwitterNames[tier],
              cfg.scale);
  Dataset ds = MakeTwitter(cfg, tier);
  auto inner = BuildI3(ds, cfg);
  std::vector<std::unique_ptr<SpatialKeywordIndex>> shards;
  shards.push_back(std::move(inner));
  ShardedIndex index(std::move(shards));
  QueryGenerator qgen(ds);

  net::ServerOptions sopts;
  sopts.worker_threads = 2;
  sopts.result_cache_entries = cfg.result_cache_entries;
  net::Server server(&index, sopts);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server failed to start\n");
    return 1;
  }
  net::ClientOptions copts;
  copts.port = server.port();
  copts.recv_timeout_ms = 30000;
  auto client = net::Client::Connect(copts);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  std::vector<ServingResult> results;
  std::vector<Query> shed_query;
  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    auto queries = qgen.Freq(cfg.default_qn, num_queries, /*k=*/10, sem,
                             /*seed=*/42);
    if (shed_query.empty()) shed_query.push_back(queries.front());
    results.push_back(MeasureSemantics(client.ValueOrDie().get(), &index,
                                       queries, cfg.default_alpha, reps));
  }
  server.Stop();

  const ShedResult shed =
      MeasureShedding(&index, shed_query.front(), cfg.default_alpha);

  const ObsPhaseResult obs_phase = MeasureObservability(
      &index,
      qgen.Freq(cfg.default_qn, num_queries, /*k=*/10, Semantics::kOr,
                /*seed=*/42),
      cfg.default_alpha);

  const ReplicaPhaseResult replica_phase = MeasureReplication(
      ds, cfg,
      qgen.Freq(cfg.default_qn, num_queries, /*k=*/10, Semantics::kOr,
                /*seed=*/42),
      cfg.default_alpha);

  PrintRule(5, 12);
  PrintRow({"semantics", "qps", "p50us", "p99us", "wire==direct"}, 12);
  PrintRule(5, 12);
  for (const ServingResult& r : results) {
    PrintRow({r.semantics, Fmt(r.qps, 0), Fmt(r.p50_us, 0),
              Fmt(r.p99_us, 0),
              r.wire_checksum == r.direct_checksum ? "yes" : "NO"},
             12);
  }
  PrintRule(5, 12);
  std::printf("shed phase: %" PRIu64 "/%" PRIu64
              " shed (%" PRIu64 " ok, %" PRIu64 " error), "
              "shed p50 %.0fus p99 %.0fus\n",
              shed.shed, shed.sent, shed.ok, shed.error, shed.shed_p50_us,
              shed.shed_p99_us);
  std::printf("obs phase: %" PRIu64 "/%" PRIu64 " traced (%" PRIu64
              " consistent), %" PRIu64 " slow-log records\n",
              obs_phase.traced_responses, obs_phase.sent,
              obs_phase.timeline_consistent, obs_phase.slow_recorded);
  const bool replica_identical =
      replica_phase.baseline_checksum == replica_phase.warm_checksum &&
      replica_phase.baseline_checksum == replica_phase.failover_checksum &&
      replica_phase.baseline_checksum == replica_phase.recovered_checksum;
  std::printf("replica phase: checksums %s, %" PRIu64 " failovers, "
              "%" PRIu64 " recoveries (%.1fms), %" PRIu64
              " pages scrubbed, qps %.0f quiet / %.0f scrubbing\n",
              replica_identical ? "identical" : "DIVERGED",
              replica_phase.failovers, replica_phase.recoveries,
              replica_phase.recover_ms, replica_phase.scrub_pages_verified,
              replica_phase.qps_quiet, replica_phase.qps_scrubbing);

  // Gate entries (tools/check_bench.py): the wire must serve what the
  // in-process search returns, and -- the workload being the hot-path
  // smoke workload -- the answers of the committed hot-path baseline.
  GateList g("serving.");
  for (const ServingResult& r : results) {
    const std::string sem = std::string(r.semantics) + ".";
    const std::string direct = "serving." + sem + "direct_checksum";
    g.Record(sem + "direct_checksum", r.direct_checksum);
    g.Exact(sem + "wire_checksum", r.wire_checksum, direct);
    g.Exact(sem + "warm_wire_checksum", r.warm_wire_checksum, direct);
    g.Exact(sem + "docsum_checksum", r.docsum_checksum,
            "hotpath." + sem + "checksum");
    g.Record(sem + "qps", r.qps);
    g.Record(sem + "p50_us", r.p50_us);
    g.Record(sem + "p99_us", r.p99_us);
  }
  g.Exact("shed.sent", shed.sent);
  g.Exact("shed.answered", shed.ok + shed.shed, "serving.shed.sent");
  g.Nonzero("shed.shed", shed.shed);
  g.Exact("shed.error", shed.error);
  g.Record("shed.ok", shed.ok);
  g.Record("shed.shed_p50_us", shed.shed_p50_us);
  g.Record("shed.shed_p99_us", shed.shed_p99_us);
  const std::string sent = "serving.obs.sent";
  g.Exact("obs.sent", obs_phase.sent);
  g.Exact("obs.traced_responses", obs_phase.traced_responses, sent);
  g.Exact("obs.timeline_consistent", obs_phase.timeline_consistent, sent);
  g.Exact("obs.slow_recorded", obs_phase.slow_recorded, sent);
  // The replicated index serves the unreplicated OR answers, bytes and all,
  // whether healthy, cached, failed over or recovered.
  const ReplicaPhaseResult& rp = replica_phase;
  const std::string or_direct = "serving.OR.direct_checksum";
  g.Exact("replica.baseline_checksum", rp.baseline_checksum, or_direct);
  g.Exact("replica.warm_checksum", rp.warm_checksum, or_direct);
  g.Exact("replica.failover_checksum", rp.failover_checksum, or_direct);
  g.Exact("replica.recovered_checksum", rp.recovered_checksum, or_direct);
  g.Nonzero("replica.failovers", rp.failovers);
  g.Nonzero("replica.recoveries", rp.recoveries);
  g.Nonzero("replica.scrub_pages_verified", rp.scrub_pages_verified);
  g.Record("replica.recover_ms", rp.recover_ms);
  g.Record("replica.baseline_p99_us", rp.baseline_p99_us);
  g.Record("replica.failover_p99_us", rp.failover_p99_us);
  g.Record("replica.qps_quiet", rp.qps_quiet);
  g.Record("replica.qps_scrubbing", rp.qps_scrubbing);
  for (const char* counter :
       {"i3_requests_shed_total", "i3_result_cache_hits_total",
        "i3_net_traced_requests_total", "i3_slow_queries_total"}) {
    g.Metric("nonzero", counter);
  }
  g.Metric("nonzero", "i3_net_requests_total", {{"outcome", "ok"}});
  g.Metric("nonzero", "i3_request_latency_us", {{"outcome", "ok"}});
  g.Metric("nonzero", "i3_slo_window_requests", {{"tenant", "0"}});
  g.Metric("record", "i3_net_connections");
  for (const char* family :
       {"i3_failover_total", "i3_replica_recoveries_total",
        "i3_scrub_pages_total", "i3_replica_healthy"}) {
    g.Metric("nonzero", family, {{"shard", "0"}});
  }
  // The bench plants no corruption, so these need only exist.
  g.Metric("record", "i3_scrub_corrupt_total", {{"shard", "0"}});
  g.Metric("record", "i3_scrub_healed_total", {{"shard", "0"}});

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"serving\",\n"
               "  \"dataset\": {\"name\": \"%s\", \"docs\": %zu},\n"
               "  \"config\": {\"k\": 10, \"qn\": %u, \"eta\": %u, "
               "\"alpha\": %.2f, \"queries\": %u, \"reps\": %u, "
               "\"smoke\": %s},\n"
               "  \"gates\": %s,\n"
               "  \"obs\":\n%s\n}\n",
               ds.name.c_str(), ds.docs.size(), cfg.default_qn, cfg.eta,
               cfg.default_alpha, num_queries, reps,
               smoke ? "true" : "false", g.Json().c_str(),
               MetricsSnapshotJson("  ").c_str());
  DumpMetricsIfRequested(cfg);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace i3

int main(int argc, char** argv) { return i3::bench::Main(argc, argv); }
