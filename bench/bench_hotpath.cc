// Single-thread query hot-path benchmark: queries/sec, bytes allocated per
// query, and pages touched per query on the Table-2-style synthetic
// workload, written to BENCH_hotpath.json so successive PRs have a perf
// trajectory to regress against.
//
// Three metrics, three reasons:
//   qps              -- the headline: CPU cost of Algorithms 4-6 once the
//                       buffer pool is warm (no simulated device latency).
//   alloc bytes/query-- allocator traffic of the steady-state loop (via the
//                       common/alloc_hook.h counting allocator); the
//                       zero-copy + arena hot path is supposed to keep this
//                       near zero, and a wall-clock-invisible regression
//                       here shows up first.
//   pages/query      -- cold-cache page accesses, the paper's own cost
//                       model; guards against "faster by reading more".
//
// Each results row also carries the search layer's ledger: the work counts
// candidates_popped, rows_joined and docs_scored per query, summed from
// each query's QueryStats, and "stages", the per-query time and call count
// of each traced search stage, the minimum over a few traced passes.
//
// "gates" is the smoke tier's list of gate entries (GateList), which
// tools/check_bench.py compares with the committed BENCH_hotpath.json:
// checksums, work counts and the build's page I/O exact, cold and warm
// pages per query within budget, the metric series that must have moved
// nonzero, timings and the build's write-path counters recorded. A full
// run measures the smoke tier once more for them, so a full run's file is
// the gate's baseline. The run ends with the smoke index's invariant
// check (canonical pages, exact free-space map) and exits nonzero on a
// violation.
//
// Flags (on top of the shared bench flags): --smoke (tiny config for CI),
// --json=PATH (default BENCH_hotpath.json), --reps=N.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/alloc_hook.h"
#include "common/timer.h"
#include "datagen/query_gen.h"

I3_DEFINE_ALLOC_HOOK()

namespace i3 {
namespace bench {
namespace {

/// The search work counts a results row records, summed over a query set.
struct WorkCounts {
  uint64_t candidates_popped = 0;
  uint64_t rows_joined = 0;
  uint64_t docs_scored = 0;

  void Add(const QueryStats& s) {
    candidates_popped += s.work.Get("candidates_popped");
    rows_joined += s.work.Get("rows_joined");
    docs_scored += s.work.Get("docs_scored");
  }
};

/// Searches `q` with a fresh QueryStats (and `trace`, when non-null) in its
/// request context; aborts on error. Returns the results.
std::vector<ScoredDoc> SearchCounted(I3Index* index, const Query& q,
                                     double alpha, WorkCounts* work,
                                     obs::QueryTrace* trace = nullptr) {
  Query counted = q;
  QueryStats stats;
  counted.control.stats = &stats;
  counted.control.trace = trace;
  auto res = index->Search(counted, alpha);
  if (!res.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 res.status().ToString().c_str());
    std::abort();
  }
  if (work != nullptr) work->Add(stats);
  return res.MoveValue();
}

/// `work` per query as JSON members (no braces).
std::string WorkJson(const WorkCounts& work, size_t queries) {
  static constexpr char kFormat[] =
      "\"candidates_popped\": %.2f, \"rows_joined\": %.2f, "
      "\"docs_scored\": %.2f";
  const double n = static_cast<double>(queries);
  char buf[160];
  std::snprintf(buf, sizeof(buf), kFormat, work.candidates_popped / n,
                work.rows_joined / n, work.docs_scored / n);
  return buf;
}

/// The entry of `stages` named `name`, appended empty on first use.
obs::TraceStage* StageNamed(std::vector<obs::TraceStage>* stages,
                            const std::string& name) {
  for (obs::TraceStage& st : *stages) {
    if (st.name == name) return &st;
  }
  stages->push_back({name, 0, 0});
  return &stages->back();
}

/// Per-stage totals of `passes` traced passes over `queries`: each stage's
/// smallest pass total (the least disturbed pass) and its calls per pass.
std::vector<obs::TraceStage> TraceStages(I3Index* index,
                                         const std::vector<Query>& queries,
                                         double alpha, int passes) {
  std::vector<obs::TraceStage> best;
  for (int pass = 0; pass < passes; ++pass) {
    std::vector<obs::TraceStage> sum;
    for (const Query& q : queries) {
      obs::QueryTrace trace;
      SearchCounted(index, q, alpha, nullptr, &trace);
      for (const obs::TraceStage& st : trace.stages) {
        obs::TraceStage* t = StageNamed(&sum, st.name);
        t->total_ns += st.total_ns;
        t->calls += st.calls;
      }
    }
    for (const obs::TraceStage& st : sum) {
      obs::TraceStage* b = StageNamed(&best, st.name);
      const bool first = b->calls == 0;
      b->total_ns = first ? st.total_ns : std::min(b->total_ns, st.total_ns);
      b->calls = st.calls;
    }
  }
  return best;
}

struct HotpathResult {
  const char* semantics;
  double qps = 0.0;
  double us_per_query = 0.0;
  /// Steady-state per-query latency distribution (log-linear histogram,
  /// <= 3.125% relative error).
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  double alloc_bytes_per_query = 0.0;
  double alloc_count_per_query = 0.0;
  double pages_per_query = 0.0;
  uint64_t checksum = 0;  // defeats dead-code elimination; sanity across runs
  WorkCounts work;
  std::vector<obs::TraceStage> stages;  // per-pass totals, min over passes
};

/// Traced passes per query set; each stage keeps its fastest pass.
constexpr int kTracedPasses = 5;
/// Queries per semantics and timed passes of the smoke workload.
constexpr uint32_t kSmokeQueries = 20;
constexpr uint32_t kSmokeReps = 3;

HotpathResult MeasureSemantics(I3Index* index,
                               const std::vector<Query>& queries,
                               double alpha, uint32_t reps) {
  HotpathResult r;
  r.semantics = SemanticsName(queries.front().semantics);

  obs::HistogramSnapshot latencies_us;
  auto run_set = [&](bool timed) {
    for (const Query& q : queries) {
      const uint64_t q0 = timed ? obs::NowNanos() : 0;
      auto res = index->Search(q, alpha);
      if (timed) latencies_us.Record((obs::NowNanos() - q0) / 1000);
      if (!res.ok()) {
        std::fprintf(stderr, "search failed: %s\n",
                     res.status().ToString().c_str());
        std::abort();
      }
    }
  };

  // Cold pass: every page access charged (the paper's I/O metric), and
  // each query's work counted from its request context.
  index->ClearCache();
  index->ResetIoStats();
  for (const Query& q : queries) {
    for (const ScoredDoc& d : SearchCounted(index, q, alpha, &r.work)) {
      r.checksum += d.doc;
    }
  }
  r.pages_per_query = static_cast<double>(index->io_stats().TotalReads()) /
                      queries.size();
  RecordIoMetrics(index->io_stats());  // cold-pass delta (stats just reset)

  // Warm pass to fill the buffer pool, then the timed steady-state loop.
  run_set(/*timed=*/false);
  const AllocTally before = ThreadAllocTally();
  Timer timer;
  for (uint32_t rep = 0; rep < reps; ++rep) run_set(/*timed=*/true);
  const double secs = timer.ElapsedMillis() / 1e3;
  const AllocTally cost = ThreadAllocTally() - before;
  // Traced passes last: a trace allocates, and the tally above is closed.
  r.stages = TraceStages(index, queries, alpha, kTracedPasses);

  const double n = static_cast<double>(queries.size()) * reps;
  r.qps = n / secs;
  r.us_per_query = secs * 1e6 / n;
  r.p50_us = static_cast<double>(latencies_us.Quantile(0.50));
  r.p90_us = static_cast<double>(latencies_us.Quantile(0.90));
  r.p99_us = static_cast<double>(latencies_us.Quantile(0.99));
  r.max_us = static_cast<double>(latencies_us.Max());
  r.alloc_bytes_per_query = static_cast<double>(cost.bytes) / n;
  r.alloc_count_per_query = static_cast<double>(cost.count) / n;
  return r;
}

/// The write layer's ledger: what building the index cost.
struct BuildLedger {
  size_t docs = 0;
  uint64_t tuples = 0;
  uint64_t data_reads = 0;
  uint64_t data_writes = 0;
  uint64_t head_writes = 0;
  double us_per_tuple = 0.0;
  uint64_t appends_in_place = 0;  // rows appended to an encoded group
  uint64_t groups_reencoded = 0;  // groups encoded from rows by a splice
};

/// Current value of the process-wide counter `name` (0 until registered).
uint64_t CounterValue(const char* name) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  const obs::MetricSample* s = snap.Find(name);
  return s == nullptr ? 0 : static_cast<uint64_t>(s->value);
}

/// Builds the index of `ds`, recording the build's charged page I/O, its
/// time per inserted tuple and its write-path counters in `out`.
std::unique_ptr<I3Index> BuildWithLedger(const Dataset& ds,
                                         const BenchConfig& cfg,
                                         BuildLedger* out) {
  const uint64_t in_place0 = CounterValue("i3_cell_appends_in_place_total");
  const uint64_t reencoded0 = CounterValue("i3_cell_groups_reencoded_total");
  Timer timer;
  auto index = BuildI3(ds, cfg);
  const double us = timer.ElapsedMillis() * 1e3;
  out->appends_in_place =
      CounterValue("i3_cell_appends_in_place_total") - in_place0;
  out->groups_reencoded =
      CounterValue("i3_cell_groups_reencoded_total") - reencoded0;
  const IoStats io = index->io_stats();
  out->docs = ds.docs.size();
  out->tuples = 0;
  for (const SpatialDocument& d : ds.docs) out->tuples += d.terms.size();
  out->data_reads = io.reads(IoCategory::kI3DataFile);
  out->data_writes = io.writes(IoCategory::kI3DataFile);
  out->head_writes = io.writes(IoCategory::kI3HeadFile);
  out->us_per_tuple = out->tuples > 0 ? us / out->tuples : 0.0;
  return index;
}

/// \brief Warm repeated-query figures of a query set: the cache
/// hierarchy's own benchmark. One cold pass fills the buffer pool and the
/// decoded-cell cache, then `reps` timed passes replay the identical
/// query set. The checksum is folded on every pass and must not move --
/// a warm cache that changes an answer is a correctness bug, not a perf
/// win -- and pages_per_query counts device reads during the warm passes
/// (near zero when the hierarchy holds the working set).
struct WarmResult {
  const char* semantics;
  double qps = 0.0;
  double pages_per_query = 0.0;
  uint64_t checksum = 0;
};

WarmResult MeasureWarm(I3Index* index, const std::vector<Query>& queries,
                       double alpha, uint32_t reps) {
  WarmResult w;
  w.semantics = SemanticsName(queries.front().semantics);
  auto run_set = [&](uint64_t* fold) {
    for (const Query& q : queries) {
      auto res = index->Search(q, alpha);
      if (!res.ok()) {
        std::fprintf(stderr, "warm search failed: %s\n",
                     res.status().ToString().c_str());
        std::abort();
      }
      if (fold != nullptr) {
        for (const ScoredDoc& d : res.ValueOrDie()) *fold += d.doc;
      }
    }
  };
  index->ClearCache();
  run_set(nullptr);  // cold fill pass
  index->ResetIoStats();
  Timer timer;
  for (uint32_t rep = 0; rep < reps; ++rep) {
    uint64_t sum = 0;
    run_set(&sum);
    if (rep == 0) {
      w.checksum = sum;
    } else if (sum != w.checksum) {
      std::fprintf(stderr,
                   "warm checksum drifted between passes "
                   "(%" PRIu64 " != %" PRIu64 "): the cache hierarchy "
                   "changed an answer\n",
                   sum, w.checksum);
      std::abort();
    }
  }
  const double secs = timer.ElapsedMillis() / 1e3;
  const double n = static_cast<double>(queries.size()) * reps;
  w.qps = n / secs;
  w.pages_per_query =
      static_cast<double>(index->io_stats().TotalReads()) / n;
  return w;
}

/// Everything measured on one dataset tier.
struct TierRun {
  std::string dataset;
  BuildLedger build;
  std::unique_ptr<I3Index> index;
  std::vector<HotpathResult> results;
  std::vector<WarmResult> warm;
};

/// Builds tier `tier`'s index with its ledger, then measures the hot path
/// and the warm repeated-query figures of `num_queries` FREQ queries (seed
/// 42) per semantics.
TierRun RunTier(const BenchConfig& cfg, int tier, uint32_t num_queries,
                uint32_t reps) {
  std::printf("building %s (scale %.2f)...\n", kTwitterNames[tier],
              cfg.scale);
  const Dataset ds = MakeTwitter(cfg, tier);
  TierRun run;
  run.dataset = ds.name;
  run.index = BuildWithLedger(ds, cfg, &run.build);
  QueryGenerator qgen(ds);
  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    auto queries = qgen.Freq(cfg.default_qn, num_queries, /*k=*/10, sem,
                             /*seed=*/42);
    run.results.push_back(MeasureSemantics(run.index.get(), queries,
                                           cfg.default_alpha, reps));
    run.warm.push_back(MeasureWarm(run.index.get(), queries,
                                        cfg.default_alpha, /*reps=*/5));
  }
  return run;
}

/// The smoke tier's gate entries (see the file comment).
std::string SmokeGates(const TierRun& run) {
  GateList g("hotpath.");
  const double n = kSmokeQueries;
  for (size_t i = 0; i < run.results.size(); ++i) {
    const HotpathResult& r = run.results[i];
    const std::string sem = std::string(r.semantics) + ".";
    g.Exact(sem + "checksum", r.checksum);
    g.Budget(sem + "pages_per_query", r.pages_per_query);
    g.Exact(sem + "candidates_popped", r.work.candidates_popped / n);
    g.Exact(sem + "rows_joined", r.work.rows_joined / n);
    g.Exact(sem + "docs_scored", r.work.docs_scored / n);
    g.Record(sem + "qps", r.qps);
    g.Record(sem + "p50_us", r.p50_us);
    g.Record(sem + "p90_us", r.p90_us);
    g.Record(sem + "p99_us", r.p99_us);
    g.Record(sem + "max_us", r.max_us);
    g.Record(sem + "alloc_count_per_query", r.alloc_count_per_query);
    // Caches may make answers faster, never different; warm pages sit
    // near zero, so their budget has a half-page absolute slack.
    const WarmResult& w = run.warm[i];
    g.Exact("warm." + sem + "checksum", w.checksum,
            "hotpath." + sem + "checksum");
    g.Budget("warm." + sem + "pages_per_query", w.pages_per_query, 0.5);
    g.Record("warm." + sem + "qps", w.qps);
  }
  const BuildLedger& b = run.build;
  g.Exact("build.docs", b.docs);
  g.Exact("build.tuples", b.tuples);
  g.Exact("build.data_reads", b.data_reads);
  g.Exact("build.data_writes", b.data_writes);
  g.Exact("build.head_writes", b.head_writes);
  g.Record("build.us_per_tuple", b.us_per_tuple);
  g.Record("build.appends_in_place", b.appends_in_place);
  g.Record("build.groups_reencoded", b.groups_reencoded);
  g.Metric("nonzero", "i3_query_latency_us",
           {{"index", "I3"}, {"semantics", "and"}});
  g.Metric("nonzero", "i3_buffer_pool_hits_total");
  g.Metric("record", "i3_buffer_pool_misses_total");
  g.Metric("nonzero", "i3_io_pages_total",
           {{"category", "i3.data"}, {"op", "read"}});
  g.Metric("nonzero", "i3_search_stat_total",
           {{"index", "I3"}, {"stat", "cells_skipped"}});
  g.Metric("nonzero", "i3_search_stat_total",
           {{"index", "I3"}, {"stat", "blockmax_prunes"}});
  g.Metric("nonzero", "i3_cell_cache_hits_total");
  g.Metric("nonzero", "i3_buffer_pool_stripes");
  return g.Json();
}

int Main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  bool smoke = false;
  uint32_t reps = 0;
  std::string json_path = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = static_cast<uint32_t>(std::atoi(argv[i] + 7));
    }
  }
  const uint32_t num_queries = smoke ? kSmokeQueries : 100;
  if (reps == 0) reps = smoke ? kSmokeReps : 20;

  // 20K docs (smoke) / 100K docs at scale 1.
  const TierRun run = RunTier(cfg, smoke ? 0 : 1, num_queries, reps);
  PrintRule(9, 11);
  PrintRow({"semantics", "qps", "us/query", "p50us", "p90us", "p99us",
            "B alloc/q", "allocs/q", "pages/q"},
           11);
  PrintRule(9, 11);
  for (const HotpathResult& r : run.results) {
    PrintRow({r.semantics, Fmt(r.qps, 0), Fmt(r.us_per_query, 1),
              Fmt(r.p50_us, 0), Fmt(r.p90_us, 0), Fmt(r.p99_us, 0),
              Fmt(r.alloc_bytes_per_query, 0),
              Fmt(r.alloc_count_per_query, 1), Fmt(r.pages_per_query, 1)},
             11);
  }
  PrintRule(9, 11);
  for (const HotpathResult& r : run.results) {
    const double n = num_queries;
    std::printf("%s per query: %.2f candidates popped, %.2f rows joined, "
                "%.2f docs scored; stage us/calls, min of %d traced passes:",
                r.semantics, r.work.candidates_popped / n,
                r.work.rows_joined / n, r.work.docs_scored / n, kTracedPasses);
    for (const obs::TraceStage& st : r.stages) {
      std::printf(" %s %.2f/%.2f", st.name.c_str(), st.total_ns / 1e3 / n,
                  st.calls / n);
    }
    std::printf("\n");
  }
  // The metrics snapshot is the run's own tier, taken before a full run
  // measures the smoke tier for the gates.
  const std::string obs_json = MetricsSnapshotJson("  ");
  TierRun smoke_run;
  if (!smoke) smoke_run = RunTier(cfg, 0, kSmokeQueries, kSmokeReps);
  const TierRun& gated = smoke ? run : smoke_run;
  const BuildLedger& build = gated.build;
  std::printf("smoke build: %" PRIu64 " tuples, %.2f us/tuple, data r=%"
              PRIu64 " w=%" PRIu64 ", head w=%" PRIu64 ", %" PRIu64
              " appends in place, %" PRIu64 " groups re-encoded\n",
              build.tuples, build.us_per_tuple, build.data_reads,
              build.data_writes, build.head_writes, build.appends_in_place,
              build.groups_reencoded);
  for (const WarmResult& w : gated.warm) {
    std::printf("warm smoke %s: %.0f qps, %.3f pages/query\n", w.semantics,
                w.qps, w.pages_per_query);
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"hotpath\",\n"
               "  \"dataset\": {\"name\": \"%s\", \"docs\": %zu},\n"
               "  \"config\": {\"k\": 10, \"qn\": %u, \"eta\": %u, "
               "\"alpha\": %.2f, \"queries\": %u, \"reps\": %u, "
               "\"smoke\": %s},\n"
               "  \"results\": [\n",
               run.dataset.c_str(), run.build.docs, cfg.default_qn, cfg.eta,
               cfg.default_alpha, num_queries, reps, smoke ? "true" : "false");
  for (size_t i = 0; i < run.results.size(); ++i) {
    const HotpathResult& r = run.results[i];
    std::fprintf(f,
                 "    {\"semantics\": \"%s\", \"qps\": %.1f, "
                 "\"us_per_query\": %.2f, \"p50_us\": %.0f, "
                 "\"p90_us\": %.0f, \"p99_us\": %.0f, \"max_us\": %.0f, "
                 "\"alloc_bytes_per_query\": %.1f, "
                 "\"alloc_count_per_query\": %.2f, \"pages_per_query\": "
                 "%.2f, \"checksum\": %" PRIu64 ", %s, \"stages\": {",
                 r.semantics, r.qps, r.us_per_query, r.p50_us, r.p90_us,
                 r.p99_us, r.max_us, r.alloc_bytes_per_query,
                 r.alloc_count_per_query, r.pages_per_query, r.checksum,
                 WorkJson(r.work, num_queries).c_str());
    for (size_t j = 0; j < r.stages.size(); ++j) {
      const obs::TraceStage& st = r.stages[j];
      std::fprintf(f, "%s\"%s\": {\"us\": %.2f, \"calls\": %.2f}",
                   j == 0 ? "" : ", ", st.name.c_str(),
                   st.total_ns / 1e3 / num_queries,
                   static_cast<double>(st.calls) / num_queries);
    }
    std::fprintf(f, "}}%s\n", i + 1 < run.results.size() ? "," : "");
  }
  // Process-wide metrics snapshot (query/update histograms, buffer pool,
  // per-category I/O, search-stat counters) for scrapers.
  std::fprintf(f, "  ],\n  \"gates\": %s,\n  \"obs\":\n%s\n}\n",
               SmokeGates(gated).c_str(), obs_json.c_str());
  DumpMetricsIfRequested(cfg);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  // After the measurements, so its page reads stay out of them.
  auto checked = gated.index->CheckInvariants();
  if (!checked.ok()) {
    std::fprintf(stderr, "invariant violation: %s\n",
                 checked.status().ToString().c_str());
    return 1;
  }
  std::printf("invariants: ok (%" PRIu64 " tuples)\n", checked.ValueOrDie());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace i3

int main(int argc, char** argv) { return i3::bench::Main(argc, argv); }
