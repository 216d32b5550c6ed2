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
// each query's QueryStats (deterministic, so tools/check_bench.py gates
// them exactly on the smoke tier), and "stages", the per-query time and
// call count of each traced search stage, the minimum over a few traced
// passes (recorded, not gated).
//
// The smoke-tier index build is the write layer's ledger ("smoke_build"):
// its data-file reads and writes and head-file writes are deterministic
// and gated exactly; its microseconds per inserted tuple and its counts of
// rows appended to encoded groups in place and of groups re-encoded from
// rows are recorded. A --smoke run ends with the index's invariant check
// (canonical pages, exact free-space map) and exits nonzero on a
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
/// Queries per semantics of the smoke workload.
constexpr uint32_t kSmokeQueries = 20;

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

struct SmokeBaseline {
  const char* semantics;
  double pages_per_query = 0.0;
  uint64_t checksum = 0;
  WorkCounts work;
};

/// The write layer's ledger: what building the smoke-tier index cost.
struct SmokeBuild {
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
                                         SmokeBuild* out) {
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

/// \brief Warm repeated-query figures of the smoke workload: the cache
/// hierarchy's own benchmark. One cold pass fills the buffer pool and the
/// decoded-cell cache, then `reps` timed passes replay the identical
/// query set. The checksum is folded on every pass and must not move --
/// a warm cache that changes an answer is a correctness bug, not a perf
/// win -- and pages_per_query counts device reads during the warm passes
/// (near zero when the hierarchy holds the working set).
struct WarmSmoke {
  const char* semantics;
  double qps = 0.0;
  double pages_per_query = 0.0;
  uint64_t checksum = 0;
};

WarmSmoke MeasureWarmSmoke(I3Index* index, const std::vector<Query>& queries,
                           double alpha, uint32_t reps) {
  WarmSmoke w;
  w.semantics = SemanticsName(queries.front().semantics);
  auto run_set = [&](uint64_t* fold) {
    for (const Query& q : queries) {
      auto res = index->Search(q, alpha);
      if (!res.ok()) {
        std::fprintf(stderr, "warm smoke search failed: %s\n",
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
                   "warm smoke checksum drifted between passes "
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

/// \brief Cold-pass figures of the exact workload `--smoke` runs (tier-0
/// dataset, 20 queries, seed 42). A full run embeds these in its JSON as
/// "smoke_baseline", which is what tools/check_bench.py compares a CI
/// smoke run's results against: same tier, same queries, so checksums
/// must match bit for bit and pages/query may only drift within the
/// regression budget. Deliberately metrics-silent -- the "obs" snapshot
/// in the JSON stays a pure tier-1 capture.
std::vector<SmokeBaseline> MeasureSmokeBaseline(
    const BenchConfig& cfg, uint32_t num_queries,
    std::vector<WarmSmoke>* warm_out, SmokeBuild* build) {
  Dataset ds = MakeTwitter(cfg, /*tier=*/0);
  auto index = BuildWithLedger(ds, cfg, build);
  QueryGenerator qgen(ds);
  std::vector<SmokeBaseline> out;
  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    auto queries = qgen.Freq(cfg.default_qn, num_queries, /*k=*/10, sem,
                             /*seed=*/42);
    SmokeBaseline b;
    b.semantics = SemanticsName(sem);
    index->ClearCache();
    index->ResetIoStats();
    for (const Query& q : queries) {
      for (const ScoredDoc& d :
           SearchCounted(index.get(), q, cfg.default_alpha, &b.work)) {
        b.checksum += d.doc;
      }
    }
    b.pages_per_query =
        static_cast<double>(index->io_stats().TotalReads()) / queries.size();
    out.push_back(b);
    if (warm_out != nullptr) {
      warm_out->push_back(MeasureWarmSmoke(index.get(), queries,
                                           cfg.default_alpha, /*reps=*/5));
    }
  }
  return out;
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
  const int tier = smoke ? 0 : 1;  // 20K docs (smoke) / 100K docs at scale 1
  const uint32_t num_queries = smoke ? kSmokeQueries : 100;
  if (reps == 0) reps = smoke ? 3 : 20;

  std::printf("building %s (scale %.2f)...\n", kTwitterNames[tier],
              cfg.scale);
  Dataset ds = MakeTwitter(cfg, tier);
  SmokeBuild build;  // a smoke run's own build is the smoke-tier build
  auto index = BuildWithLedger(ds, cfg, &build);
  QueryGenerator qgen(ds);

  std::vector<HotpathResult> results;
  std::vector<WarmSmoke> warm;
  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    auto queries = qgen.Freq(cfg.default_qn, num_queries, /*k=*/10, sem,
                             /*seed=*/42);
    results.push_back(MeasureSemantics(index.get(), queries,
                                       cfg.default_alpha, reps));
    // Smoke runs measure the warm repeated-query figures on the smoke
    // index itself (it IS the smoke-tier workload); full runs measure
    // them on the separately built smoke-tier index below.
    if (smoke) {
      warm.push_back(MeasureWarmSmoke(index.get(), queries,
                                      cfg.default_alpha, /*reps=*/5));
    }
  }

  PrintRule(9, 11);
  PrintRow({"semantics", "qps", "us/query", "p50us", "p90us", "p99us",
            "B alloc/q", "allocs/q", "pages/q"},
           11);
  PrintRule(9, 11);
  for (const HotpathResult& r : results) {
    PrintRow({r.semantics, Fmt(r.qps, 0), Fmt(r.us_per_query, 1),
              Fmt(r.p50_us, 0), Fmt(r.p90_us, 0), Fmt(r.p99_us, 0),
              Fmt(r.alloc_bytes_per_query, 0),
              Fmt(r.alloc_count_per_query, 1), Fmt(r.pages_per_query, 1)},
             11);
  }
  PrintRule(9, 11);
  for (const HotpathResult& r : results) {
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
               ds.name.c_str(), ds.docs.size(), cfg.default_qn, cfg.eta,
               cfg.default_alpha, num_queries, reps, smoke ? "true" : "false");
  for (size_t i = 0; i < results.size(); ++i) {
    const HotpathResult& r = results[i];
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
    std::fprintf(f, "}}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Full runs additionally record the smoke-tier workload's cold-pass
  // figures so the committed BENCH_hotpath.json doubles as the baseline
  // the CI bench-regression gate (tools/check_bench.py) checks smoke runs
  // against. The obs snapshot is captured first, so it stays a pure
  // tier-1 measurement.
  const std::string obs_json = MetricsSnapshotJson("  ");
  if (!smoke) {
    std::printf("measuring smoke baseline (%s)...\n", kTwitterNames[0]);
    const auto baseline =
        MeasureSmokeBaseline(cfg, kSmokeQueries, &warm, &build);
    std::fprintf(f, "  \"smoke_baseline\": [\n");
    for (size_t i = 0; i < baseline.size(); ++i) {
      const SmokeBaseline& b = baseline[i];
      std::fprintf(f,
                   "    {\"semantics\": \"%s\", \"pages_per_query\": %.2f, "
                   "\"checksum\": %" PRIu64 ", %s}%s\n",
                   b.semantics, b.pages_per_query, b.checksum,
                   WorkJson(b.work, kSmokeQueries).c_str(),
                   i + 1 < baseline.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
  }
  // Warm repeated-query figures of the smoke workload (same entries in
  // smoke and full runs, so a smoke candidate gates against a committed
  // full run): the checksum must equal the cold smoke checksum -- caches
  // may only make answers faster, never different -- and pages_per_query
  // bounds device reads once the hierarchy is warm.
  // The write layer's ledger (smoke-tier build in both kinds of run): the
  // I/O counts are gated exactly against the committed baseline; the time
  // per tuple and the write-path counters are a recorded trajectory.
  std::printf("smoke build: %" PRIu64 " tuples, %.2f us/tuple, data r=%"
              PRIu64 " w=%" PRIu64 ", head w=%" PRIu64 ", %" PRIu64
              " appends in place, %" PRIu64 " groups re-encoded\n",
              build.tuples, build.us_per_tuple, build.data_reads,
              build.data_writes, build.head_writes, build.appends_in_place,
              build.groups_reencoded);
  std::fprintf(f,
               "  \"smoke_build\": {\"docs\": %zu, \"tuples\": %" PRIu64
               ", \"data_reads\": %" PRIu64 ", \"data_writes\": %" PRIu64
               ", \"head_writes\": %" PRIu64 ", \"us_per_tuple\": %.3f"
               ", \"appends_in_place\": %" PRIu64
               ", \"groups_reencoded\": %" PRIu64 "},\n",
               build.docs, build.tuples, build.data_reads, build.data_writes,
               build.head_writes, build.us_per_tuple, build.appends_in_place,
               build.groups_reencoded);
  std::fprintf(f, "  \"warm_smoke\": [\n");
  for (size_t i = 0; i < warm.size(); ++i) {
    const WarmSmoke& w = warm[i];
    std::printf("warm smoke %s: %.0f qps, %.3f pages/query\n", w.semantics,
                w.qps, w.pages_per_query);
    std::fprintf(f,
                 "    {\"semantics\": \"%s\", \"qps\": %.1f, "
                 "\"pages_per_query\": %.3f, \"checksum\": %" PRIu64 "}%s\n",
                 w.semantics, w.qps, w.pages_per_query, w.checksum,
                 i + 1 < warm.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Process-wide metrics snapshot (query/update histograms, buffer pool,
  // per-category I/O, search-stat counters) for scrapers and the CI gate.
  std::fprintf(f, "  \"obs\":\n%s\n}\n", obs_json.c_str());
  DumpMetricsIfRequested(cfg);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  if (smoke) {
    // After the measurements, so its page reads stay out of them.
    auto checked = index->CheckInvariants();
    if (!checked.ok()) {
      std::fprintf(stderr, "invariant violation: %s\n",
                   checked.status().ToString().c_str());
      return 1;
    }
    std::printf("invariants: ok (%" PRIu64 " tuples)\n",
                checked.ValueOrDie());
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace i3

int main(int argc, char** argv) { return i3::bench::Main(argc, argv); }
