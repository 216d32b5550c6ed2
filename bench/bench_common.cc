#include "bench_common.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "obs/clock.h"
#include "obs/histogram.h"
#include "storage/fault_injection.h"

namespace i3 {
namespace bench {

BenchConfig BenchConfig::FromArgs(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--scale=", 8) == 0) {
      cfg.scale = std::atof(a + 8);
    } else if (std::strncmp(a, "--queries=", 10) == 0) {
      cfg.num_queries = static_cast<uint32_t>(std::atoi(a + 10));
    } else if (std::strcmp(a, "--skip-irtree") == 0) {
      cfg.skip_irtree = true;
    } else if (std::strncmp(a, "--eta=", 6) == 0) {
      cfg.eta = static_cast<uint32_t>(std::atoi(a + 6));
    } else if (std::strncmp(a, "--iolat=", 8) == 0) {
      cfg.io_latency_us = static_cast<uint32_t>(std::atoi(a + 8));
    } else if (std::strcmp(a, "--metrics") == 0) {
      cfg.dump_metrics = true;
    } else if (std::strncmp(a, "--metrics=", 10) == 0) {
      cfg.dump_metrics = true;
      cfg.metrics_path = a + 10;
    } else if (std::strncmp(a, "--trace-sample-rate=", 20) == 0) {
      cfg.trace_sample_rate = std::atof(a + 20);
    } else if (std::strncmp(a, "--fault-profile=", 16) == 0) {
      cfg.fault_profile = a + 16;
    } else if (std::strncmp(a, "--deadline-ms=", 14) == 0) {
      cfg.deadline_ms = std::strtoull(a + 14, nullptr, 10);
    } else if (std::strncmp(a, "--pool-pages=", 13) == 0) {
      cfg.pool_pages = static_cast<uint32_t>(std::atoi(a + 13));
    } else if (std::strncmp(a, "--head-pool-pages=", 18) == 0) {
      cfg.head_pool_pages = static_cast<uint32_t>(std::atoi(a + 18));
    } else if (std::strncmp(a, "--cell-cache-mb=", 16) == 0) {
      cfg.cell_cache_mb = static_cast<size_t>(std::atoi(a + 16));
    } else if (std::strncmp(a, "--result-cache-entries=", 23) == 0) {
      cfg.result_cache_entries = static_cast<size_t>(std::atoi(a + 23));
    } else if (std::strcmp(a, "--help") == 0) {
      std::printf(
          "flags: --scale=X (dataset scale, default 1) --queries=N "
          "--skip-irtree --eta=N --iolat=US (simulated page latency) "
          "--metrics[=PATH] (Prometheus dump on exit, stdout if no path) "
          "--trace-sample-rate=R (fraction of queries traced) "
          "--fault-profile=SPEC (storage fault injection, see "
          "storage/fault_injection.h) --deadline-ms=N (per-query "
          "deadline) --pool-pages=N (data-file buffer pool, 0 = uncached) "
          "--head-pool-pages=N (head-file pager, 0 = per-node charging) "
          "--cell-cache-mb=N (decoded-cell cache budget, 0 = off) "
          "--result-cache-entries=N (serving result cache, 0 = off)\n");
      std::exit(0);
    }
  }
  obs::Tracer::Global().SetSampleRate(cfg.trace_sample_rate);
  return cfg;
}

Dataset MakeTwitter(const BenchConfig& cfg, int tier) {
  const uint32_t n = static_cast<uint32_t>(kTwitterBase[tier] * cfg.scale);
  GeneratorSpec spec = TwitterSpec(n, /*seed=*/100 + tier);
  spec.name = kTwitterNames[tier];
  return Generate(spec);
}

Dataset MakeWikipedia(const BenchConfig& cfg) {
  const uint32_t n = static_cast<uint32_t>(kWikipediaBase * cfg.scale);
  GeneratorSpec spec = WikipediaSpec(n, /*seed=*/200);
  spec.name = "Wikipedia";
  return Generate(spec);
}

std::unique_ptr<I3Index> BuildI3(const Dataset& ds, uint32_t eta) {
  I3Options opt;
  opt.space = ds.space;
  opt.signature_bits = eta;
  auto index = std::make_unique<I3Index>(opt);
  for (const auto& d : ds.docs) {
    auto st = index->Insert(d);
    if (!st.ok()) {
      std::fprintf(stderr, "I3 insert failed: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
  return index;
}

std::unique_ptr<I3Index> BuildI3(const Dataset& ds, const BenchConfig& cfg) {
  I3Options opt;
  opt.space = ds.space;
  opt.signature_bits = cfg.eta;
  opt.buffer_pool.capacity_pages = cfg.pool_pages;
  opt.head_pool_pages = cfg.head_pool_pages;
  opt.cell_cache_bytes = cfg.cell_cache_mb << 20;
  if (!cfg.fault_profile.empty()) {
    auto parsed = FaultProfile::Parse(cfg.fault_profile);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad --fault-profile: %s\n",
                   parsed.status().ToString().c_str());
      std::abort();
    }
    const FaultProfile profile = parsed.ValueOrDie();
    opt.page_file_factory = [profile](size_t page_size) {
      return std::make_unique<FaultInjectionPageFile>(
          std::make_unique<InMemoryPageFile>(page_size), profile);
    };
  }
  auto index = std::make_unique<I3Index>(opt);
  for (const auto& d : ds.docs) {
    auto st = index->Insert(d);
    // Injected build-phase faults are expected; the document is skipped.
    if (!st.ok() && !st.IsIOError()) {
      std::fprintf(stderr, "I3 insert failed: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
  return index;
}

std::unique_ptr<S2IIndex> BuildS2I(const Dataset& ds) {
  S2IOptions opt;
  opt.space = ds.space;
  auto index = std::make_unique<S2IIndex>(opt);
  for (const auto& d : ds.docs) {
    auto st = index->Insert(d);
    if (!st.ok()) {
      std::fprintf(stderr, "S2I insert failed: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
  return index;
}

std::unique_ptr<IrTreeIndex> BuildIrTree(const Dataset& ds, bool bulk) {
  IrTreeOptions opt;
  opt.space = ds.space;
  if (bulk) {
    auto res = IrTreeIndex::BulkLoad(opt, ds.docs);
    if (!res.ok()) {
      std::fprintf(stderr, "IR-tree bulk load failed: %s\n",
                   res.status().ToString().c_str());
      std::abort();
    }
    return res.MoveValue();
  }
  auto index = std::make_unique<IrTreeIndex>(opt);
  for (const auto& d : ds.docs) {
    auto st = index->Insert(d);
    if (!st.ok()) {
      std::fprintf(stderr, "IR-tree insert failed: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
  }
  return index;
}

QuerySetCost RunQuerySet(SpatialKeywordIndex* index,
                         const std::vector<Query>& queries, double alpha,
                         uint32_t io_latency_us, const QueryRunOptions& run) {
  QuerySetCost cost;
  if (queries.empty()) return cost;
  index->ClearCache();  // cold cache per query set, as in Section 6.3
  index->ResetIoStats();
  ScopedIoLatency latency(io_latency_us);
  obs::HistogramSnapshot latencies_us;
  Timer timer;
  for (const Query& q_in : queries) {
    Query q = q_in;
    if (run.deadline_us > 0) {
      q.control = QueryControl::AfterMicros(run.deadline_us);
    }
    const uint64_t q0 = obs::NowNanos();
    auto res = index->Search(q, alpha);
    latencies_us.Record((obs::NowNanos() - q0) / 1000);
    if (!res.ok()) {
      if (!run.allow_errors) {
        std::fprintf(stderr, "%s search failed: %s\n", index->Name().c_str(),
                     res.status().ToString().c_str());
        std::abort();
      }
      ++cost.failed_queries;
    }
  }
  cost.avg_ms = timer.ElapsedMillis() / queries.size();
  cost.p50_ms = static_cast<double>(latencies_us.Quantile(0.50)) / 1000.0;
  cost.p90_ms = static_cast<double>(latencies_us.Quantile(0.90)) / 1000.0;
  cost.p99_ms = static_cast<double>(latencies_us.Quantile(0.99)) / 1000.0;
  cost.max_ms = static_cast<double>(latencies_us.Max()) / 1000.0;
  const IoStats io = index->io_stats();
  // The stats were reset above, so the cumulative counters are exactly
  // this query set's delta.
  RecordIoMetrics(io);
  cost.avg_io_reads =
      static_cast<double>(io.TotalReads()) / queries.size();
  for (int c = 0; c < kNumIoCategories; ++c) {
    cost.avg_reads_by_cat[c] =
        static_cast<double>(io.reads(static_cast<IoCategory>(c))) /
        queries.size();
  }
  return cost;
}

void DumpMetricsIfRequested(const BenchConfig& cfg) {
  if (!cfg.dump_metrics) return;
  const std::string text =
      obs::ToPrometheusText(obs::MetricsRegistry::Global().Snapshot());
  if (cfg.metrics_path.empty()) {
    std::printf("\n--- metrics ---\n%s", text.c_str());
    return;
  }
  std::ofstream out(cfg.metrics_path);
  if (!out) {
    std::fprintf(stderr, "cannot write metrics to %s\n",
                 cfg.metrics_path.c_str());
    return;
  }
  out << text;
}

std::string MetricsSnapshotJson(const std::string& indent) {
  return obs::ToJson(obs::MetricsRegistry::Global().Snapshot(), indent);
}

void PrintRow(const std::vector<std::string>& cells, int width) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

void PrintRule(size_t cells, int width) {
  std::string rule(cells * static_cast<size_t>(width), '-');
  std::printf("%s\n", rule.c_str());
}

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FmtBytes(uint64_t bytes) {
  char buf[64];
  if (bytes >= (uint64_t{1} << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2fGB",
                  static_cast<double>(bytes) / (uint64_t{1} << 30));
  } else if (bytes >= (uint64_t{1} << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2fMB",
                  static_cast<double>(bytes) / (uint64_t{1} << 20));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.2fKB",
                  static_cast<double>(bytes) / 1024);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "B", bytes);
  }
  return buf;
}

}  // namespace bench
}  // namespace i3
