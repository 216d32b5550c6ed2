// Multi-threaded search throughput of the serving index.
//
// Measures, at 1/2/4/8 client threads over one Twitter-tier corpus, one
// I3 index in a one-replica ReplicaSet, the thread-safe serving index:
// readers share its replica's lock and run in parallel. Every search runs
// on its caller's thread, so the client threads are the only parallelism;
// each cell also shows the speedup over one client thread. DESIGN.md §7
// compares this with the 8-shard index the serving stack no longer builds.
//
// Every cell starts from cleared caches and runs the same queries, split
// evenly over its client threads, so each cell pays the same device reads
// and its speedup is what the extra threads alone buy. The simulated
// per-page latency is armed during measurement and, at disk class, slept:
// with the default 100 us, concurrent queries overlap their IO stalls (the
// paper's disk-resident setting); with --iolat=0, the threads can only
// share the CPUs.

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "model/replica_set.h"
#include "storage/io_stats.h"

using namespace i3;
using namespace i3::bench;

namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};
/// Queries per measured cell, split evenly over its client threads.
constexpr int kQueriesPerCell = 400;

/// Per-page device latency for this harness. Unlike the figure harnesses'
/// few-microsecond calibration (which busy-waits), a disk-class latency is
/// slept (see storage/io_stats.cc), so concurrent queries overlap their IO
/// stalls exactly as they would against a real device -- which is what a
/// throughput benchmark must capture, and the only effect observable on a
/// single-core CI box. --iolat overrides.
constexpr uint32_t kDiskLatencyUs = 100;

/// Runs `threads` clients over the first kQueriesPerCell round-robin
/// queries, client t issuing the t-th contiguous share, and returns
/// aggregate queries per second.
double MeasureQps(SpatialKeywordIndex* index,
                  const std::vector<Query>& queries, double alpha,
                  int threads) {
  const int per_thread = kQueriesPerCell / threads;
  std::atomic<bool> go{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < per_thread; ++i) {
        const Query& q = queries[(t * per_thread + i) % queries.size()];
        if (!index->Search(q, alpha).ok()) ++bad;
      }
    });
  }
  Timer timer;
  go.store(true, std::memory_order_release);
  for (auto& c : clients) c.join();
  const double seconds = timer.ElapsedSeconds();
  if (bad.load() != 0) {
    std::fprintf(stderr, "%d queries failed\n", bad.load());
    std::abort();
  }
  return static_cast<double>(threads) * per_thread / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  // BenchConfig's default --iolat is tuned for the busy-wait simulation;
  // this harness wants the blocking disk-class latency unless overridden.
  const uint32_t iolat =
      cfg.io_latency_us == BenchConfig{}.io_latency_us ? kDiskLatencyUs
                                                       : cfg.io_latency_us;
  std::printf(
      "== Concurrency: search throughput vs client threads (scale=%.2f, "
      "k=%u, alpha=%.1f, qn=%u, iolat=%uus) ==\n",
      cfg.scale, cfg.default_k, cfg.default_alpha, cfg.default_qn, iolat);

  const Dataset ds = MakeTwitter(cfg, /*tier=*/1);
  std::printf("dataset %s: %llu docs, %llu unique keywords\n",
              ds.name.c_str(),
              static_cast<unsigned long long>(ds.NumDocs()),
              static_cast<unsigned long long>(ds.UniqueKeywords()));

  const QueryGenerator qgen(ds);
  const std::vector<Query> queries =
      qgen.Freq(cfg.default_qn, std::max(cfg.num_queries, 64u),
                cfg.default_k, Semantics::kOr, /*seed=*/4242);

  std::vector<std::unique_ptr<SpatialKeywordIndex>> one;
  one.push_back(BuildI3(ds, cfg.eta));
  ReplicaSet index(std::move(one));

  ScopedIoLatency latency(iolat);

  std::printf("\n-- OR FREQ_%u throughput (queries/s; speedup vs 1 "
              "thread) --\n", cfg.default_qn);
  PrintRow({"Threads", "I3"});
  PrintRule(2);
  double qps_1t = 0.0;
  for (int threads : kThreadCounts) {
    // Every cell starts cold, so each pays the device reads that refill
    // the caches.
    index.ClearCache();
    const double qps =
        MeasureQps(&index, queries, cfg.default_alpha, threads);
    if (threads == 1) qps_1t = qps;
    PrintRow({std::to_string(threads),
              Fmt(qps, 0) + " (" + Fmt(qps / qps_1t, 2) + "x)"});
  }
  DumpMetricsIfRequested(cfg);
  return 0;
}
