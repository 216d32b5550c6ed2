// Shared infrastructure for the per-figure benchmark harnesses: scaled
// dataset construction, index builders, query-set measurement, and
// paper-style table printing.
//
// Scaling: the paper's datasets are Twitter 1M/5M/10M/15M and Wikipedia
// 400K. The default --scale=1 maps those to 20K/100K/200K/300K and 8K so
// every figure regenerates in minutes on a laptop; pass a larger --scale to
// approach the paper's cardinalities (shape, not absolute time, is the
// reproduction target -- see EXPERIMENTS.md).

#ifndef I3_BENCH_BENCH_COMMON_H_
#define I3_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "datagen/dataset.h"
#include "datagen/query_gen.h"
#include "i3/i3_index.h"
#include "irtree/irtree_index.h"
#include "model/index.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "s2i/s2i_index.h"

namespace i3 {
namespace bench {

/// \brief Command-line configuration shared by all harnesses.
struct BenchConfig {
  /// Dataset scale multiplier (1.0 = the laptop defaults above).
  double scale = 1.0;
  /// Queries per query set (the paper uses 100; we default to 20 to keep
  /// the full suite of harnesses tractable at scale 1 -- pass
  /// --queries=100 for the paper's setting).
  uint32_t num_queries = 20;
  /// Skip the IR-tree baseline (it is by far the slowest to build).
  bool skip_irtree = false;
  /// Signature length eta for I3.
  uint32_t eta = 300;
  /// Simulated per-page device latency (microseconds) armed around the
  /// measured phases, so wall-clock follows the I/O profile of the paper's
  /// disk-resident setup. 0 = pure CPU timing.
  uint32_t io_latency_us = 2;
  /// Default parameters (bold in Table 4).
  uint32_t default_k = 50;
  double default_alpha = 0.5;
  uint32_t default_qn = 3;
  /// --metrics / --metrics=PATH: dump a Prometheus-text snapshot of the
  /// metrics registry when the harness exits (empty path = stdout).
  bool dump_metrics = false;
  std::string metrics_path;
  /// --trace-sample-rate=R in [0, 1]: fraction of queries to trace
  /// (obs/trace.h); applied to the global Tracer by FromArgs. 0 = off.
  double trace_sample_rate = 0.0;
  /// --fault-profile=SPEC: build I3 data files over a fault-injecting
  /// backing (storage/fault_injection.h spec grammar). Empty = off.
  std::string fault_profile;
  /// --deadline-ms=N: per-query deadline; overruns degrade or fail instead
  /// of running to completion. 0 = unbounded.
  uint64_t deadline_ms = 0;
  /// --pool-pages=N: data-file buffer-pool capacity (0 = uncached,
  /// deterministic I/O). Mirrors I3Options::buffer_pool.
  uint32_t pool_pages = 512;
  /// --head-pool-pages=N: head-file pager capacity (0 = legacy per-node
  /// charging). Mirrors I3Options::head_pool_pages.
  uint32_t head_pool_pages = 128;
  /// --cell-cache-mb=N: decoded-cell cache budget in MB (0 disables; also
  /// forced off when pool_pages == 0). Mirrors I3Options::cell_cache_bytes.
  size_t cell_cache_mb = 16;
  /// --result-cache-entries=N: whole-query result cache of the serving
  /// front end (bench_serving only; 0 disables).
  size_t result_cache_entries = 4096;

  /// Parses --scale=X --queries=N --skip-irtree --eta=N --iolat=US
  /// --metrics[=PATH] --trace-sample-rate=R --fault-profile=SPEC
  /// --deadline-ms=N --pool-pages=N --head-pool-pages=N --cell-cache-mb=N
  /// --result-cache-entries=N.
  static BenchConfig FromArgs(int argc, char** argv);
};

/// Base cardinalities at scale 1 standing in for the paper's datasets.
constexpr uint32_t kTwitterBase[] = {20000, 100000, 200000, 300000};
constexpr const char* kTwitterNames[] = {"Twitter1M", "Twitter5M",
                                         "Twitter10M", "Twitter15M"};
constexpr uint32_t kWikipediaBase = 8000;

/// \brief Builds the scaled Twitter-like dataset standing in for
/// kTwitterNames[tier].
Dataset MakeTwitter(const BenchConfig& cfg, int tier);
/// \brief Builds the scaled Wikipedia-like dataset.
Dataset MakeWikipedia(const BenchConfig& cfg);

/// \brief Index builders (timed by the caller where construction time is
/// the measurement).
std::unique_ptr<I3Index> BuildI3(const Dataset& ds, uint32_t eta);
/// BuildI3 honoring cfg.eta and cfg.fault_profile (the data file is backed
/// by a fault-injecting in-memory PageFile when a profile is set).
std::unique_ptr<I3Index> BuildI3(const Dataset& ds, const BenchConfig& cfg);
std::unique_ptr<S2IIndex> BuildS2I(const Dataset& ds);
/// \param bulk use STR bulk loading (the paper's static Wikipedia build).
std::unique_ptr<IrTreeIndex> BuildIrTree(const Dataset& ds, bool bulk);

/// \brief Cost of running one query set: mean and percentile latency and
/// mean per-query I/O, split by category.
struct QuerySetCost {
  double avg_ms = 0.0;
  /// Latency percentiles over the set's individual query times, estimated
  /// from a log-linear histogram (<= 3.125% relative error, see
  /// obs/histogram.h).
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double avg_io_reads = 0.0;
  /// Per-category mean reads, indexed by IoCategory.
  double avg_reads_by_cat[kNumIoCategories] = {};
  /// Queries that returned an error (only nonzero under
  /// QueryRunOptions::allow_errors -- fault / deadline runs).
  uint64_t failed_queries = 0;
};

/// \brief Fault-tolerance knobs for RunQuerySet; the default is the strict
/// behavior every figure harness uses (any failure aborts).
struct QueryRunOptions {
  /// Per-query deadline in microseconds; 0 = unbounded.
  uint64_t deadline_us = 0;
  /// Count per-query failures (QuerySetCost::failed_queries) instead of
  /// aborting the harness -- required for fault/deadline runs where errors
  /// are the expected outcome.
  bool allow_errors = false;

  /// Derived from --fault-profile / --deadline-ms: errors become tolerable
  /// as soon as either fault source is armed.
  static QueryRunOptions FromConfig(const BenchConfig& cfg) {
    QueryRunOptions run;
    run.deadline_us = cfg.deadline_ms * 1000;
    run.allow_errors = cfg.deadline_ms > 0 || !cfg.fault_profile.empty();
    return run;
  }
};

/// \brief Runs `queries` against `index` with cold caches and averaged
/// timing/IO, under the configured simulated device latency.
QuerySetCost RunQuerySet(SpatialKeywordIndex* index,
                         const std::vector<Query>& queries, double alpha,
                         uint32_t io_latency_us = 20,
                         const QueryRunOptions& run = {});

/// \brief Honors cfg.dump_metrics: writes the global metrics registry as
/// Prometheus text to cfg.metrics_path (stdout when the path is empty).
/// No-op when --metrics was not passed.
void DumpMetricsIfRequested(const BenchConfig& cfg);

/// \brief The global metrics registry as an embeddable JSON object (see
/// obs::ToJson); `indent` prefixes every line. For BENCH_*.json artifacts.
std::string MetricsSnapshotJson(const std::string& indent = "");

/// \brief The flat list of gate entries a bench writes under "gates".
/// tools/check_bench.py compares each with the committed baseline's entry
/// of the same name, as the baseline's kind says (DESIGN.md section 11):
/// "exact" must equal the baseline -- or, with a `ref`, this run's entry
/// named `ref` (a full name) --, "budget" may exceed the baseline by the
/// checker's regression budget or by `slack`, whichever is larger,
/// "nonzero" must be above zero, and "record" is printed, never gated.
/// Every name is prefixed with the list's `prefix`.
class GateList {
 public:
  explicit GateList(std::string prefix) : prefix_(std::move(prefix)) {}

  template <typename T>
  void Exact(const std::string& name, T value, const std::string& ref = "") {
    Add(name, "exact", std::to_string(value),
        ref.empty() ? "" : ", \"ref\": \"" + ref + "\"");
  }
  void Budget(const std::string& name, double value, double slack = 0.0) {
    Add(name, "budget", std::to_string(value),
        slack > 0 ? ", \"slack\": " + std::to_string(slack) : "");
  }
  template <typename T>
  void Nonzero(const std::string& name, T value) {
    Add(name, "nonzero", std::to_string(value), "");
  }
  template <typename T>
  void Record(const std::string& name, T value) {
    Add(name, "record", std::to_string(value), "");
  }
  /// A `kind` entry named `family{label=value,...}` holding that metric
  /// series' value (a histogram's sample count). A series that is not
  /// registered gets no entry, which the checker reports as missing.
  void Metric(const char* kind, const std::string& family,
              const obs::Labels& labels = {});

  /// The entries as a JSON array.
  std::string Json() const;

 private:
  void Add(const std::string& name, const char* kind,
           const std::string& value, const std::string& extra);

  std::string prefix_;
  std::vector<std::string> entries_;
};

/// \brief Fixed-width table printing.
void PrintRow(const std::vector<std::string>& cells, int width = 14);
void PrintRule(size_t cells, int width = 14);
std::string Fmt(double v, int precision = 2);
std::string FmtBytes(uint64_t bytes);

}  // namespace bench
}  // namespace i3

#endif  // I3_BENCH_BENCH_COMMON_H_
