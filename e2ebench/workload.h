// The four workloads of the end-to-end serving benchmark: their sizes and
// storage stacks, the fixed corpus and writer documents, and the
// deterministic request streams a `--seed` produces. Why each workload
// exists is in README.md.

#ifndef I3_E2EBENCH_WORKLOAD_H_
#define I3_E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/dataset.h"
#include "datagen/query_gen.h"
#include "i3/options.h"
#include "net/protocol.h"

namespace i3 {
namespace e2e {

/// Closed-loop reader connections (one thread each).
constexpr uint32_t kReaders = 2;

struct WorkloadSpec {
  std::string name;
  /// Corpus size (Twitter stand-in).
  uint32_t docs = 0;
  /// The storage stack the built index is reloaded onto.
  size_t pool_pages = 0;
  size_t cell_cache_bytes = 0;
  uint32_t miss_latency_us = 0;
  /// Requests are drawn Zipf(1) from this many distinct requests; 0 makes
  /// every request fresh.
  uint32_t repeat_pool = 0;
  /// Open-loop delete+insert pairs per second; 0 = read-only.
  uint32_t write_pairs_per_s = 0;
  /// Untimed requests per reader connection before timing starts.
  uint32_t warmup_per_conn = 0;
  /// Requests the single-thread layer ledger replays.
  uint32_t ledger_requests = 0;
  /// Requests checked against the oracle after the timed phase.
  uint32_t validate_requests = 0;
  /// Set-up repetitions (setup_s is their median).
  uint32_t setup_reps = 0;
};

/// The named workload, shrunk to the 2K-doc smoke size when `quick`;
/// nullptr for an unknown name.
std::unique_ptr<WorkloadSpec> FindWorkload(const std::string& name,
                                           bool quick);

/// The storage options of `spec`'s serving stack (serve defaults apart
/// from the pool, cell cache and simulated miss latency).
I3Options WorkloadOptions(const WorkloadSpec& spec);

/// \brief The documents of one run: the indexed corpus plus, for a writing
/// workload, the new tweets the writer inserts (ids continue the corpus;
/// enough for 60 s at the workload's write rate). They do not depend on
/// the seed, which drives the request streams.
struct Corpus {
  Dataset initial;
  std::vector<SpatialDocument> inserts;
};

Corpus MakeCorpus(const WorkloadSpec& spec);

/// \brief A deterministic, unbounded request stream for one connection.
/// Fresh streams draw new FREQ queries chunk by chunk (each with a new
/// location); repeat streams draw Zipf(1) from a shared request pool.
class RequestStream {
 public:
  /// `pool` (may be null) must outlive the stream.
  RequestStream(const QueryGenerator* gen,
                const std::vector<net::Request>* pool, uint64_t seed);

  net::Request Next();

 private:
  const QueryGenerator* gen_;
  const std::vector<net::Request>* pool_;
  uint64_t seed_;
  Rng rng_;
  std::unique_ptr<ZipfSampler> zipf_;
  std::vector<Query> chunk_;
  size_t cursor_ = 0;
  uint64_t chunks_ = 0;
  uint64_t count_ = 0;
};

/// The shared pool of distinct requests of a repeat workload (empty when
/// spec.repeat_pool == 0).
std::vector<net::Request> MakeRepeatPool(const WorkloadSpec& spec,
                                         const QueryGenerator& gen,
                                         uint64_t seed);

/// Seed of reader connection `conn`'s stream in timed phase `phase`.
uint64_t StreamSeed(uint64_t seed, uint32_t phase, uint32_t conn);

}  // namespace e2e
}  // namespace i3

#endif  // I3_E2EBENCH_WORKLOAD_H_
