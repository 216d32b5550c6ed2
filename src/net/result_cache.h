// Whole-query result cache: level 3 of the cache hierarchy (DESIGN.md
// §13).
//
// PR 7 made protocol decode canonical -- whatever decodes re-encodes
// byte-identically -- so the frame IS the key: a request's canonical
// re-encoding with the identity fields (request_id, tenant, deadline_ms,
// no_cache) zeroed names exactly the search it performs (terms, k, alpha,
// semantics, location). Zeroing the deadline is sound because only ok
// responses are ever cached, and a complete top-k is
// deadline-independent.
//
// Invalidation is by index generation: ShardedIndex bumps a monotonic
// counter after every Insert/Delete/Update, entries are tagged with the
// generation current when their search *started*, and a lookup serves an
// entry only while its tag equals the index's current generation -- one
// write anywhere invalidates everything, which is deliberately coarse
// (cheap, race-free, and writes are rare next to the repeated-query read
// traffic this cache exists for).
//
// Bounded by entry count with the same striped SIEVE/CLOCK policy as the
// other levels; requests carrying the wire no_cache flag bypass it.

#ifndef I3_NET_RESULT_CACHE_H_
#define I3_NET_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "obs/metrics.h"

namespace i3 {
namespace net {

/// \brief Options controlling ResultCache behaviour.
struct ResultCacheOptions {
  /// Maximum cached responses across all stripes; 0 disables the cache.
  size_t capacity_entries = 0;
  /// Lock stripes; 0 picks 8.
  size_t stripes = 0;
};

/// \brief Striped, generation-validated cache of complete search
/// responses, keyed by canonical request bytes. Thread-safe.
class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options);

  bool enabled() const { return options_.capacity_entries > 0; }

  /// Canonical cache key of `req`: its re-encoded frame with the
  /// search-irrelevant identity fields zeroed (see file comment).
  static std::string KeyOf(const Request& req);

  /// \brief Serves the entry at `key` into `out` (outcome kOk, results;
  /// request_id is the caller's to fill) iff it is
  /// resident and tagged with `generation`. A stale entry is dropped on
  /// the spot. Returns hit/miss; counts the corresponding metric.
  bool Lookup(const std::string& key, uint64_t generation, Response* out);

  /// \brief Caches `results` under (`key`, `generation`), evicting SIEVE
  /// victims to stay within the entry bound. Only ok results may be
  /// inserted -- the caller enforces that.
  void Insert(const std::string& key, uint64_t generation,
              const std::vector<ScoredDoc>& results);

  /// Counts one bypassed (no_cache) request.
  void CountBypass() { bypass_metric_->Increment(1); }

  /// Drops every entry.
  void Clear();

  size_t entry_count() const;

  /// Live entries per stripe (the balance view /cachez renders).
  std::vector<size_t> StripeOccupancy() const;

 private:
  struct Entry {
    std::string key;
    uint64_t generation = 0;
    bool live = false;
    mutable std::atomic<uint8_t> visited{0};
    std::vector<ScoredDoc> results;
  };

  struct Stripe {
    mutable std::mutex mutex;
    std::deque<Entry> entries;  // stable addresses; recycled via free list
    std::vector<uint32_t> free;
    std::unordered_map<std::string, uint32_t> index;
    size_t hand = 0;
    size_t capacity = 0;
  };

  Stripe& StripeOf(const std::string& key) {
    return *stripes_[std::hash<std::string>{}(key) % stripes_.size()];
  }

  /// Evicts one SIEVE victim; false when the stripe is empty. Guarded by
  /// s.mutex.
  bool EvictOne(Stripe& s);
  void EraseEntry(Stripe& s, uint32_t idx);

  const ResultCacheOptions options_;
  std::vector<std::unique_ptr<Stripe>> stripes_;

  obs::Counter* hits_metric_;
  obs::Counter* misses_metric_;
  obs::Counter* bypass_metric_;
  obs::Counter* evictions_metric_;
  obs::Counter* insertions_metric_;
  obs::Gauge* entries_metric_;
};

}  // namespace net
}  // namespace i3

#endif  // I3_NET_RESULT_CACHE_H_
