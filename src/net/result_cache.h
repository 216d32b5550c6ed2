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
// Validation is by write generation (model/write_log.h): entries are
// tagged with the index generation read before their search *started*.
// A lookup serves an entry whose tag is current as it is; one whose tag
// is behind has the writes since replayed against it -- the entry's
// query is decoded from its key -- and is served, its tag advanced, when
// none of them can change its top-k. Otherwise it is dropped and the
// request misses. write_log.h states why a replayed entry is exact.
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

#include "model/write_log.h"
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

/// \brief Striped, write-log-validated cache of complete search
/// responses, keyed by canonical request bytes. Thread-safe.
class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options);

  bool enabled() const { return options_.capacity_entries > 0; }

  /// Canonical cache key of `req`: its re-encoded frame with the
  /// search-irrelevant identity fields zeroed (see file comment).
  static std::string KeyOf(const Request& req);

  /// \brief Serves the entry at `key` into `out` (outcome kOk, results;
  /// request_id is the caller's to fill) iff it is resident and no write
  /// `log` holds since its tag can change its answer. A stale entry is
  /// dropped on the spot. Returns hit/miss and counts the corresponding
  /// metric; on a hit, `*replayed_writes` (optional) receives the number
  /// of writes replayed (0 for an entry that was current).
  bool Lookup(const std::string& key, const WriteLog& log, Response* out,
              uint64_t* replayed_writes = nullptr);

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

  /// Replays `log` from `e`'s tag against its results; on success
  /// advances the tag to the generation replayed to and counts the writes
  /// in `*replayed`. Guarded by the entry's stripe mutex.
  static bool Replay(const std::string& key, const WriteLog& log, Entry* e,
                     uint64_t* replayed);

  /// Evicts one SIEVE victim; false when the stripe is empty. Guarded by
  /// s.mutex.
  bool EvictOne(Stripe& s);
  void EraseEntry(Stripe& s, uint32_t idx);

  const ResultCacheOptions options_;
  std::vector<std::unique_ptr<Stripe>> stripes_;

  obs::Counter* hits_metric_;
  obs::Counter* replayed_hits_metric_;
  obs::Counter* misses_metric_;
  obs::Counter* bypass_metric_;
  obs::Counter* evictions_metric_;
  obs::Counter* insertions_metric_;
  obs::Gauge* entries_metric_;
};

}  // namespace net
}  // namespace i3

#endif  // I3_NET_RESULT_CACHE_H_
