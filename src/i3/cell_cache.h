// Decoded-cell cache: level 2 of the cache hierarchy (DESIGN.md §13).
//
// The buffer pool caches page *bytes*; a hit on a compressed v2 page still
// pays the full group decode (delta-unpack doc ids, dequantize weights,
// XOR-undelta coordinates) on every visit. This cache memoizes the decoded
// image of one keyword cell on one page, keyed by (page, source) and
// versioned by the page's buffer-pool write epoch: an entry is served only
// while its epoch matches the page's current epoch, so a rewritten,
// corrupted-and-quarantined, or healed page can never serve stale decoded
// tuples (the quarantine path bumps the epoch too).
//
// Sized in bytes with the same SIEVE/CLOCK policy as the buffer pool --
// hits set an atomic reference bit, the hand evicts the first unreferenced
// entry, new entries enter unreferenced (scan-resistant). Striped by key;
// lookups take the stripe lock in shared mode, so concurrent readers of
// the same hot cell visit it in parallel.

#ifndef I3_I3_CELL_CACHE_H_
#define I3_I3_CELL_CACHE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/document.h"
#include "obs/metrics.h"
#include "storage/page_file.h"

namespace i3 {

/// \brief Read-only columnar image of one keyword cell: `n` rows of four
/// parallel arrays in row order (not necessarily doc-id order), all
/// carrying term `term` -- kInvalidTermId when the rows mix term ids.
struct CellColumns {
  uint32_t term = 0;
  uint32_t n = 0;
  const DocId* docs = nullptr;
  const float* weights = nullptr;
  const double* xs = nullptr;
  const double* ys = nullptr;

  SpatialTuple Tuple(uint32_t i) const {
    SpatialTuple t;
    t.term = term;
    t.doc = docs[i];
    t.location.x = xs[i];
    t.location.y = ys[i];
    t.weight = weights[i];
    return t;
  }
};

/// \brief Destination of a bulk cell copy: four parallel arrays with room
/// for the rows being written.
struct CellRows {
  DocId* docs;
  float* weights;
  double* xs;
  double* ys;
};

/// Copies all `src.n` rows of `src` to `dst` (four memcpys).
inline void CopyRows(const CellColumns& src, const CellRows& dst) {
  if (src.n == 0) return;  // an empty entry's arrays may be null
  std::memcpy(dst.docs, src.docs, src.n * sizeof(DocId));
  std::memcpy(dst.weights, src.weights, src.n * sizeof(float));
  std::memcpy(dst.xs, src.xs, src.n * sizeof(double));
  std::memcpy(dst.ys, src.ys, src.n * sizeof(double));
}

/// \brief Options controlling CellCache behaviour.
struct CellCacheOptions {
  /// Total resident-byte budget across all stripes; 0 disables the cache.
  size_t capacity_bytes = 0;
  /// Lock stripes; 0 picks 8 (entries are small and keys hash well, so a
  /// fixed small power of two suffices).
  size_t stripes = 0;
};

/// \brief Striped, byte-bounded, epoch-validated cache of decoded keyword
/// cells. Thread-safe; see file comment for the policy.
class CellCache {
 public:
  explicit CellCache(CellCacheOptions options);

  bool enabled() const { return options_.capacity_bytes > 0; }

  /// Cache key of the cell `source` on `page`.
  static uint64_t Key(PageId page, uint32_t source) {
    return static_cast<uint64_t>(page) << 32 | source;
  }

  /// \brief Calls `fn(const CellColumns&)` once with the entry at `key` if
  /// it is resident and its epoch matches `epoch`. Returns the entry's row
  /// count on a hit, or -1 on a miss (absent or stale -- a stale entry is
  /// dropped on the spot). `fn` runs under the stripe's shared lock and the
  /// columns are valid only inside it (a concurrent insert may evict the
  /// entry afterwards): copy what must outlive the call, and do not
  /// re-enter the cache.
  template <typename Fn>
  int64_t ReadIfFresh(uint64_t key, uint64_t epoch, Fn&& fn) {
    if (!enabled()) return -1;
    Stripe& s = StripeOf(key);
    {
      std::shared_lock<std::shared_mutex> lock(s.mutex);
      auto it = s.index.find(key);
      if (it != s.index.end()) {
        const Entry& e = s.entries[it->second];
        if (e.epoch == epoch) {
          e.visited.store(1, std::memory_order_relaxed);
          hits_metric_->Increment(1);
          fn(CellColumns{e.term, static_cast<uint32_t>(e.docs.size()),
                         e.docs.data(), e.weights.data(), e.xs.data(),
                         e.ys.data()});
          return static_cast<int64_t>(e.docs.size());
        }
      }
    }
    DropStale(s, key, epoch);
    misses_metric_->Increment(1);
    return -1;
  }

  /// \brief Inserts a copy of `cols` under (`key`, `epoch`), evicting SIEVE
  /// victims until it fits the stripe's byte budget. Oversized cells
  /// (bigger than one stripe's whole budget) and mixed-term cells
  /// (`cols.term == kInvalidTermId`) are dropped. An existing entry for
  /// `key` is replaced.
  void Insert(uint64_t key, uint64_t epoch, const CellColumns& cols);

  /// \brief Drops every entry (cold-cache reset; pairs with
  /// BufferPool::Clear in DataFile::ClearCache).
  void Clear();

  size_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  size_t entry_count() const;

 private:
  struct Entry {
    uint64_t key = 0;
    uint64_t epoch = 0;
    uint32_t term = 0;
    bool live = false;
    mutable std::atomic<uint8_t> visited{0};
    std::vector<DocId> docs;
    std::vector<float> weights;
    std::vector<double> xs;
    std::vector<double> ys;
  };

  struct Stripe {
    mutable std::shared_mutex mutex;
    std::deque<Entry> entries;  // stable addresses; recycled via free list
    std::vector<uint32_t> free;
    std::unordered_map<uint64_t, uint32_t> index;
    size_t hand = 0;
    size_t bytes = 0;
    size_t capacity_bytes = 0;
  };

  Stripe& StripeOf(uint64_t key) {
    // SplitMix64-style mix: adjacent (page, source) keys spread stripes.
    uint64_t h = key + 0x9e3779b97f4a7c15ull;
    h = (h ^ h >> 30) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ h >> 27) * 0x94d049bb133111ebull;
    return *stripes_[(h ^ h >> 31) % stripes_.size()];
  }

  static size_t EntryBytes(size_t n) {
    return sizeof(Entry) + n * (sizeof(DocId) + sizeof(float) +
                                2 * sizeof(double));
  }

  /// Erases the entry at `key` iff it is still resident with a stale epoch
  /// (takes the stripe lock exclusively; re-checks under it).
  void DropStale(Stripe& s, uint64_t key, uint64_t epoch);
  /// Evicts one SIEVE victim; returns false when the stripe is empty.
  /// Guarded by s.mutex (exclusive).
  bool EvictOne(Stripe& s);
  void EraseEntry(Stripe& s, uint32_t idx);

  const CellCacheOptions options_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<size_t> resident_bytes_{0};

  obs::Counter* hits_metric_;
  obs::Counter* misses_metric_;
  obs::Counter* evictions_metric_;
  obs::Counter* insertions_metric_;
  obs::Gauge* bytes_metric_;
};

}  // namespace i3

#endif  // I3_I3_CELL_CACHE_H_
