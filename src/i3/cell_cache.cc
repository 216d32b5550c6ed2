#include "i3/cell_cache.h"

#include <algorithm>

namespace i3 {

CellCache::CellCache(CellCacheOptions options) : options_(options) {
  size_t n = options_.stripes != 0 ? options_.stripes : 8;
  if (options_.capacity_bytes == 0) n = 1;
  stripes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Stripe>();
    s->capacity_bytes =
        options_.capacity_bytes / n + (i < options_.capacity_bytes % n);
    stripes_.push_back(std::move(s));
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  hits_metric_ =
      reg.GetCounter("i3_cell_cache_hits_total",
                     "Keyword-cell visits served from decoded entries.");
  misses_metric_ = reg.GetCounter(
      "i3_cell_cache_misses_total",
      "Keyword-cell visits that decoded the page (absent or stale entry).");
  evictions_metric_ =
      reg.GetCounter("i3_cell_cache_evictions_total",
                     "Decoded-cell entries dropped (SIEVE victim, stale "
                     "epoch, replacement, or Clear).");
  insertions_metric_ =
      reg.GetCounter("i3_cell_cache_insertions_total",
                     "Decoded-cell entries admitted after a miss.");
  bytes_metric_ = reg.GetGauge(
      "i3_cell_cache_bytes",
      "Resident decoded-cell bytes across all constructed caches.");
}

void CellCache::DropStale(Stripe& s, uint64_t key, uint64_t epoch) {
  if (!enabled()) return;
  std::unique_lock<std::shared_mutex> lock(s.mutex);
  auto it = s.index.find(key);
  if (it == s.index.end()) return;
  // Re-check under the exclusive lock: a racing miss may have refreshed
  // the entry to the current epoch already.
  if (s.entries[it->second].epoch == epoch) return;
  EraseEntry(s, it->second);
  evictions_metric_->Increment(1);
}

void CellCache::EraseEntry(Stripe& s, uint32_t idx) {
  Entry& e = s.entries[idx];
  const size_t bytes = EntryBytes(e.docs.size());
  s.bytes -= bytes;
  resident_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  bytes_metric_->Sub(static_cast<int64_t>(bytes));
  s.index.erase(e.key);
  e.live = false;
  e.visited.store(0, std::memory_order_relaxed);
  // Entry buffers are kept for reuse (steady-state insertions allocate
  // only when a cell outgrows a recycled entry's capacity).
  e.docs.clear();
  e.weights.clear();
  e.xs.clear();
  e.ys.clear();
  s.free.push_back(idx);
}

bool CellCache::EvictOne(Stripe& s) {
  const size_t n = s.entries.size();
  if (s.index.empty()) return false;
  for (size_t step = 0; step < 2 * n; ++step) {
    Entry& e = s.entries[s.hand];
    const uint32_t idx = static_cast<uint32_t>(s.hand);
    s.hand = (s.hand + 1) % n;
    if (!e.live) continue;
    if (e.visited.load(std::memory_order_relaxed) != 0) {
      e.visited.store(0, std::memory_order_relaxed);
      continue;
    }
    EraseEntry(s, idx);
    evictions_metric_->Increment(1);
    return true;
  }
  return false;
}

void CellCache::Insert(uint64_t key, uint64_t epoch, const CellColumns& c) {
  if (!enabled() || c.term == kInvalidTermId) return;
  Stripe& s = StripeOf(key);
  const size_t bytes = EntryBytes(c.n);
  if (bytes > s.capacity_bytes) return;  // would monopolize the stripe

  std::unique_lock<std::shared_mutex> lock(s.mutex);
  auto it = s.index.find(key);
  if (it != s.index.end()) {
    // Replace: a racing reader inserted first, or ours went stale and was
    // refreshed. Dropping the old entry keeps exactly one per key.
    EraseEntry(s, it->second);
    evictions_metric_->Increment(1);
  }
  while (s.bytes + bytes > s.capacity_bytes) {
    if (!EvictOne(s)) break;
  }
  if (s.bytes + bytes > s.capacity_bytes) return;  // everything pinned? no:
  // entries are never pinned; EvictOne only fails on an empty stripe, so
  // this bail-out is unreachable once bytes <= capacity was checked above.

  uint32_t idx;
  if (!s.free.empty()) {
    idx = s.free.back();
    s.free.pop_back();
  } else {
    s.entries.emplace_back();
    idx = static_cast<uint32_t>(s.entries.size() - 1);
  }
  Entry& e = s.entries[idx];
  e.key = key;
  e.epoch = epoch;
  e.term = c.term;
  e.live = true;
  e.visited.store(0, std::memory_order_relaxed);  // SIEVE: enter unvisited
  e.docs.assign(c.docs, c.docs + c.n);
  e.weights.assign(c.weights, c.weights + c.n);
  e.xs.assign(c.xs, c.xs + c.n);
  e.ys.assign(c.ys, c.ys + c.n);
  s.index[key] = idx;
  s.bytes += bytes;
  resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  bytes_metric_->Add(static_cast<int64_t>(bytes));
  insertions_metric_->Increment(1);
}

void CellCache::Clear() {
  for (auto& sp : stripes_) {
    Stripe& s = *sp;
    std::unique_lock<std::shared_mutex> lock(s.mutex);
    for (size_t i = 0; i < s.entries.size(); ++i) {
      if (!s.entries[i].live) continue;
      EraseEntry(s, static_cast<uint32_t>(i));
      evictions_metric_->Increment(1);
    }
  }
}

size_t CellCache::entry_count() const {
  size_t n = 0;
  for (const auto& sp : stripes_) {
    std::shared_lock<std::shared_mutex> lock(sp->mutex);
    n += sp->index.size();
  }
  return n;
}

}  // namespace i3

