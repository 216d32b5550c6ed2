// A striped, scan-resistant buffer pool over a PageFile.
//
// The paper's experiments clear the OS cache before each query set, so
// within a set some pages are served from memory. The buffer pool makes that
// effect explicit and controllable: capacity 0 disables caching (every
// access is a charged page I/O — the deterministic mode used for the I/O
// figures), and Clear() re-creates the cold-cache condition. An optional
// simulated per-miss latency lets timing experiments follow the I/O shape of
// a disk-resident deployment even when the backing PageFile is in memory.
//
// Concurrency: pages hash to independently locked stripes (stripe =
// id % stripes; ids are dense, so modulo striping is also perfectly
// balanced), so concurrent shard readers no longer serialize on one global
// mutex. Eviction within a stripe is SIEVE/CLOCK rather than strict LRU: a
// hit sets an atomic reference bit, and the clock hand evicts the first
// unreferenced unpinned frame, clearing bits as it sweeps. New frames enter
// unreferenced, which is what makes the policy scan-resistant — a one-shot
// scan's pages are reclaimed before they can displace the referenced hot
// set, and the hit path never performs LRU list surgery.

#ifndef I3_STORAGE_BUFFER_POOL_H_
#define I3_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/page_file.h"

namespace i3 {

namespace internal {
/// Nanoseconds this thread has spent waiting in read-retry backoff. Search
/// wrappers diff it around a query to attribute a `retry_backoff` trace
/// stage without threading a context object through every storage call.
/// (An accessor rather than an `extern thread_local`: the counter stays
/// file-local to buffer_pool.cc, so no other library reads a thread-local
/// across a library boundary.)
uint64_t RetryBackoffNanos();
}  // namespace internal

/// \brief Options controlling BufferPool behaviour.
struct BufferPoolOptions {
  /// Maximum number of cached pages; 0 disables caching entirely.
  size_t capacity_pages = 0;
  /// Wait this many microseconds on every cache miss to emulate device
  /// latency. 0 disables the simulation.
  uint32_t simulated_miss_latency_us = 0;
  /// Transient read errors (Status::IOError) are retried up to this many
  /// times with exponential backoff before the error propagates. Retrying
  /// only IOError is deliberate: Corruption means the bytes are wrong (a
  /// re-read returns the same wrong bytes -- quarantine instead), and
  /// OutOfRange/InvalidArgument are caller bugs.
  uint32_t max_read_retries = 2;
  /// First retry waits this long; each further retry doubles it.
  uint32_t retry_backoff_us = 100;
  /// Lock stripes. 0 picks automatically: roughly one stripe per 32 frames,
  /// capped at 16, so tiny pools (unit tests, head pools) keep one stripe
  /// and fully deterministic eviction order.
  size_t stripes = 0;
};

/// \brief Write-through striped page cache, layered on a PageFile.
///
/// Page accesses are internally synchronized so that concurrent readers
/// (behind model/sharded_index.h) can share the cache;
/// each page belongs to exactly one stripe and the critical section covers
/// only that stripe's bookkeeping plus the underlying page copy. Writers
/// still require external exclusion against readers: the pool orders
/// accesses to itself, not to the index structures that decide which pages
/// to touch.
///
/// Zero-copy reads: PinPage hands out a pointer directly into the cached
/// frame instead of copying the page out. A pinned frame is exempt from
/// eviction (and from Clear()) until its PinnedPage is destroyed, so the
/// pointer stays valid for the pin's lifetime even while other readers churn
/// the stripe. The frame bytes themselves are immutable while any reader
/// runs (the writer-exclusion contract above); pinning protects against
/// *recycling*, not against writers.
///
/// Write epochs: every page carries a monotonic epoch, bumped by WritePage
/// and by corruption quarantine, and captured by PinnedPage at pin time.
/// Derived caches (i3/cell_cache.h) key their entries on it: an entry is
/// valid only while its epoch matches the page's current epoch, so a
/// rewritten or quarantined/healed page can never serve stale decoded
/// state. Epochs live in per-stripe side tables (not in frames) so they
/// survive eviction.
class BufferPool {
 public:
  BufferPool(PageFile* file, BufferPoolOptions options);

  /// \brief RAII pin on one cached page frame (movable, not copyable).
  /// data() stays valid until destruction/Release. Pins are cheap (one
  /// stripe-mutex acquisition each way) but should be scoped tightly: a
  /// pinned frame cannot be evicted, so long-lived pins inflate the pool
  /// past its configured capacity.
  class PinnedPage {
   public:
    PinnedPage() = default;
    PinnedPage(PinnedPage&& o) noexcept { *this = std::move(o); }
    PinnedPage& operator=(PinnedPage&& o) noexcept {
      Release();
      pool_ = o.pool_;
      frame_ = o.frame_;
      epoch_ = o.epoch_;
      o.pool_ = nullptr;
      o.frame_ = nullptr;
      o.epoch_ = 0;
      return *this;
    }
    PinnedPage(const PinnedPage&) = delete;
    PinnedPage& operator=(const PinnedPage&) = delete;
    ~PinnedPage() { Release(); }

    const uint8_t* data() const;
    bool valid() const { return frame_ != nullptr; }
    /// The page's write epoch at pin time (see class comment).
    uint64_t epoch() const { return epoch_; }
    void Release();

   private:
    friend class BufferPool;
    PinnedPage(BufferPool* pool, void* frame, uint64_t epoch)
        : pool_(pool), frame_(frame), epoch_(epoch) {}

    BufferPool* pool_ = nullptr;
    void* frame_ = nullptr;  // Frame*; opaque to callers
    uint64_t epoch_ = 0;
  };

  /// True if PinPage is usable (a capacity-0 pool has no frames to pin;
  /// callers fall back to a copying read into their own buffer).
  bool Pinnable() const { return options_.capacity_pages > 0; }

  /// \brief Pins page `id` in the cache, faulting it in on a miss through
  /// `scratch` (a caller-provided page_size() buffer, used only during the
  /// call). Requires Pinnable().
  Status PinPage(PageId id, IoCategory category, uint8_t* scratch,
                 PinnedPage* out);

  /// \brief Reads page `id` (through the cache) into `buf`.
  Status ReadPage(PageId id, void* buf, IoCategory category);

  /// \brief Writes page `id` through to the file, refreshes the cache, and
  /// bumps the page's write epoch (invalidating derived cache entries).
  Status WritePage(PageId id, const void* buf, IoCategory category);

  /// \brief Allocates a page in the underlying file.
  Result<PageId> AllocatePage() { return file_->AllocatePage(); }

  /// \brief Drops every cached page (cold-cache reset between query sets).
  /// Frames pinned at the moment of the call survive it (their pointers
  /// must stay valid); that keeps at most a few in-flight pages warm, and
  /// none in the single-threaded benchmark setup, where no pin spans a
  /// Clear. Epochs are *not* reset: they version page contents, which
  /// Clear does not change.
  void Clear();

  /// \brief Current write epoch of `id` (0 if never written through this
  /// pool). Takes only the page's stripe lock.
  uint64_t PageEpoch(PageId id) const;

  // Stats are relaxed atomics: reading them never contends with the pin
  // path, and individual counters are exact (totals across counters are
  // not snapshot-consistent, which no caller needs).
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Frames dropped to make room (victim recycles) or by Clear().
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Evictions that reused the victim's buffer in place (no allocation).
  uint64_t frame_recycles() const {
    return frame_recycles_.load(std::memory_order_relaxed);
  }
  /// Read retries performed after transient errors.
  uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  /// Number of lock stripes (>= 1, even for a capacity-0 pool, which still
  /// tracks quarantine and epochs per stripe).
  size_t stripe_count() const { return stripes_.size(); }

  /// \brief True while `id` is quarantined: a read of it returned
  /// Corruption, its cached frame (if any, and unpinned) was dropped, and
  /// until a verified read or a write-through succeeds the cache is
  /// bypassed for it -- a poisoned frame is never served.
  bool IsQuarantined(PageId id) const {
    const Stripe& s = StripeOf(id);
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.quarantined.count(id) != 0;
  }
  size_t quarantined_count() const {
    size_t n = 0;
    for (const auto& s : stripes_) {
      std::lock_guard<std::mutex> lock(s->mutex);
      n += s->quarantined.size();
    }
    return n;
  }

  PageFile* file() { return file_; }
  size_t page_size() const { return file_->page_size(); }

 private:
  struct Frame {
    PageId id = kInvalidPageId;
    std::vector<uint8_t> data;
    /// Open pins; a frame with pins > 0 is never evicted. Guarded by the
    /// stripe mutex like the rest of the frame bookkeeping (the *bytes*
    /// are stable while pinned, so readers decode them outside the lock).
    uint32_t pins = 0;
    /// Owning stripe index; fixed at creation (frames never migrate).
    uint32_t stripe = 0;
    /// SIEVE reference bit: set on hit, cleared by the sweeping hand.
    std::atomic<uint8_t> visited{0};
  };

  /// One lock stripe. Frames live in a deque (stable addresses -- pinned
  /// readers hold raw Frame pointers) and are recycled in place; the slot
  /// tables are direct-indexed by slot = id / stripe-count because PageIds
  /// are dense (files allocate them sequentially from zero), so a miss's
  /// several lookups (hit check, duplicate check, victim replacement) skip
  /// hashing entirely.
  struct Stripe {
    mutable std::mutex mutex;
    std::deque<Frame> frames;
    /// Indices of empty frames (freed by Clear or quarantine), reused
    /// before the hand evicts anything.
    std::vector<uint32_t> free;
    /// slot -> frame index; meaningful only while present[slot] is set.
    std::vector<uint32_t> table;
    std::vector<uint8_t> present;
    /// slot -> write epoch. Lives here, not in frames, so an epoch
    /// survives its frame's eviction (a re-cached page must not restart
    /// at 0 and collide with stale derived-cache entries).
    std::vector<uint64_t> epochs;
    /// CLOCK hand: index of the next frame the sweep examines.
    size_t hand = 0;
    size_t capacity = 0;
    /// Pages whose last device read returned Corruption.
    std::unordered_set<PageId> quarantined;
  };

  size_t SlotOf(PageId id) const { return id / stripes_.size(); }
  Stripe& StripeOf(PageId id) { return *stripes_[id % stripes_.size()]; }
  const Stripe& StripeOf(PageId id) const {
    return *stripes_[id % stripes_.size()];
  }

  /// Frame lookup within `s` (kNoFrame if absent). Indices, not pointers:
  /// frames live in a deque, so index arithmetic is the only valid way to
  /// name a frame's slot-table entry. Guarded by s.mutex.
  static constexpr uint32_t kNoFrame = UINT32_MAX;
  uint32_t LookupIndex(const Stripe& s, PageId id) const {
    const size_t slot = SlotOf(id);
    if (slot >= s.present.size() || !s.present[slot]) return kNoFrame;
    return s.table[slot];
  }
  void Remember(Stripe& s, PageId id, uint32_t frame_index) {
    const size_t slot = SlotOf(id);
    if (slot >= s.present.size()) {
      s.present.resize(slot + 1, 0);
      s.table.resize(slot + 1);
    }
    s.table[slot] = frame_index;
    s.present[slot] = 1;
  }
  void Forget(Stripe& s, PageId id) { s.present[SlotOf(id)] = 0; }

  /// Inserts (or refreshes the reference bit of) `id`; returns the frame.
  /// `buf` is copied only into a newly created or recycled frame -- an
  /// existing frame already holds the current bytes (write-through
  /// invariant) and may be concurrently mapped by a pinned reader.
  Frame* InsertFrame(Stripe& s, PageId id, const void* buf);
  /// Marks `f` empty and reusable; counts one eviction. Guarded by s.mutex.
  void FreeFrame(Stripe& s, uint32_t frame_index);

  /// Epoch slot accessor (grows the table on demand). Guarded by s.mutex.
  uint64_t& EpochSlot(Stripe& s, PageId id) {
    const size_t slot = SlotOf(id);
    if (slot >= s.epochs.size()) s.epochs.resize(slot + 1, 0);
    return s.epochs[slot];
  }
  uint64_t EpochOf(const Stripe& s, PageId id) const {
    const size_t slot = SlotOf(id);
    return slot < s.epochs.size() ? s.epochs[slot] : 0;
  }

  void Unpin(Frame* frame);
  void SimulateMiss() const;
  /// Cache hit gate: false when `id` is quarantined (bypass to the device).
  bool Servable(const Stripe& s, PageId id) const {
    return s.quarantined.empty() || s.quarantined.count(id) == 0;
  }
  /// \brief Device read with bounded exponential-backoff retry of transient
  /// IOErrors; on Corruption, quarantines `id` (drops its unpinned frame
  /// and bumps the page epoch so derived caches discard decoded state).
  Status ReadWithRetry(PageId id, void* buf, IoCategory category);

  PageFile* file_;
  const BufferPoolOptions options_;
  /// unique_ptr elements: Stripe holds a mutex and is neither movable nor
  /// copyable; the vector itself is sized once in the constructor.
  std::vector<std::unique_ptr<Stripe>> stripes_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> frame_recycles_{0};
  std::atomic<uint64_t> retries_{0};

  // Process-wide counters, cached at construction (every pool instance
  // feeds the same series; per-pool numbers come from the accessors).
  obs::Counter* hits_metric_;
  obs::Counter* misses_metric_;
  obs::Counter* evictions_metric_;
  obs::Counter* frame_recycles_metric_;
  obs::Counter* retries_metric_;
};

}  // namespace i3

#endif  // I3_STORAGE_BUFFER_POOL_H_
