#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/deadline.h"
#include "obs/clock.h"

namespace i3 {

namespace {

thread_local uint64_t t_retry_backoff_ns = 0;

/// Auto stripe count: roughly one stripe per 32 frames, power of two,
/// capped at 16. Tiny pools (unit tests, head pools under ~64 pages) get a
/// single stripe and therefore fully deterministic eviction order.
size_t AutoStripes(size_t capacity_pages) {
  const size_t want = std::min<size_t>(16, capacity_pages / 32);
  size_t n = 1;
  while (n * 2 <= want) n *= 2;
  return n;
}

}  // namespace

namespace internal {
uint64_t RetryBackoffNanos() { return t_retry_backoff_ns; }
}  // namespace internal

BufferPool::BufferPool(PageFile* file, BufferPoolOptions options)
    : file_(file), options_(options) {
  size_t n = options_.stripes != 0 ? options_.stripes
                                   : AutoStripes(options_.capacity_pages);
  // Every stripe must own at least one frame (a frameless stripe could
  // never cache its pages); a capacity-0 pool keeps one stripe purely for
  // quarantine and epoch tracking.
  n = std::max<size_t>(1, std::min(n, options_.capacity_pages));
  if (options_.capacity_pages == 0) n = 1;
  stripes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Stripe>();
    s->capacity =
        options_.capacity_pages / n + (i < options_.capacity_pages % n);
    stripes_.push_back(std::move(s));
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  hits_metric_ = reg.GetCounter("i3_buffer_pool_hits_total",
                                "Page requests served from the cache.");
  misses_metric_ = reg.GetCounter(
      "i3_buffer_pool_misses_total",
      "Page requests that faulted through to the backing file.");
  evictions_metric_ =
      reg.GetCounter("i3_buffer_pool_evictions_total",
                     "Cached frames dropped to make room or by Clear().");
  frame_recycles_metric_ = reg.GetCounter(
      "i3_buffer_pool_frame_recycles_total",
      "Evictions that reused the victim frame in place (no allocation).");
  retries_metric_ = reg.GetCounter(
      "i3_page_retries_total",
      "Page reads retried after a transient error (IOError).");
  if (options_.capacity_pages > 0) {
    reg.GetGauge("i3_buffer_pool_stripes",
                 "Lock stripes across all constructed buffer pools.")
        ->Add(static_cast<int64_t>(n));
  }
}

Status BufferPool::ReadWithRetry(PageId id, void* buf, IoCategory category) {
  uint64_t backoff_us = options_.retry_backoff_us;
  for (uint32_t attempt = 0;; ++attempt) {
    Status st = file_->ReadPage(id, buf, category);
    if (st.ok()) return st;
    if (st.IsCorruption()) {
      // The stored bytes are wrong; a re-read returns the same wrong
      // bytes. Quarantine: drop the (stale) unpinned frame and bypass the
      // cache for this page until a verified read or rewrite succeeds.
      // The epoch bump invalidates any decoded state derived from the
      // pre-corruption bytes, so a later heal starts from a clean slate.
      Stripe& s = StripeOf(id);
      std::lock_guard<std::mutex> lock(s.mutex);
      s.quarantined.insert(id);
      ++EpochSlot(s, id);
      const uint32_t idx = LookupIndex(s, id);
      if (idx != kNoFrame && s.frames[idx].pins == 0) FreeFrame(s, idx);
      return st;
    }
    if (!st.IsIOError() || attempt >= options_.max_read_retries) return st;
    retries_.fetch_add(1, std::memory_order_relaxed);
    retries_metric_->Increment(1);
    const uint64_t wait_start = obs::NowNanos();
    DeadlineTimer::SleepFor(backoff_us);
    t_retry_backoff_ns += obs::NowNanos() - wait_start;
    backoff_us *= 2;
  }
}

const uint8_t* BufferPool::PinnedPage::data() const {
  return static_cast<const Frame*>(frame_)->data.data();
}

void BufferPool::PinnedPage::Release() {
  if (frame_ == nullptr) return;
  pool_->Unpin(static_cast<Frame*>(frame_));
  frame_ = nullptr;
  pool_ = nullptr;
  epoch_ = 0;
}

Status BufferPool::PinPage(PageId id, IoCategory category, uint8_t* scratch,
                           PinnedPage* out) {
  assert(Pinnable());
  {
    Stripe& s = StripeOf(id);
    std::lock_guard<std::mutex> lock(s.mutex);
    const uint32_t idx = LookupIndex(s, id);
    if (idx != kNoFrame && Servable(s, id)) {
      Frame& f = s.frames[idx];
      ++f.pins;
      f.visited.store(1, std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      hits_metric_->Increment(1);
      *out = PinnedPage(this, &f, EpochOf(s, id));
      return Status::OK();
    }
  }
  // Miss: fault the page in through the caller's scratch buffer outside the
  // lock (stateless file read; simulated device latency must overlap across
  // threads), then publish it. A racing miss on the same page is benign:
  // InsertFrame finds the winner's frame and this thread pins it.
  I3_RETURN_NOT_OK(ReadWithRetry(id, scratch, category));
  SimulateMiss();
  {
    Stripe& s = StripeOf(id);
    std::lock_guard<std::mutex> lock(s.mutex);
    s.quarantined.erase(id);  // verified device read heals the page
    misses_.fetch_add(1, std::memory_order_relaxed);
    misses_metric_->Increment(1);
    Frame* frame = InsertFrame(s, id, scratch);
    ++frame->pins;
    *out = PinnedPage(this, frame, EpochOf(s, id));
  }
  return Status::OK();
}

void BufferPool::Unpin(Frame* frame) {
  Stripe& s = *stripes_[frame->stripe];
  std::lock_guard<std::mutex> lock(s.mutex);
  assert(frame->pins > 0);
  --frame->pins;
}

Status BufferPool::ReadPage(PageId id, void* buf, IoCategory category) {
  if (options_.capacity_pages > 0) {
    Stripe& s = StripeOf(id);
    std::lock_guard<std::mutex> lock(s.mutex);
    const uint32_t idx = LookupIndex(s, id);
    if (idx != kNoFrame && Servable(s, id)) {
      Frame& f = s.frames[idx];
      std::memcpy(buf, f.data.data(), page_size());
      f.visited.store(1, std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      hits_metric_->Increment(1);
      return Status::OK();
    }
  }
  // Miss path runs unlocked: PageFile reads are stateless (pread / const
  // memory copy) and the simulated device latency must overlap across
  // threads, not serialize behind the stripe lock.
  I3_RETURN_NOT_OK(ReadWithRetry(id, buf, category));
  SimulateMiss();
  {
    Stripe& s = StripeOf(id);
    std::lock_guard<std::mutex> lock(s.mutex);
    s.quarantined.erase(id);  // verified device read heals the page
    misses_.fetch_add(1, std::memory_order_relaxed);
    misses_metric_->Increment(1);
    if (options_.capacity_pages > 0) InsertFrame(s, id, buf);
  }
  return Status::OK();
}

Status BufferPool::WritePage(PageId id, const void* buf,
                             IoCategory category) {
  I3_RETURN_NOT_OK(file_->WritePage(id, buf, category));
  Stripe& s = StripeOf(id);
  std::lock_guard<std::mutex> lock(s.mutex);
  s.quarantined.erase(id);  // write-through replaces the stored bytes
  ++EpochSlot(s, id);       // new bytes: invalidate derived cache entries
  if (options_.capacity_pages == 0) return Status::OK();
  const uint32_t idx = LookupIndex(s, id);
  if (idx != kNoFrame) {
    Frame& f = s.frames[idx];
    std::memcpy(f.data.data(), buf, page_size());
    f.visited.store(1, std::memory_order_relaxed);
  } else {
    InsertFrame(s, id, buf);
  }
  return Status::OK();
}

void BufferPool::Clear() {
  for (auto& sp : stripes_) {
    Stripe& s = *sp;
    std::lock_guard<std::mutex> lock(s.mutex);
    for (size_t i = 0; i < s.frames.size(); ++i) {
      Frame& f = s.frames[i];
      if (f.id == kInvalidPageId || f.pins > 0) continue;
      FreeFrame(s, static_cast<uint32_t>(i));
    }
  }
}

uint64_t BufferPool::PageEpoch(PageId id) const {
  const Stripe& s = StripeOf(id);
  std::lock_guard<std::mutex> lock(s.mutex);
  return EpochOf(s, id);
}

void BufferPool::FreeFrame(Stripe& s, uint32_t frame_index) {
  Frame& f = s.frames[frame_index];
  Forget(s, f.id);
  f.id = kInvalidPageId;
  f.visited.store(0, std::memory_order_relaxed);
  s.free.push_back(frame_index);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  evictions_metric_->Increment(1);
}

BufferPool::Frame* BufferPool::InsertFrame(Stripe& s, PageId id,
                                           const void* buf) {
  // Two readers can miss on the same page back to back (the miss path runs
  // unlocked); the second insert must adopt the existing frame, not grow a
  // duplicate whose eviction would orphan the live table entry. No byte
  // copy: the frame already holds the current page (write-through
  // invariant), and rewriting identical bytes would race a pinned reader
  // decoding them.
  const uint32_t dup = LookupIndex(s, id);
  if (dup != kNoFrame) {
    Frame& f = s.frames[dup];
    f.visited.store(1, std::memory_order_relaxed);
    return &f;
  }
  // Emptied frames (Clear, quarantine drops) are refilled first: their
  // eviction was already counted and their buffer is ready for reuse.
  if (!s.free.empty()) {
    const uint32_t idx = s.free.back();
    s.free.pop_back();
    Frame& f = s.frames[idx];
    f.id = id;
    if (f.data.size() != page_size()) f.data.resize(page_size());
    std::memcpy(f.data.data(), buf, page_size());
    Remember(s, id, idx);
    return &f;
  }
  if (s.frames.size() >= s.capacity) {
    // SIEVE sweep: advance the hand, clearing reference bits, and recycle
    // the first unreferenced unpinned frame in place -- its page buffer
    // and slot-table entry are reused, so a steady-state miss performs
    // zero allocator traffic. Rewriting the bytes is safe because
    // pins == 0 means no reader maps the frame, and copying-out readers
    // hold the stripe mutex. New frames enter with the bit clear, which
    // is what makes the policy scan-resistant: a one-shot scan's pages
    // are reclaimed before any referenced (hot) frame. Two full passes
    // bound the sweep -- the first may only clear bits, the second must
    // find a victim unless every frame is pinned (#pins is bounded by the
    // number of reader threads), in which case grow past capacity for
    // the moment instead.
    const size_t n = s.frames.size();
    for (size_t step = 0; step < 2 * n; ++step) {
      const uint32_t idx = static_cast<uint32_t>(s.hand);
      Frame& f = s.frames[idx];
      s.hand = (s.hand + 1) % n;
      if (f.pins > 0 || f.id == kInvalidPageId) continue;
      if (f.visited.load(std::memory_order_relaxed) != 0) {
        f.visited.store(0, std::memory_order_relaxed);
        continue;
      }
      evictions_.fetch_add(1, std::memory_order_relaxed);
      frame_recycles_.fetch_add(1, std::memory_order_relaxed);
      evictions_metric_->Increment(1);
      frame_recycles_metric_->Increment(1);
      Forget(s, f.id);
      f.id = id;
      std::memcpy(f.data.data(), buf, page_size());
      Remember(s, id, idx);
      return &f;
    }
  }
  s.frames.emplace_back();
  Frame& f = s.frames.back();
  f.id = id;
  f.stripe = static_cast<uint32_t>(id % stripes_.size());
  f.data.assign(static_cast<const uint8_t*>(buf),
                static_cast<const uint8_t*>(buf) + page_size());
  Remember(s, id, static_cast<uint32_t>(s.frames.size() - 1));
  return &f;
}

void BufferPool::SimulateMiss() const {
  if (options_.simulated_miss_latency_us == 0) return;
  DeadlineTimer::SleepFor(options_.simulated_miss_latency_us);
}

}  // namespace i3
