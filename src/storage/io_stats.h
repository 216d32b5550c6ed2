// Page-level I/O accounting.
//
// The paper's Figures 8 and 9 report I/O cost split by file type (head file
// vs data file for I3; tree nodes vs inverted files for IR-tree; tree nodes
// for S2I). Every storage component in this library charges its page
// accesses to an IoStats instance under a category so the benchmark
// harnesses can reproduce those stacked histograms exactly.

#ifndef I3_STORAGE_IO_STATS_H_
#define I3_STORAGE_IO_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace i3 {

/// \brief Global simulated device latency, busy-waited on every charged
/// page access while non-zero.
///
/// The paper's experiments are disk-resident: query latency is dominated by
/// page I/O. Our indexes hold pages in memory (with exact I/O accounting),
/// so wall-clock measurements would otherwise reflect CPU work only. The
/// benchmark harnesses arm this latency around the measured phase (queries,
/// updates) so that reported times follow the I/O profile of a disk
/// deployment; 0 disables the simulation (unit tests, pure-CPU runs).
void SetSimulatedIoLatencyUs(uint32_t us);
uint32_t GetSimulatedIoLatencyUs();

/// \brief RAII guard arming the simulated latency for a scope.
class ScopedIoLatency {
 public:
  explicit ScopedIoLatency(uint32_t us)
      : prev_(GetSimulatedIoLatencyUs()) {
    SetSimulatedIoLatencyUs(us);
  }
  ~ScopedIoLatency() { SetSimulatedIoLatencyUs(prev_); }
  ScopedIoLatency(const ScopedIoLatency&) = delete;
  ScopedIoLatency& operator=(const ScopedIoLatency&) = delete;

 private:
  uint32_t prev_;
};

namespace internal {
void SpinForSimulatedIo(uint64_t pages);
extern std::atomic<uint32_t> g_sim_io_latency_us;
}  // namespace internal

/// \brief What kind of file a page access touched.
enum class IoCategory : int {
  kI3HeadFile = 0,   ///< I3 summary nodes
  kI3DataFile = 1,   ///< I3 keyword-cell pages
  kRTreeNode = 2,    ///< R-tree / aR-tree nodes (S2I trees, IR-tree skeleton)
  kInvertedFile = 3, ///< IR-tree per-node inverted files
  kFlatFile = 4,     ///< S2I sequential blocks for infrequent keywords
  kOther = 5,
};

constexpr int kNumIoCategories = 6;

/// \brief Human-readable category name.
const char* IoCategoryName(IoCategory c);

/// \brief Mutable counters of page reads and writes, by category.
///
/// Counters are relaxed atomics so that concurrent searches (see
/// model/sharded_index.h) can charge I/O to a shared instance without
/// racing. Relaxed ordering is sufficient: the counters are independent
/// tallies, and every reader that needs a consistent cross-counter view
/// (benchmarks, stats accessors) reads them from a single thread or behind
/// the owning index's synchronization.
///
/// Copy construction/assignment takes a *per-counter* snapshot: each
/// counter is read atomically, but the set as a whole is not -- copying
/// while writers are active can observe counter A before an increment and
/// counter B after one. That torn view is fine for the intended use
/// (before/after diffs taken while the instance is quiescent, or
/// monitoring where per-counter accuracy suffices); it is not a
/// linearizable snapshot.
class IoStats {
 public:
  IoStats() = default;
  IoStats(const IoStats& other) { CopyFrom(other); }
  IoStats& operator=(const IoStats& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  void RecordRead(IoCategory c, uint64_t pages = 1) {
    reads_[static_cast<int>(c)].fetch_add(pages, std::memory_order_relaxed);
    if (internal::g_sim_io_latency_us.load(std::memory_order_relaxed) != 0) {
      internal::SpinForSimulatedIo(pages);
    }
  }
  void RecordWrite(IoCategory c, uint64_t pages = 1) {
    writes_[static_cast<int>(c)].fetch_add(pages, std::memory_order_relaxed);
    if (internal::g_sim_io_latency_us.load(std::memory_order_relaxed) != 0) {
      internal::SpinForSimulatedIo(pages);
    }
  }

  /// Tally-only variants for PageFile decorators that mirror a base file's
  /// charge: the simulated device latency was already paid by the physical
  /// access underneath, so mirroring the count must not wait again.
  void ChargeRead(IoCategory c, uint64_t pages = 1) {
    reads_[static_cast<int>(c)].fetch_add(pages, std::memory_order_relaxed);
  }
  void ChargeWrite(IoCategory c, uint64_t pages = 1) {
    writes_[static_cast<int>(c)].fetch_add(pages, std::memory_order_relaxed);
  }

  uint64_t reads(IoCategory c) const {
    return reads_[static_cast<int>(c)].load(std::memory_order_relaxed);
  }
  uint64_t writes(IoCategory c) const {
    return writes_[static_cast<int>(c)].load(std::memory_order_relaxed);
  }

  uint64_t TotalReads() const {
    uint64_t t = 0;
    for (const auto& v : reads_) t += v.load(std::memory_order_relaxed);
    return t;
  }
  uint64_t TotalWrites() const {
    uint64_t t = 0;
    for (const auto& v : writes_) t += v.load(std::memory_order_relaxed);
    return t;
  }
  uint64_t Total() const { return TotalReads() + TotalWrites(); }

  void Reset() {
    for (auto& v : reads_) v.store(0, std::memory_order_relaxed);
    for (auto& v : writes_) v.store(0, std::memory_order_relaxed);
  }

  /// Per-category diff helper: `*this - earlier`, element-wise (for
  /// measuring the cost of one query). `earlier` must be a snapshot of
  /// *this* instance taken before the work being measured: counters only
  /// grow, so each per-category subtraction underflows (wraps mod 2^64) if
  /// `earlier` is ahead. Like copying, the diff is per-counter, not a
  /// linearizable cross-counter snapshot.
  IoStats Since(const IoStats& earlier) const;

  /// Element-wise accumulation (for merging per-file counters).
  void MergeFrom(const IoStats& other) {
    for (int i = 0; i < kNumIoCategories; ++i) {
      reads_[i].fetch_add(other.reads_[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      writes_[i].fetch_add(other.writes_[i].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    }
  }

  std::string ToString() const;

 private:
  void CopyFrom(const IoStats& other) {
    for (int i = 0; i < kNumIoCategories; ++i) {
      reads_[i].store(other.reads_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      writes_[i].store(other.writes_[i].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    }
  }

  std::array<std::atomic<uint64_t>, kNumIoCategories> reads_{};
  std::array<std::atomic<uint64_t>, kNumIoCategories> writes_{};
};

/// \brief Charges `delta` to the process-wide metrics registry as
/// `i3_io_pages_total{category=...,op=read|write}` counters.
///
/// Callers pass a *diff* (typically IoStats::Since over a phase), not a
/// cumulative total -- the metric is monotonic, so re-exporting a running
/// total would double-count. Kept out of RecordRead/RecordWrite on purpose:
/// those run on the per-page hot path, where doubling the atomic traffic
/// for a statistic the caller can derive from one end-of-phase diff is a
/// poor trade.
void RecordIoMetrics(const IoStats& delta);

}  // namespace i3

#endif  // I3_STORAGE_IO_STATS_H_
