// Paged storage: the disk substrate under every index in this library.
//
// A PageFile is a growable sequence of fixed-size pages addressed by PageId.
// Two backends are provided: an in-memory one (used by unit tests and for
// pure-CPU benchmarking) and a POSIX file-backed one (used to measure real
// storage footprints and to persist indexes). Both charge page reads and
// writes to an IoStats instance under a caller-chosen IoCategory, which is
// how the paper's per-file I/O breakdowns (Figures 8-9) are reproduced.

#ifndef I3_STORAGE_PAGE_FILE_H_
#define I3_STORAGE_PAGE_FILE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/io_stats.h"

namespace i3 {

/// Index of a page within a PageFile.
using PageId = uint32_t;
constexpr PageId kInvalidPageId = UINT32_MAX;

/// Default page size; the paper sets P = 4KB for all three indexes.
constexpr size_t kDefaultPageSize = 4096;

/// \brief Abstract growable array of fixed-size pages with I/O accounting.
class PageFile {
 public:
  virtual ~PageFile() = default;

  /// Page size in bytes (constant for the lifetime of the file).
  size_t page_size() const { return page_size_; }

  /// Number of allocated pages.
  virtual PageId PageCount() const = 0;

  /// Total storage footprint in bytes.
  uint64_t SizeBytes() const {
    return static_cast<uint64_t>(PageCount()) * page_size_;
  }

  /// \brief Appends a zeroed page and returns its id.
  virtual Result<PageId> AllocatePage() = 0;

  /// \brief Reads page `id` into `buf` (page_size bytes) and charges one
  /// read to `category`.
  virtual Status ReadPage(PageId id, void* buf, IoCategory category) = 0;

  /// \brief Writes page `id` from `buf` (page_size bytes) and charges one
  /// write to `category`.
  virtual Status WritePage(PageId id, const void* buf,
                           IoCategory category) = 0;

  /// \brief Zero-copy view of page `id`'s current bytes, or nullptr when
  /// the backend cannot expose one (disk-backed files, fault-injection
  /// wrappers). Charges nothing: a decorator that verifies through the view
  /// mirrors the base read's accounting itself (RecordRead, so the
  /// simulated device latency is still paid exactly once). Callers inherit
  /// ReadPage's synchronization contract -- the view is stable only while
  /// no writer touches the page.
  virtual const uint8_t* PeekPage(PageId) const { return nullptr; }

  /// I/O counters for this file. Mutable access for benchmark reset.
  const IoStats& io_stats() const { return io_stats_; }
  IoStats* mutable_io_stats() { return &io_stats_; }

 protected:
  explicit PageFile(size_t page_size) : page_size_(page_size) {}

  const size_t page_size_;
  IoStats io_stats_;
};

/// \brief Heap-backed PageFile.
class InMemoryPageFile final : public PageFile {
 public:
  explicit InMemoryPageFile(size_t page_size = kDefaultPageSize)
      : PageFile(page_size) {}

  PageId PageCount() const override {
    return static_cast<PageId>(pages_.size());
  }

  Result<PageId> AllocatePage() override;
  Status ReadPage(PageId id, void* buf, IoCategory category) override;
  Status WritePage(PageId id, const void* buf, IoCategory category) override;
  const uint8_t* PeekPage(PageId id) const override {
    return id < pages_.size() ? pages_[id].get() : nullptr;
  }

 private:
  std::vector<std::unique_ptr<uint8_t[]>> pages_;
};

/// \brief POSIX file-backed PageFile. Pages live at offset id * page_size.
class OnDiskPageFile final : public PageFile {
 public:
  /// Opens (creating or truncating) `path`.
  static Result<std::unique_ptr<OnDiskPageFile>> Create(
      const std::string& path, size_t page_size = kDefaultPageSize);

  ~OnDiskPageFile() override;

  OnDiskPageFile(const OnDiskPageFile&) = delete;
  OnDiskPageFile& operator=(const OnDiskPageFile&) = delete;

  PageId PageCount() const override { return page_count_; }

  Result<PageId> AllocatePage() override;
  Status ReadPage(PageId id, void* buf, IoCategory category) override;
  Status WritePage(PageId id, const void* buf, IoCategory category) override;

 private:
  OnDiskPageFile(int fd, std::string path, size_t page_size)
      : PageFile(page_size), fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
  PageId page_count_ = 0;
};

/// \brief Tracks free capacity per page so callers can answer the paper's
/// placement questions: "select any page with an empty slot" and "find a
/// page with at least n empty units" (Algorithms 1-3).
///
/// Free space is measured in caller-chosen *units* (the I3 data file uses
/// bytes). Pages are bucketed by free units quantized to `quantum`; the
/// find query scans the exact-match bucket (whose pages may straddle the
/// requested amount) and takes the head of any higher bucket, so both
/// operations stay O(1) amortized.
class FreeSpaceMap {
 public:
  /// \param units_per_page capacity of every page, in units.
  /// \param quantum bucket granularity; must divide into reasonable bucket
  ///        counts (units_per_page / quantum + 1 buckets are allocated).
  explicit FreeSpaceMap(uint32_t units_per_page, uint32_t quantum = 1);

  /// Registers a freshly allocated (empty) page.
  void AddPage(PageId id);

  /// Current free units of `id`.
  uint32_t FreeSlots(PageId id) const;

  /// Updates the bookkeeping after `delta` units were consumed (positive)
  /// or released (negative) on `id`.
  void Consume(PageId id, int delta);

  /// Sets the free units of `id` to an absolute value (the v2 write path
  /// recomputes a page's usage on every encode).
  void SetFree(PageId id, uint32_t units);

  /// \brief Any page with >= `want` free units, or kInvalidPageId.
  PageId FindPageWithFreeSlots(uint32_t want) const;

  uint32_t slots_per_page() const { return units_per_page_; }
  uint32_t quantum() const { return quantum_; }
  size_t page_count() const { return free_count_.size(); }

 private:
  uint32_t Bucket(uint32_t free) const { return free / quantum_; }
  void Unlink(PageId id);
  void Link(PageId id);

  const uint32_t units_per_page_;
  const uint32_t quantum_;
  std::vector<uint32_t> free_count_;  // per page, in units
  // Intrusive doubly-linked lists, one per quantized free-count bucket.
  std::vector<PageId> bucket_head_;
  std::vector<PageId> next_, prev_;
};

}  // namespace i3

#endif  // I3_STORAGE_PAGE_FILE_H_
