// Page-level integrity: a PageFile decorator that stamps every physical
// page with a 16-byte header (magic, write epoch, page id, CRC32C) and
// verifies it on read.
//
// The paper assumes a reliable disk; a serving deployment does not get one.
// Without verification a torn write or bit-flip silently corrupts tuples
// and surfaces as a *wrong top-k list* -- the worst possible failure mode
// for a search system. With it, damage surfaces as Status::Corruption at
// the first read, which the buffer pool quarantines and the query returns
// as a clean error, or a replicated index fails over around (see DESIGN.md
// section 10).
//
// Layout: physical page = [PageHeader | logical payload]. The wrapper
// exposes the *logical* page size, so capacity math above it (the page
// encoding, FreeSpaceMap) is unchanged -- callers construct the base file with
// kPageHeaderBytes of extra physical room (I3Index does this when
// I3Options::checksum_pages is set).
//
// What is detected: payload or header bit-flips and torn (partial) writes
// (CRC mismatch), misdirected reads/writes landing on the wrong page slot
// (page-id mismatch), and garbage where a page should be (magic mismatch).
// A never-written page reads back all-zero; that is recognized as "fresh"
// and served as a zero payload, so AllocatePage needs no format write and
// the decorator's I/O accounting stays exactly one physical access per
// logical access (the paper's I/O figures depend on that 1:1 mapping).
// Not detected: a lost write that restores a stale-but-valid page image
// (needs an external epoch ledger; out of scope -- documented in DESIGN.md).

#ifndef I3_STORAGE_CHECKSUMMED_PAGE_FILE_H_
#define I3_STORAGE_CHECKSUMMED_PAGE_FILE_H_

#include <atomic>
#include <memory>

#include "obs/metrics.h"
#include "storage/page_file.h"

namespace i3 {

/// Physical bytes prepended to every page: magic u32, epoch u32, page id
/// u32, masked CRC32C u32 (the CRC covers epoch + page id + payload).
constexpr size_t kPageHeaderBytes = 16;

/// "I3PG" little-endian.
constexpr uint32_t kPageMagic = 0x47503349u;

/// \brief Wraps a PageFile, storing checksummed pages in it.
///
/// Thread-safe to the same degree as the base file: concurrent ReadPage
/// calls share nothing but a per-thread scratch buffer and the epoch
/// counter (atomic). The logical page size is base->page_size() minus the
/// header.
class ChecksummedPageFile final : public PageFile {
 public:
  /// `base` must have page_size() > kPageHeaderBytes.
  explicit ChecksummedPageFile(std::unique_ptr<PageFile> base);

  PageId PageCount() const override { return base_->PageCount(); }

  Result<PageId> AllocatePage() override;
  Status ReadPage(PageId id, void* buf, IoCategory category) override;
  Status WritePage(PageId id, const void* buf, IoCategory category) override;

  /// Write epoch stamped into the next written page (diagnostics/tests).
  uint32_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Checksum verification failures observed by this file (the process-wide
  /// total is `i3_checksum_failures_total`).
  uint64_t checksum_failures() const {
    return checksum_failures_.load(std::memory_order_relaxed);
  }

  PageFile* base() { return base_.get(); }

 private:
  uint8_t* Scratch() const;

  std::unique_ptr<PageFile> base_;
  /// Monotonic write counter stamped into headers; detects nothing by
  /// itself but makes torn multi-page operations diagnosable (pages of one
  /// logical operation carry nearby epochs).
  std::atomic<uint32_t> epoch_{0};
  std::atomic<uint64_t> checksum_failures_{0};
  obs::Counter* failures_metric_;
};

}  // namespace i3

#endif  // I3_STORAGE_CHECKSUMMED_PAGE_FILE_H_
