// The I3 data file (Section 4.3.3).
//
// A sequence of fixed-size pages holding spatial tuples. Tuples carry a
// *source id* identifying the keyword cell they belong to, so different
// keyword cells can share a page (the index's storage-utilization
// advantage over S2I) and a page scan can separate them. The paper lays a
// page out as P/B fixed 32-byte slots; here every page is the v2 grouped
// encoding of i3/cell_codec.h instead -- one column-wise group per keyword
// cell -- which packs several times more tuples per page. A fresh all-zero
// page reads as an empty page.

#ifndef I3_I3_DATA_FILE_H_
#define I3_I3_DATA_FILE_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "i3/cell_cache.h"
#include "i3/cell_codec.h"
#include "model/document.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace i3 {

/// Identifier of a keyword cell within the data file. Zero means "no
/// cell" and is never allocated.
using SourceId = uint32_t;
constexpr SourceId kFreeSlot = 0;

/// Bucket width, in bytes, of the data file's free-space map.
constexpr size_t kFreeSpaceQuantum = 32;

/// \brief One stored tuple plus its keyword-cell tag.
struct StoredTuple {
  SourceId source = kFreeSlot;
  SpatialTuple tuple;
};

/// \brief Decoded image of one whole data-file page: what DataFile::Read
/// returns and DataFile::Write encodes. Cell splits and index loads are
/// written through it; cell-level writes (Insert, Remove, AddToCell)
/// rewrite one group instead and never build it. Read paths use
/// DataFile::View, which decodes out of the buffer-pool frame without
/// materializing this object.
class TuplePage {
 public:
  /// Stored tuples, grouped by keyword cell in the page's group order.
  std::vector<StoredTuple> slots;
};

/// \brief Zero-copy read window over one data-file page.
///
/// Obtained from DataFile::View. Points either at a pinned buffer-pool
/// frame (the frame cannot be evicted or recycled while the view lives) or,
/// for an uncached pool, at a per-thread scratch buffer the page was read
/// into. Either way the bytes are decoded lazily, one group at a time --
/// no TuplePage materialization, no per-read heap allocation.
///
/// Lifetime rules: a view is valid until destroyed; destroy views in LIFO
/// order per thread (scratch buffers are stacked); and -- as with every
/// read -- no writer may run concurrently.
class PageView {
 public:
  PageView() = default;
  PageView(PageView&& o) noexcept { *this = std::move(o); }
  PageView& operator=(PageView&& o) noexcept;
  PageView(const PageView&) = delete;
  PageView& operator=(const PageView&) = delete;
  ~PageView();

  /// \brief Columnar copy of every tuple of `source`, decoded through the
  /// block decoder: `alloc(n)` is called once with the row count and
  /// returns a CellRows with room for `n` rows, which are written in the
  /// group's row order. Returns a view of the written rows, or Corruption
  /// when a damaged page fails to decode.
  template <typename Alloc>
  Result<CellColumns> CopySource(SourceId source, Alloc&& alloc) const {
    CellColumns out;
    codec::GroupRef g;
    auto found = codec::FindGroup(data_, page_size_, source, &g);
    if (!found.ok()) return found.status();
    if (!found.ValueOrDie()) {
      alloc(0u);
      return out;
    }
    codec::DecodeScratch scratch;
    codec::DecodedGroup d;
    I3_RETURN_NOT_OK(codec::DecodeGroup(data_, page_size_, g, &scratch, &d));
    const CellRows dst = alloc(d.n);
    CopyRows({g.term, d.n, d.docs, d.weights, d.xs, d.ys}, dst);
    return CellColumns{g.term, d.n, dst.docs, dst.weights, dst.xs, dst.ys};
  }

  /// \brief Visits every stored tuple with its source tag,
  /// `fn(SourceId, const SpatialTuple&)`, group by group in directory
  /// order and in row order within a group.
  template <typename Fn>
  Status VisitSlots(Fn&& fn) const {
    auto gc = codec::GroupCount(data_, page_size_);
    if (!gc.ok()) return gc.status();
    codec::DecodeScratch scratch;
    for (uint32_t gi = 0; gi < gc.ValueOrDie(); ++gi) {
      codec::GroupRef g;
      I3_RETURN_NOT_OK(codec::ReadGroupRef(data_, page_size_, gi, &g));
      codec::DecodedGroup d;
      I3_RETURN_NOT_OK(
          codec::DecodeGroup(data_, page_size_, g, &scratch, &d));
      SpatialTuple t;
      t.term = g.term;
      for (uint32_t i = 0; i < d.n; ++i) {
        t.doc = d.docs[i];
        t.location.x = d.xs[i];
        t.location.y = d.ys[i];
        t.weight = d.weights[i];
        fn(g.source, t);
      }
    }
    return Status::OK();
  }

 private:
  friend class DataFile;

  BufferPool::PinnedPage pin_;
  const uint8_t* data_ = nullptr;
  size_t page_size_ = 0;
  bool owns_scratch_ = false;  // holds the top of the thread scratch stack
};

/// \brief Paged storage for spatial tuples with free-space tracking.
///
/// Every page holds the v2 grouped encoding of i3/cell_codec.h, and the
/// page size must be at least codec::kV2MinPageSize. Free space is tracked
/// in bytes, bucketed by kFreeSpaceQuantum.
class DataFile {
 public:
  /// In-memory backing. `cell_cache_bytes` bounds the decoded-cell cache
  /// (0 disables it; it is also forced off for an uncached pool, whose
  /// deterministic-I/O contract every access must charge).
  explicit DataFile(size_t page_size = kDefaultPageSize,
                    BufferPoolOptions pool_options = {},
                    size_t cell_cache_bytes = 0);
  /// Custom backing (disk files, fault injection, ...).
  DataFile(std::unique_ptr<PageFile> file, BufferPoolOptions pool_options,
           size_t cell_cache_bytes = 0);

  /// \brief The density test of Algorithms 2-3, applied to a cell grown by
  /// its incoming tuple: true when a keyword cell with these rows must
  /// split, i.e. when the cell's one-page *envelope*
  /// (codec::CellEnvelopeBytes -- an upper bound covering every subset, so
  /// splits and relocations of an under-threshold cell always land)
  /// exceeds the page size. Cells therefore pack several times more tuples
  /// before splitting than the paper's P/B slot capacity, which is where
  /// the encoding's page-count reduction comes from; search is exact under
  /// any quadtree shape. The invariant checker applies it to stored cells:
  /// a stored cell may never be oversized unless it cannot split further.
  bool CellOversized(const CellColumns& cell) const;
  bool CellOversized(const std::vector<SpatialTuple>& tuples) const;

  /// Page size in bytes.
  size_t page_size() const { return file_->page_size(); }

  /// \brief True when `page` encodes into one page.
  bool Fits(const TuplePage& page) const;

  /// \brief A page guaranteed to accept a *new* cell of `want` tuples
  /// (the worst-case encoded footprint of a new group), allocating a fresh
  /// page if none qualifies.
  Result<PageId> PageWithFreeSlots(uint32_t want);

  /// \brief A page guaranteed to accept the *specific* new cell `group`
  /// (all one source, not currently on any page). Unlike PageWithFreeSlots
  /// this sizes the request by the group's exact encoding -- group
  /// encodings are independent, so adding this group to any page costs
  /// exactly its directory entry + header + payload -- which packs far
  /// tighter than the worst-case bound when cells are large. Falls back to
  /// a fresh page if no page qualifies.
  Result<PageId> PageWithRoomForGroup(const std::vector<StoredTuple>& group);

  /// \brief Unconditionally appends a fresh empty page (deserialization
  /// path; normal insertion goes through PageWithFreeSlots).
  Result<PageId> AllocatePage();

  /// \brief Reads and decodes page `id` (one charged data-file read) into a
  /// whole-page TuplePage image. Query paths should prefer View.
  Result<TuplePage> Read(PageId id);

  /// \brief Zero-copy read window over page `id` (one charged data-file
  /// read). See PageView for the lifetime rules.
  Result<PageView> View(PageId id);

  /// \brief Bulk-copies the keyword cell `source` on page `id` through the
  /// decoded-cell cache: `alloc(n)` is called once and returns a CellRows
  /// with room for the cell's `n` rows (row order). A fresh entry
  /// (matching the page's current write epoch) is copied under its stripe
  /// lock without touching the page; a miss views the page once, decodes
  /// straight into the caller's rows and memoizes them at the pinned
  /// frame's epoch. Returns a view of the copied rows. Falls back to a
  /// plain page copy when the cache is disabled. Same exclusion contract
  /// as View: no concurrent writer.
  template <typename Alloc>
  Result<CellColumns> CopySourceCached(PageId id, SourceId source,
                                       Alloc&& alloc) {
    const bool cached = cell_cache_.enabled() && pool_.Pinnable();
    const uint64_t key = CellCache::Key(id, source);
    if (cached) {
      CellColumns copied;
      const int64_t hit = cell_cache_.ReadIfFresh(
          key, pool_.PageEpoch(id), [&](const CellColumns& c) {
            const CellRows dst = alloc(c.n);
            CopyRows(c, dst);
            copied = {c.term, c.n, dst.docs, dst.weights, dst.xs, dst.ys};
          });
      if (hit >= 0) return copied;
    }
    auto view = View(id);
    if (!view.ok()) return view.status();
    auto cols = view.ValueOrDie().CopySource(source, alloc);
    if (!cols.ok()) return cols.status();
    // Keyed to the epoch captured *at pin time*: if the page is rewritten
    // between this visit and the next probe, the bumped epoch makes the
    // entry invisible.
    if (cached) {
      cell_cache_.Insert(key, view.ValueOrDie().pin_.epoch(),
                         cols.ValueOrDie());
    }
    return cols;
  }

  /// \brief Tuple-visitor form of CopySourceCached for the cold paths
  /// (delete rebuild, invariant checks, range search): copies the cell
  /// into local buffers, then calls `fn(const SpatialTuple&)` per tuple.
  /// Returns the number visited.
  template <typename Fn>
  Result<uint32_t> VisitSourceCached(PageId id, SourceId source, Fn&& fn) {
    std::vector<DocId> docs;
    std::vector<float> weights;
    std::vector<double> xs, ys;
    auto cols = CopySourceCached(id, source, [&](uint32_t n) {
      docs.resize(n);
      weights.resize(n);
      xs.resize(n);
      ys.resize(n);
      return CellRows{docs.data(), weights.data(), xs.data(), ys.data()};
    });
    if (!cols.ok()) return cols.status();
    const CellColumns& c = cols.ValueOrDie();
    for (uint32_t i = 0; i < c.n; ++i) fn(c.Tuple(i));
    return c.n;
  }

  /// \brief Checksum-verifying *device* read of page `id`, bypassing the
  /// buffer pool: the bytes come straight from the file stack (whose
  /// checksummed wrapper rejects damaged payloads with Corruption), so
  /// latent at-rest damage is detected even while a clean cached frame
  /// exists. One charged read. The scrubber's probe.
  Status VerifyPage(PageId id);

  /// \brief Raw logical bytes of page `id`, read through the pool (the
  /// device path verifies the stored checksum). One charged read. The
  /// heal *source*: replicas are byte-identical, so a healthy peer's page
  /// bytes are exactly what the damaged copy should hold.
  Result<std::vector<uint8_t>> ReadPageBytes(PageId id);

  /// \brief Writes raw logical page bytes through the pool: the checksum
  /// layer re-stamps the page, the write-through bumps the page epoch
  /// (invalidating decoded-cell entries) and clears any quarantine. The
  /// heal *sink* only -- the free-space map is untouched because a heal
  /// replaces a page with its byte-identical peer copy.
  Status WritePageBytes(PageId id, const std::vector<uint8_t>& bytes);

  /// Pages currently quarantined by the pool (last device read returned
  /// Corruption and no verified read/write-through has cleared it).
  size_t QuarantinedPages() const { return pool_.quarantined_count(); }

  /// \brief Encodes and writes the whole page `page` to `id` (one charged
  /// write); updates the free-space map.
  Status Write(PageId id, const TuplePage& page);

  // Cell-level writes. Each views the page it changes once (one charged
  // read) and writes it at most once (one charged write), after releasing
  // the view; AddToCell's relocation branch does the same on its target
  // page too. Only the changed cell's group is rewritten; the other groups
  // are copied byte for byte. An append whose row fits its group's plan
  // grows the group in its encoded form (codec::AppendRow); any other edit
  // decodes the group and re-encodes it from rows (codec::SpliceGroup).

  /// \brief Appends one tuple to the cell `source` on `id` (creating the
  /// cell if the page has none); fails with ResourceExhausted, writing
  /// nothing, if the encoded page would overflow.
  Status Insert(PageId id, SourceId source, const SpatialTuple& tuple);

  /// \brief Removes the first tuple of `doc` tagged `source`; returns true
  /// if one was removed (nothing is written otherwise). `remaining`, when
  /// given, receives the number of tuples of `source` left on the page.
  Result<bool> Remove(PageId id, SourceId source, DocId doc,
                      uint32_t* remaining = nullptr);

  /// \brief Appends `tuples` under `source` to `id`; ResourceExhausted
  /// (nothing written) when the page lacks room.
  Status InsertAll(PageId id, SourceId source,
                   const std::vector<SpatialTuple>& tuples);

  /// What AddToCell did with its tuple.
  enum class CellAdd {
    kAdded,      ///< appended on the cell's page: one read, one write
    kMoved,      ///< page full: the cell and the tuple moved to a page with
                 ///< room, `*page` updated: two reads, two writes
    kMustSplit,  ///< the grown cell is oversized: nothing written
  };

  /// \brief One step of Algorithms 2-3 on the existing keyword cell
  /// `source` whose page is `*page`, in one view of that page: the density
  /// test (CellOversized on the cell plus `tuple`), then the append, then,
  /// if the page is full, the relocation branch -- the cell plus `tuple`
  /// moves to a page with room for its exact encoding. The row decides the
  /// path: one that fits its group's plan is appended without decoding the
  /// group (codec::AppendRow answers the density test from the group
  /// header); a row that changes the plan decodes the cell and re-encodes
  /// it. Either way a relocation copies the grown group's bytes to the
  /// target page. The target is chosen before the source page's free-space
  /// entry changes, and a target equal to the source page is replaced by a
  /// fresh one. On kMustSplit, `split_image` (when not null) receives the
  /// page's tuples from the same view, for the caller's whole-page split.
  Result<CellAdd> AddToCell(PageId* page, SourceId source,
                            const SpatialTuple& tuple,
                            TuplePage* split_image);

  /// \brief Invariant-checker probe of page `id` (one charged read): the
  /// free-space map records page size minus the page's used bytes, and a
  /// written page equals EncodePage of its own decoded tuples -- the
  /// canonical form that lets cell-level writes copy untouched groups
  /// verbatim. (A page never written is all zero and wholly free.)
  /// Corruption names the first violation.
  Status CheckPage(PageId id);

  /// Free bytes of `id`, as the free-space map records them.
  uint32_t FreeBytes(PageId id) const { return fsm_.FreeSlots(id); }

  PageId PageCount() const { return file_->PageCount(); }
  uint64_t SizeBytes() const { return file_->SizeBytes(); }

  const IoStats& io_stats() const { return file_->io_stats(); }
  IoStats* mutable_io_stats() { return file_->mutable_io_stats(); }
  /// Cold-cache reset: drops cached page frames *and* decoded cells.
  void ClearCache() {
    pool_.Clear();
    cell_cache_.Clear();
  }

  const BufferPool& pool() const { return pool_; }
  const CellCache& cell_cache() const { return cell_cache_; }

 private:
  /// Columnar rows of the keyword cell a write is rewriting. Write path
  /// only, like scratch_; it grows to the largest cell written and is
  /// reused, so steady-state writes allocate nothing.
  struct CellBuffer {
    std::vector<DocId> docs;
    std::vector<float> weights;
    std::vector<double> xs, ys;
    uint32_t term = 0;
    uint32_t n = 0;

    /// Room for `rows` rows; the first n are kept.
    void Reserve(uint32_t rows);
    void Append(const SpatialTuple& t);
    void Erase(uint32_t i);
    /// Shifts the rows back and puts `front`'s rows (and term) first.
    void Prepend(const CellColumns& front);
    CellColumns columns() const {
      return {term, n, docs.data(), weights.data(), xs.data(), ys.data()};
    }
  };

  /// A page with `want` free bytes, else a fresh page.
  Result<PageId> PageWithFreeBytes(uint32_t want);
  /// Decodes every slot of the viewed page into `page` (replacing its
  /// slots).
  Status ReadSlots(const PageView& view, TuplePage* page) const;
  /// Loads the rows of `source` on the viewed page into cell_ (none if
  /// the page has no such cell), decoding only that group.
  Status LoadCell(const PageView& view, SourceId source);
  /// Splices `cell` in as the group of `source` on the viewed page `id`,
  /// releases the view and writes the page. ResourceExhausted (nothing
  /// written, view kept) when it does not fit.
  Status WriteSplice(PageView* view, PageId id, SourceId source,
                     const CellColumns& cell);
  /// Writes the page-size buffer `page`, holding `used` encoded bytes, to
  /// `id`.
  Status WriteEncoded(PageId id, const std::vector<uint8_t>& page,
                      size_t used);
  /// Appends cell_'s rows to the cell `source` on `id` (Insert, InsertAll).
  Status AppendCell(PageId id, SourceId source);
  /// The relocation branch: moves the cell `source`, grown by the incoming
  /// tuple and held as the one-group page in cell_page_ (`used` bytes),
  /// off the viewed page `from` to a page with room; returns that page.
  Result<PageId> MoveCell(PageView* view, PageId from, SourceId source,
                          size_t used);
  /// Adds the group of the one-group page in cell_page_ to page `target`
  /// (a fresh zero page included).
  Status PlaceGroup(PageId target);

  std::unique_ptr<PageFile> file_;
  BufferPool pool_;
  CellCache cell_cache_;
  FreeSpaceMap fsm_;  // free bytes per page, kFreeSpaceQuantum buckets
  std::vector<uint8_t> scratch_;  // page-size encode buffer (write path only;
                                  // Read uses a local buffer so concurrent
                                  // readers do not share state)
  // What AddToCell writes for the cell it grows: its page with the row
  // appended or, when the cell must relocate, the grown cell alone as a
  // one-group page (page-size; write path only).
  std::vector<uint8_t> cell_page_;
  CellBuffer cell_;
  obs::Counter* appends_in_place_;  // rows appended to an encoded group
  obs::Counter* groups_reencoded_;  // groups a cell write encoded from rows
};

}  // namespace i3

#endif  // I3_I3_DATA_FILE_H_
