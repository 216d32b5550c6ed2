// The I3 data file (Section 4.3.3).
//
// A sequence of fixed-size pages, each split into P/B fixed-width slots, one
// slot per spatial tuple. Tuples carry a *source id* identifying the
// keyword cell they belong to, so different keyword cells can share a page
// (the index's storage-utilization advantage over S2I) and a page scan can
// separate them. A slot whose source id is zero is free.
//
// Slot layout (B = 32 bytes, little-endian):
//   [0..4)   source id   (uint32; 0 = free slot)
//   [4..8)   term id     (uint32)
//   [8..12)  doc id      (uint32)
//   [12..20) x / lng     (float64)
//   [20..28) y / lat     (float64)
//   [28..32) term weight (float32)

#ifndef I3_I3_DATA_FILE_H_
#define I3_I3_DATA_FILE_H_

#include <cstring>
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

/// Identifier of a keyword cell within the data file. Zero marks a free
/// slot and is never allocated.
using SourceId = uint32_t;
constexpr SourceId kFreeSlot = 0;

/// Serialized tuple width B. The paper's setting (page capacity P/B = 128
/// at P = 4KB).
constexpr size_t kTupleBytes = 32;

/// \brief One occupied slot: the tuple plus its keyword-cell tag.
struct StoredTuple {
  SourceId source = kFreeSlot;
  SpatialTuple tuple;
};

/// Decodes the non-source fields of one serialized slot into a stack value.
inline SpatialTuple DecodeSlotTuple(const uint8_t* src) {
  SpatialTuple t;
  std::memcpy(&t.term, src + 4, 4);
  std::memcpy(&t.doc, src + 8, 4);
  std::memcpy(&t.location.x, src + 12, 8);
  std::memcpy(&t.location.y, src + 20, 8);
  std::memcpy(&t.weight, src + 28, 4);
  return t;
}

/// Decodes the source tag of one serialized slot.
inline SourceId DecodeSlotSource(const uint8_t* src) {
  SourceId s;
  std::memcpy(&s, src, 4);
  return s;
}

/// \brief Decoded image of one whole data-file page: what DataFile::Read
/// returns and DataFile::Write encodes. Cell splits, index loads and v1
/// pages are written through it; cell-level writes to v2 pages (Insert,
/// Remove, AddToCell) rewrite one group instead and never build it. Read
/// paths use DataFile::View, which decodes slots lazily out of the
/// buffer-pool frame without materializing this object.
class TuplePage {
 public:
  /// Occupied slots in slot order.
  std::vector<StoredTuple> slots;

  /// Tuples belonging to `source`.
  std::vector<SpatialTuple> OfSource(SourceId source) const;
  /// Number of tuples belonging to `source`.
  uint32_t CountSource(SourceId source) const;
  /// True if every occupied slot belongs to `source` (the "all the tuples
  /// in P are from the same source" test of Algorithms 2-3).
  bool AllFromSource(SourceId source) const;
};

/// \brief Zero-copy read window over one data-file page.
///
/// Obtained from DataFile::View. Points either at a pinned buffer-pool
/// frame (the frame cannot be evicted or recycled while the view lives) or,
/// for an uncached pool, at a per-thread scratch buffer the page was read
/// into. Either way the bytes are decoded lazily, slot by slot, into stack
/// values -- no TuplePage materialization, no per-read heap allocation.
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

  /// Slots per page (P/B); slot indexes range over [0, capacity).
  uint32_t capacity() const { return capacity_; }

  /// Source tag of slot `s` (kFreeSlot for a free slot).
  SourceId SlotSource(uint32_t s) const {
    return DecodeSlotSource(data_ + s * kTupleBytes);
  }
  /// Tuple stored in slot `s` (meaningful only for occupied slots).
  SpatialTuple SlotTuple(uint32_t s) const {
    return DecodeSlotTuple(data_ + s * kTupleBytes);
  }

  /// \brief Single-pass visit of every tuple tagged `source`;
  /// `fn(const SpatialTuple&)`. Returns the number visited, so callers that
  /// used to CountSource-then-OfSource get both in one scan.
  template <typename Fn>
  uint32_t ForEachOfSource(SourceId source, Fn&& fn) const {
    uint32_t n = 0;
    for (uint32_t s = 0; s < capacity_; ++s) {
      if (SlotSource(s) == source) {
        fn(SlotTuple(s));
        ++n;
      }
    }
    return n;
  }

  /// \brief Single-pass visit of every occupied slot;
  /// `fn(SourceId, const SpatialTuple&)`.
  template <typename Fn>
  void ForEachSlot(Fn&& fn) const {
    for (uint32_t s = 0; s < capacity_; ++s) {
      const SourceId src = SlotSource(s);
      if (src != kFreeSlot) fn(src, SlotTuple(s));
    }
  }

  /// True when the underlying bytes carry the v2 compressed encoding.
  /// (A v1 page starts with a slot-0 source id -- small, sequential -- and
  /// can never alias the v2 magic; fresh zeroed pages read as empty v1.)
  bool compressed() const {
    return codec::IsV2Page(data_, page_size_);
  }

  /// \brief Format-agnostic columnar copy of every tuple of `source`,
  /// decoding v2 groups through the block decoder: `alloc(n)` is called
  /// once with the row count and returns a CellRows with room for `n`
  /// rows, which are written in slot order. Returns a view of the written
  /// rows (term kInvalidTermId if they mix term ids), or Corruption when a
  /// damaged v2 page fails to decode.
  template <typename Alloc>
  Result<CellColumns> CopySource(SourceId source, Alloc&& alloc) const {
    CellColumns out;
    if (!compressed()) {
      const uint32_t n = ForEachOfSource(source, [](const SpatialTuple&) {});
      const CellRows dst = alloc(n);
      uint32_t i = 0;
      ForEachOfSource(source, [&](const SpatialTuple& t) {
        if (i == 0) {
          out.term = t.term;
        } else if (t.term != out.term) {
          out.term = kInvalidTermId;
        }
        dst.docs[i] = t.doc;
        dst.weights[i] = t.weight;
        dst.xs[i] = t.location.x;
        dst.ys[i] = t.location.y;
        ++i;
      });
      return CellColumns{out.term, n, dst.docs, dst.weights, dst.xs, dst.ys};
    }
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

  /// \brief Format-agnostic ForEachSlot: visits every stored tuple with its
  /// source tag. v2 pages are visited group by group (first-appearance
  /// order, slot order within a group -- the exact v1 visit sequence).
  template <typename Fn>
  Status VisitSlots(Fn&& fn) const {
    if (!compressed()) {
      ForEachSlot(std::forward<Fn>(fn));
      return Status::OK();
    }
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
  uint32_t capacity_ = 0;
  size_t page_size_ = 0;
  bool owns_scratch_ = false;  // holds the top of the thread scratch stack
};

/// \brief Page-slot storage for spatial tuples with free-space tracking.
///
/// Two on-page encodings are supported. With `compress` off every page is
/// the fixed-width v1 slot array above; with it on, written pages use the
/// v2 grouped encoding of i3/cell_codec.h (several times more tuples per
/// page). Reads sniff the per-page magic, so v1 and v2 pages coexist in one
/// file and an index built without compression stays readable with it on.
/// Free space is tracked in bytes (quantized to kTupleBytes buckets), which
/// reduces to the original per-slot bookkeeping for pure-v1 files.
class DataFile {
 public:
  /// In-memory backing. `cell_cache_bytes` bounds the decoded-cell cache
  /// (0 disables it; it is also forced off for an uncached pool, whose
  /// deterministic-I/O contract every access must charge).
  explicit DataFile(size_t page_size = kDefaultPageSize,
                    BufferPoolOptions pool_options = {},
                    bool compress = false, size_t cell_cache_bytes = 0);
  /// Custom backing (disk files, fault injection, ...).
  DataFile(std::unique_ptr<PageFile> file, BufferPoolOptions pool_options,
           bool compress = false, size_t cell_cache_bytes = 0);
  /// Disk backing at `path`.
  static Result<std::unique_ptr<DataFile>> CreateOnDisk(
      const std::string& path, size_t page_size = kDefaultPageSize,
      BufferPoolOptions pool_options = {}, bool compress = false,
      size_t cell_cache_bytes = 0);

  /// Tuples per page in the v1 encoding (P/B); the split threshold of
  /// Algorithms 2-3 under the v1 format (see CellOversized for v2).
  uint32_t capacity() const { return capacity_; }

  /// \brief The density test of Algorithms 2-3, applied to a cell grown by
  /// its incoming tuple: true when a keyword cell with these rows must
  /// split. v1: more rows than the P/B slot capacity. v2: the cell's
  /// one-page *envelope* (codec::CellEnvelopeBytes -- an upper bound
  /// covering every subset, so splits and relocations of an
  /// under-threshold cell always land) exceeds the page size; cells
  /// therefore pack several times more tuples before splitting, which is
  /// where the compressed format's page-count reduction comes from. The
  /// quadtree gets a different (shallower) shape than under v1, but search
  /// is exact under any shape, so query results are identical either way.
  /// The invariant checker applies it to stored cells: a stored cell may
  /// never be oversized unless it cannot split further.
  bool CellOversized(const CellColumns& cell) const;
  bool CellOversized(const std::vector<SpatialTuple>& tuples) const;

  /// Whether written pages use the v2 compressed encoding.
  bool compress() const { return compress_; }

  /// Page size in bytes.
  size_t page_size() const { return file_->page_size(); }

  /// \brief True when `page` can be written to one page under the active
  /// encoding (v1: slot count; v2: exact encoded size).
  bool Fits(const TuplePage& page) const;

  /// \brief A page guaranteed to accept a *new* cell of `want` tuples
  /// (v1: `want` free slots; v2: the worst-case encoded footprint of a new
  /// group), allocating a fresh page if none qualifies.
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
  /// with room for the cell's `n` rows (slot order). A fresh entry
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
  // page too. On a v2 page in a compressing file only the changed cell's
  // group is rewritten; the other groups are copied byte for byte. An
  // append whose row fits its group's plan grows the group in its encoded
  // form (codec::AppendRow); any other edit decodes the group and
  // re-encodes it from rows (codec::SpliceGroup). v1 pages and legacy v1
  // pages in a compressing file are re-encoded whole, as Write does.

  /// \brief Appends one tuple to the cell `source` on `id` (creating the
  /// cell if the page has none); fails with ResourceExhausted, writing
  /// nothing, if the page cannot hold it (v1: no free slot; v2: encoded
  /// overflow).
  Status Insert(PageId id, SourceId source, const SpatialTuple& tuple);

  /// \brief Removes the first tuple of `doc` tagged `source`; returns true
  /// if one was removed (nothing is written otherwise). `remaining`, when
  /// given, receives the number of tuples of `source` left on the page.
  Result<bool> Remove(PageId id, SourceId source, DocId doc,
                      uint32_t* remaining = nullptr);

  /// \brief Appends `tuples` under `source` to `id`; ResourceExhausted
  /// (nothing written) when the page lacks room under the active encoding.
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
  /// moves to a page with room for its exact encoding. On a v2 page the
  /// row decides the path: one that fits its group's plan is appended
  /// without decoding the group (codec::AppendRow answers the density test
  /// from the group header), and a relocation copies the grown group's
  /// bytes to the target page; a row that changes the plan decodes the
  /// cell and re-encodes it. The target is chosen before the source page's
  /// free-space entry changes, and a target equal to the source page is
  /// replaced by a fresh one. On kMustSplit, `split_image` (when not null)
  /// receives the page's slots from the same view, for the caller's
  /// whole-page split.
  Result<CellAdd> AddToCell(PageId* page, SourceId source,
                            const SpatialTuple& tuple,
                            TuplePage* split_image);

  /// \brief Invariant-checker probe of page `id` (one charged read): the
  /// free-space map records page size minus the page's used bytes, and a
  /// v2 page equals EncodePage of its own decoded slots -- the canonical
  /// form that lets cell-level writes copy untouched groups verbatim.
  /// Corruption names the first violation.
  Status CheckPage(PageId id);

  /// Free capacity of `id`, expressed in tuple-slot units (free bytes /
  /// kTupleBytes) so existing v1 callers keep their semantics.
  uint32_t FreeSlots(PageId id) const {
    return fsm_.FreeSlots(id) / static_cast<uint32_t>(kTupleBytes);
  }

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

  /// True when writes to the viewed page splice (v2 page, v2 file).
  bool Splices(const PageView& view) const {
    return compress_ && view.compressed();
  }
  /// A page with `want` free bytes, else a fresh page.
  Result<PageId> PageWithFreeBytes(uint32_t want);
  /// Decodes every slot of the viewed page into `page` (replacing its
  /// slots).
  Status ReadSlots(const PageView& view, TuplePage* page) const;
  /// Loads the rows of `source` on the viewed page into cell_ (none if
  /// the page has no such cell); a v2 page decodes only that group.
  Status LoadCell(const PageView& view, SourceId source);
  /// Splices `cell` in as the group of `source` on the viewed v2 page `id`,
  /// releases the view and writes the page. ResourceExhausted (nothing
  /// written, view kept) when it does not fit.
  Status WriteSplice(PageView* view, PageId id, SourceId source,
                     const CellColumns& cell);
  /// Whole-page form of a cell write (v1 pages, fresh zero pages, legacy
  /// v1 pages in a compressing file): decodes the viewed page `id`, applies
  /// `edit(TuplePage*)`, and -- unless `edit` returns false (nothing to
  /// write) -- releases the view and writes the page. ResourceExhausted
  /// (nothing written, view kept) when the result does not fit.
  template <typename Edit>
  Status WriteWholePage(PageView* view, PageId id, Edit&& edit);
  /// Writes the page-size buffer `page`, holding `used` encoded bytes, to
  /// `id`.
  Status WriteEncoded(PageId id, const std::vector<uint8_t>& page,
                      size_t used);
  /// Appends cell_'s rows to the cell `source` on `id` (Insert, InsertAll
  /// and, in a v1 file, the target half of a move).
  Status AppendCell(PageId id, SourceId source);
  /// The relocation branch: moves the cell `source`, grown by the incoming
  /// tuple, off the viewed page `from` to a page with room; returns that
  /// page. A compressing file moves it as the one-group page in
  /// cell_page_ (`used` bytes), a v1 file as the rows in cell_.
  Result<PageId> MoveCell(PageView* view, PageId from, SourceId source,
                          size_t used);
  /// Puts the one-group page in cell_page_ (`used` bytes) on `target`:
  /// its group's bytes are added to a v2 page, and a fresh zero page takes
  /// the one-group page as it is. Corruption for a v1 page with tuples,
  /// which no relocation in a compressing file can pick.
  Status PlaceGroup(PageId target, size_t used);

  std::unique_ptr<PageFile> file_;
  BufferPool pool_;
  CellCache cell_cache_;
  FreeSpaceMap fsm_;  // free bytes per page, kTupleBytes-quantized buckets
  uint32_t capacity_;
  bool compress_;
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
