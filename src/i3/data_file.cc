#include "i3/data_file.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace i3 {

namespace {

// Per-thread stack of page-size scratch buffers backing PageView for
// uncached pools (and the fault-in copy of PinPage misses). A stack rather
// than a single buffer so nested views (e.g. an invariant checker holding
// one view while opening another) each get their own bytes; buffers are
// retained per thread, so the steady state allocates nothing.
struct ViewScratch {
  std::vector<std::vector<uint8_t>> bufs;
  size_t depth = 0;
};
thread_local ViewScratch t_view_scratch;

uint8_t* AcquireViewScratch(size_t page_size) {
  ViewScratch& s = t_view_scratch;
  if (s.depth == s.bufs.size()) s.bufs.emplace_back();
  std::vector<uint8_t>& buf = s.bufs[s.depth];
  if (buf.size() < page_size) buf.resize(page_size);
  ++s.depth;
  return buf.data();
}

void ReleaseViewScratch() {
  assert(t_view_scratch.depth > 0);
  --t_view_scratch.depth;
}

}  // namespace

PageView& PageView::operator=(PageView&& o) noexcept {
  if (owns_scratch_) ReleaseViewScratch();
  pin_ = std::move(o.pin_);  // releases any pin this view held
  data_ = o.data_;
  page_size_ = o.page_size_;
  owns_scratch_ = o.owns_scratch_;
  o.data_ = nullptr;
  o.page_size_ = 0;
  o.owns_scratch_ = false;
  return *this;
}

PageView::~PageView() {
  if (owns_scratch_) ReleaseViewScratch();
  owns_scratch_ = false;
}

DataFile::DataFile(size_t page_size, BufferPoolOptions pool_options,
                   size_t cell_cache_bytes)
    : DataFile(std::make_unique<InMemoryPageFile>(page_size), pool_options,
               cell_cache_bytes) {}

DataFile::DataFile(std::unique_ptr<PageFile> file,
                   BufferPoolOptions pool_options, size_t cell_cache_bytes)
    : file_(std::move(file)),
      pool_(file_.get(), pool_options),
      // An uncached pool is the deterministic-I/O mode (every access
      // charged); serving decoded cells from memory would break it, so the
      // cell cache follows the pool off.
      cell_cache_(CellCacheOptions{
          pool_options.capacity_pages > 0 ? cell_cache_bytes : 0, 0}),
      fsm_(static_cast<uint32_t>(file_->page_size()),
           static_cast<uint32_t>(kFreeSpaceQuantum)),
      scratch_(file_->page_size(), 0),
      cell_page_(file_->page_size(), 0) {
  assert(file_->page_size() >= codec::kV2MinPageSize);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  appends_in_place_ = reg.GetCounter(
      "i3_cell_appends_in_place_total",
      "Rows appended to a v2 keyword-cell group in its encoded form, "
      "without decoding it: on its page or relocated as bytes.");
  groups_reencoded_ = reg.GetCounter(
      "i3_cell_groups_reencoded_total",
      "v2 keyword-cell groups a cell-level write planned and encoded from "
      "rows: inserts, deletes, and appends whose row changed the plan.");
}

bool DataFile::Fits(const TuplePage& page) const {
  return codec::EncodedPageSize(page.slots.data(), page.slots.size()) <=
         file_->page_size();
}

bool DataFile::CellOversized(const CellColumns& cell) const {
  return codec::CellEnvelopeBytes(cell) > file_->page_size();
}

bool DataFile::CellOversized(const std::vector<SpatialTuple>& tuples) const {
  return codec::CellEnvelopeBytes(tuples.data(), tuples.size()) >
         file_->page_size();
}

Result<PageId> DataFile::PageWithFreeBytes(uint32_t want) {
  PageId id = fsm_.FindPageWithFreeSlots(want);
  if (id != kInvalidPageId) return id;
  return AllocatePage();
}

Result<PageId> DataFile::PageWithFreeSlots(uint32_t want) {
  // A page is guaranteed to accept a *new* cell whose worst-case footprint
  // (directory entry + group header + uncompressed payload) fits its free
  // bytes -- group encodings are independent, so adding one never grows
  // the others.
  return PageWithFreeBytes(
      static_cast<uint32_t>(codec::NewCellUpperBoundBytes(want)));
}

Result<PageId> DataFile::PageWithRoomForGroup(
    const std::vector<StoredTuple>& group) {
  // EncodedPageSize of the group alone is page header + directory entry +
  // group bytes; dropping the page header leaves exactly what the group
  // adds to any existing page.
  return PageWithFreeBytes(static_cast<uint32_t>(
      codec::EncodedPageSize(group.data(), group.size()) -
      codec::kV2PageHeaderBytes));
}

Result<PageId> DataFile::AllocatePage() {
  auto alloc = pool_.AllocatePage();
  if (!alloc.ok()) return alloc.status();
  const PageId id = alloc.ValueOrDie();
  fsm_.AddPage(id);
  return id;
}

Result<PageView> DataFile::View(PageId id) {
  PageView view;
  view.page_size_ = file_->page_size();
  uint8_t* scratch = AcquireViewScratch(file_->page_size());
  if (pool_.Pinnable()) {
    // Zero-copy window: the view reads straight out of the pinned frame;
    // the scratch is only the fault-in buffer of a miss.
    Status st = pool_.PinPage(id, IoCategory::kI3DataFile, scratch,
                              &view.pin_);
    ReleaseViewScratch();
    if (!st.ok()) return st;
    view.data_ = view.pin_.data();
  } else {
    // Uncached pool (the deterministic I/O-figure mode): every access is a
    // charged read into this thread's scratch; the view owns the buffer
    // until destroyed.
    Status st = pool_.ReadPage(id, scratch, IoCategory::kI3DataFile);
    if (!st.ok()) {
      ReleaseViewScratch();
      return st;
    }
    view.data_ = scratch;
    view.owns_scratch_ = true;
  }
  return view;
}

Status DataFile::ReadSlots(const PageView& view, TuplePage* page) const {
  page->slots.clear();
  return view.VisitSlots([page](SourceId source, const SpatialTuple& t) {
    page->slots.push_back({source, t});
  });
}

Result<TuplePage> DataFile::Read(PageId id) {
  // Decodes through the view path (one charged read, view-managed scratch;
  // Read runs concurrently from multiple threads, so no shared buffer).
  auto view_res = View(id);
  if (!view_res.ok()) return view_res.status();
  TuplePage page;
  I3_RETURN_NOT_OK(ReadSlots(view_res.ValueOrDie(), &page));
  return page;
}

Status DataFile::WriteEncoded(PageId id, const std::vector<uint8_t>& page,
                              size_t used) {
  I3_RETURN_NOT_OK(pool_.WritePage(id, page.data(), IoCategory::kI3DataFile));
  fsm_.SetFree(id, static_cast<uint32_t>(page.size() - used));
  return Status::OK();
}

Status DataFile::Write(PageId id, const TuplePage& page) {
  auto encoded = codec::EncodePage(page.slots.data(), page.slots.size(),
                                   scratch_.data(), scratch_.size());
  if (!encoded.ok()) {
    return Status::InvalidArgument(
        "page overflow: " + std::to_string(page.slots.size()) + " tuples (" +
        encoded.status().message() + ")");
  }
  return WriteEncoded(id, scratch_, encoded.ValueOrDie());
}

void DataFile::CellBuffer::Reserve(uint32_t rows) {
  if (docs.size() >= rows) return;
  const size_t cap = std::max<size_t>(rows, 2 * docs.size());
  docs.resize(cap);
  weights.resize(cap);
  xs.resize(cap);
  ys.resize(cap);
}

void DataFile::CellBuffer::Append(const SpatialTuple& t) {
  if (n == 0) term = t.term;
  Reserve(n + 1);
  docs[n] = t.doc;
  weights[n] = t.weight;
  xs[n] = t.location.x;
  ys[n] = t.location.y;
  ++n;
}

void DataFile::CellBuffer::Erase(uint32_t i) {
  const size_t tail = n - i - 1;
  std::memmove(docs.data() + i, docs.data() + i + 1, tail * sizeof(DocId));
  std::memmove(weights.data() + i, weights.data() + i + 1,
               tail * sizeof(float));
  std::memmove(xs.data() + i, xs.data() + i + 1, tail * sizeof(double));
  std::memmove(ys.data() + i, ys.data() + i + 1, tail * sizeof(double));
  --n;
}

void DataFile::CellBuffer::Prepend(const CellColumns& front) {
  if (front.n == 0) return;
  Reserve(n + front.n);
  std::memmove(docs.data() + front.n, docs.data(), n * sizeof(DocId));
  std::memmove(weights.data() + front.n, weights.data(), n * sizeof(float));
  std::memmove(xs.data() + front.n, xs.data(), n * sizeof(double));
  std::memmove(ys.data() + front.n, ys.data(), n * sizeof(double));
  CopyRows(front, {docs.data(), weights.data(), xs.data(), ys.data()});
  term = front.term;
  n += front.n;
}

Status DataFile::LoadCell(const PageView& view, SourceId source) {
  auto cols = view.CopySource(source, [this](uint32_t n) {
    cell_.Reserve(n);
    return CellRows{cell_.docs.data(), cell_.weights.data(), cell_.xs.data(),
                    cell_.ys.data()};
  });
  if (!cols.ok()) return cols.status();
  cell_.n = cols.ValueOrDie().n;
  cell_.term = cols.ValueOrDie().term;
  return Status::OK();
}

Status DataFile::WriteSplice(PageView* view, PageId id, SourceId source,
                             const CellColumns& cell) {
  auto used = codec::SpliceGroup(view->data_, view->page_size_, source, cell,
                                 scratch_.data());
  if (!used.ok()) return used.status();
  if (cell.n > 0) groups_reencoded_->Increment();
  *view = PageView();  // never write a page this thread still views
  return WriteEncoded(id, scratch_, used.ValueOrDie());
}

Status DataFile::AppendCell(PageId id, SourceId source) {
  auto view_res = View(id);
  if (!view_res.ok()) return view_res.status();
  PageView view = view_res.MoveValue();
  codec::GroupRef g;
  auto found = codec::FindGroup(view.data_, view.page_size_, source, &g);
  if (!found.ok()) return found.status();
  if (found.ValueOrDie()) {
    codec::DecodeScratch scratch;
    codec::DecodedGroup d;
    I3_RETURN_NOT_OK(
        codec::DecodeGroup(view.data_, view.page_size_, g, &scratch, &d));
    cell_.Prepend({g.term, d.n, d.docs, d.weights, d.xs, d.ys});
  }
  return WriteSplice(&view, id, source, cell_.columns());
}

Status DataFile::Insert(PageId id, SourceId source,
                        const SpatialTuple& tuple) {
  cell_.n = 0;
  cell_.Append(tuple);
  return AppendCell(id, source);
}

Status DataFile::InsertAll(PageId id, SourceId source,
                           const std::vector<SpatialTuple>& tuples) {
  cell_.n = 0;
  for (const SpatialTuple& t : tuples) cell_.Append(t);
  return AppendCell(id, source);
}

Result<bool> DataFile::Remove(PageId id, SourceId source, DocId doc,
                              uint32_t* remaining) {
  auto view_res = View(id);
  if (!view_res.ok()) return view_res.status();
  PageView view = view_res.MoveValue();
  I3_RETURN_NOT_OK(LoadCell(view, source));
  uint32_t i = 0;
  while (i < cell_.n && cell_.docs[i] != doc) ++i;
  if (i == cell_.n) return false;
  cell_.Erase(i);
  I3_RETURN_NOT_OK(WriteSplice(&view, id, source, cell_.columns()));
  if (remaining != nullptr) *remaining = cell_.n;
  return true;
}

Result<DataFile::CellAdd> DataFile::AddToCell(PageId* page, SourceId source,
                                              const SpatialTuple& tuple,
                                              TuplePage* split_image) {
  auto view_res = View(*page);
  if (!view_res.ok()) return view_res.status();
  PageView view = view_res.MoveValue();
  auto must_split = [&]() -> Result<CellAdd> {
    if (split_image != nullptr) I3_RETURN_NOT_OK(ReadSlots(view, split_image));
    return CellAdd::kMustSplit;
  };

  // A row that fits its group's plan grows the group in its encoded form.
  auto grown = codec::AppendRow(view.data_, view.page_size_, source, tuple,
                                cell_page_.data());
  if (!grown.ok()) return grown.status();
  const codec::AppendResult& g = grown.ValueOrDie();
  switch (g.outcome) {
    case codec::RowAppend::kOversized:
      return must_split();
    case codec::RowAppend::kAppended:
      appends_in_place_->Increment();
      view = PageView();  // never write a page this thread still views
      I3_RETURN_NOT_OK(WriteEncoded(*page, cell_page_, g.used));
      return CellAdd::kAdded;
    case codec::RowAppend::kOverflow: {
      appends_in_place_->Increment();
      auto target = MoveCell(&view, *page, source, g.used);
      if (!target.ok()) return target.status();
      *page = target.ValueOrDie();
      return CellAdd::kMoved;
    }
    case codec::RowAppend::kReplan:
      break;
  }

  // The row changes its group's plan: decode the cell.
  I3_RETURN_NOT_OK(LoadCell(view, source));
  cell_.Append(tuple);
  if (CellOversized(cell_.columns())) return must_split();
  const Status st = WriteSplice(&view, *page, source, cell_.columns());
  if (st.code() != StatusCode::kResourceExhausted) {
    if (!st.ok()) return st;
    return CellAdd::kAdded;
  }
  auto encoded = codec::EncodeGroupPage(source, cell_.columns(),
                                        cell_page_.data(), cell_page_.size());
  if (!encoded.ok()) return encoded.status();
  groups_reencoded_->Increment();
  auto target = MoveCell(&view, *page, source, encoded.ValueOrDie());
  if (!target.ok()) return target.status();
  *page = target.ValueOrDie();
  return CellAdd::kMoved;
}

Result<PageId> DataFile::MoveCell(PageView* view, PageId from,
                                  SourceId source, size_t used) {
  // The target is chosen while `from`'s free-space entry still describes
  // the page with the cell on it. The moved group adds its one-group
  // page's bytes, less the page header, to any page.
  auto target_res = PageWithFreeBytes(
      static_cast<uint32_t>(used - codec::kV2PageHeaderBytes));
  if (!target_res.ok()) return target_res.status();
  PageId target = target_res.ValueOrDie();
  if (target == from) {
    // The page can show free bytes while the grown cell's exact encoding
    // overflows it; relocation must leave the page.
    auto fresh = AllocatePage();
    if (!fresh.ok()) return fresh.status();
    target = fresh.ValueOrDie();
  }

  I3_RETURN_NOT_OK(WriteSplice(view, from, source, CellColumns{}));
  I3_RETURN_NOT_OK(PlaceGroup(target));
  return target;
}

Status DataFile::PlaceGroup(PageId target) {
  auto view_res = View(target);
  if (!view_res.ok()) return view_res.status();
  PageView view = view_res.MoveValue();
  auto added = codec::AddGroup(view.data_, view.page_size_,
                               cell_page_.data(), scratch_.data());
  if (!added.ok()) return added.status();
  view = PageView();  // never write a page this thread still views
  return WriteEncoded(target, scratch_, added.ValueOrDie());
}

Status DataFile::CheckPage(PageId id) {
  auto view_res = View(id);
  if (!view_res.ok()) return view_res.status();
  const PageView& view = view_res.ValueOrDie();
  TuplePage page;
  I3_RETURN_NOT_OK(ReadSlots(view, &page));
  // ReadSlots accepted it, so a page without the magic is a fresh zero
  // page: nothing used.
  size_t used = 0;
  if (codec::IsV2Page(view.data_, page_size())) {
    std::vector<uint8_t> canonical(page_size());
    auto encoded = codec::EncodePage(page.slots.data(), page.slots.size(),
                                     canonical.data(), canonical.size());
    if (!encoded.ok() ||
        std::memcmp(canonical.data(), view.data_, page_size()) != 0) {
      return Status::Corruption("page " + std::to_string(id) +
                                " differs from the encoding of its tuples");
    }
    used = encoded.ValueOrDie();
  }
  const uint32_t free_bytes = static_cast<uint32_t>(page_size() - used);
  if (fsm_.FreeSlots(id) != free_bytes) {
    return Status::Corruption(
        "free-space map records " + std::to_string(fsm_.FreeSlots(id)) +
        " free bytes on page " + std::to_string(id) + ", page has " +
        std::to_string(free_bytes));
  }
  return Status::OK();
}

Status DataFile::VerifyPage(PageId id) {
  if (id >= PageCount()) {
    return Status::OutOfRange("verify of unallocated page " +
                              std::to_string(id));
  }
  std::vector<uint8_t> buf(page_size());
  return file_->ReadPage(id, buf.data(), IoCategory::kI3DataFile);
}

Result<std::vector<uint8_t>> DataFile::ReadPageBytes(PageId id) {
  if (id >= PageCount()) {
    return Status::OutOfRange("read of unallocated page " +
                              std::to_string(id));
  }
  std::vector<uint8_t> buf(page_size());
  I3_RETURN_NOT_OK(pool_.ReadPage(id, buf.data(), IoCategory::kI3DataFile));
  return buf;
}

Status DataFile::WritePageBytes(PageId id,
                                const std::vector<uint8_t>& bytes) {
  if (id >= PageCount()) {
    return Status::OutOfRange("write of unallocated page " +
                              std::to_string(id));
  }
  if (bytes.size() != page_size()) {
    return Status::InvalidArgument("page bytes must be exactly one page");
  }
  return pool_.WritePage(id, bytes.data(), IoCategory::kI3DataFile);
}

}  // namespace i3
