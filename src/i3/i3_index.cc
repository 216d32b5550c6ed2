#include "i3/i3_index.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "storage/checksummed_page_file.h"

namespace i3 {

namespace {

/// Bytes per physical page in the data file's backing store: the logical
/// page plus the integrity header when checksumming is on, so the
/// caller-facing page size -- and with it page capacity and I/O
/// accounting -- is independent of the checksum option.
size_t PhysicalPageSize(const I3Options& options) {
  return options.page_size +
         (options.checksum_pages ? kPageHeaderBytes : 0);
}

/// Wraps the physical backing in the checksum layer when configured. The
/// checksum layer is outermost (above any fault-injecting backing a test
/// supplies), so corruption introduced anywhere below is detected on read.
std::unique_ptr<PageFile> WithIntegrity(const I3Options& options,
                                        std::unique_ptr<PageFile> base) {
  if (!options.checksum_pages) return base;
  return std::make_unique<ChecksummedPageFile>(std::move(base));
}

/// Builds the data file per the options: the factory's backing, else --
/// when `on_disk` -- a disk file at data_file_path, else memory. Only the
/// disk file can fail.
Result<std::unique_ptr<DataFile>> MakeDataFile(const I3Options& options,
                                               bool on_disk) {
  const size_t physical = PhysicalPageSize(options);
  std::unique_ptr<PageFile> base;
  if (options.page_file_factory) {
    base = options.page_file_factory(physical);
  } else if (on_disk && !options.data_file_path.empty()) {
    auto file = OnDiskPageFile::Create(options.data_file_path, physical);
    if (!file.ok()) return file.status();
    base = file.MoveValue();
  } else {
    base = std::make_unique<InMemoryPageFile>(physical);
  }
  return std::make_unique<DataFile>(WithIntegrity(options, std::move(base)),
                                    options.buffer_pool,
                                    options.cell_cache_bytes);
}

}  // namespace

I3Index::I3Index(I3Options options)
    : I3Index(options, MakeDataFile(options, /*on_disk=*/false).MoveValue()) {
}

I3Index::I3Index(I3Options options, std::unique_ptr<DataFile> data)
    : options_(options),
      cells_(options.space),
      data_(std::move(data)),
      head_(options.signature_bits),
      stats_emitter_("I3", View(I3SearchStats{})) {
  assert(options_.max_split_level >= 1);
  assert(options_.signature_bits >= 1);
  assert(options_.page_size >= codec::kV2MinPageSize);
  head_.ConfigurePager(options_.page_size, options_.head_pool_pages);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  search_latency_us_[0] =
      reg.GetHistogram("i3_query_latency_us", "End-to-end Search latency.",
                       {{"index", "I3"}, {"semantics", "and"}});
  search_latency_us_[1] =
      reg.GetHistogram("i3_query_latency_us", "End-to-end Search latency.",
                       {{"index", "I3"}, {"semantics", "or"}});
  insert_latency_us_ =
      reg.GetHistogram("i3_update_latency_us", "Insert/Delete latency.",
                       {{"index", "I3"}, {"op", "insert"}});
  delete_latency_us_ =
      reg.GetHistogram("i3_update_latency_us", "Insert/Delete latency.",
                       {{"index", "I3"}, {"op", "delete"}});
}

Result<std::unique_ptr<I3Index>> I3Index::Create(I3Options options) {
  if (options.page_size < codec::kV2MinPageSize) {
    return Status::InvalidArgument(
        "page size " + std::to_string(options.page_size) +
        " is below the minimum of " + std::to_string(codec::kV2MinPageSize));
  }
  if (options.signature_bits == 0) {
    return Status::InvalidArgument("signature length must be positive");
  }
  auto data = MakeDataFile(options, /*on_disk=*/true);
  if (!data.ok()) return data.status();
  return std::unique_ptr<I3Index>(new I3Index(options, data.MoveValue()));
}

Status I3Index::ValidateDocument(const SpatialDocument& doc) const {
  if (doc.id == kInvalidDocId) {
    return Status::InvalidArgument("invalid document id");
  }
  if (!options_.space.Contains(doc.location)) {
    return Status::InvalidArgument("location " + doc.location.ToString() +
                                   " outside the data space");
  }
  if (doc.terms.empty()) {
    return Status::InvalidArgument("document has no keywords");
  }
  TermId prev = kInvalidTermId;
  for (const WeightedTerm& wt : doc.terms) {
    if (wt.term == kInvalidTermId) {
      return Status::InvalidArgument("invalid term id");
    }
    if (prev != kInvalidTermId && wt.term <= prev) {
      return Status::InvalidArgument(
          "terms must be sorted and duplicate-free");
    }
    if (!(wt.weight > 0.0f) || wt.weight > 1.0f) {
      return Status::InvalidArgument("term weight must be in (0, 1]");
    }
    prev = wt.term;
  }
  return Status::OK();
}

// ------------------------------------------------------------------ insert

Status I3Index::Insert(const SpatialDocument& doc) {
  const uint64_t start_ns = obs::NowNanos();
  I3_RETURN_NOT_OK(ValidateDocument(doc));
  for (const SpatialTuple& t : PartitionDocument(doc)) {
    I3_RETURN_NOT_OK(InsertTuple(t));
  }
  ++doc_count_;
  insert_latency_us_->Record((obs::NowNanos() - start_ns) / 1000);
  return Status::OK();
}

Status I3Index::InsertTuple(const SpatialTuple& t) {
  auto it = lookup_.find(t.term);
  if (it == lookup_.end()) {
    return InsertNewKeyword(t);  // Algorithm 1, lines 1-4
  }
  LookupEntry& entry = it->second;
  if (!entry.dense) {
    return InsertNonDenseRoot(t, &entry);  // Algorithm 1, lines 6-8
  }
  // Algorithm 1, lines 10-16.
  return InsertDense(t, entry.node, CellId::Root(), options_.space);
}

Status I3Index::InsertNewKeyword(const SpatialTuple& t) {
  auto page_res = data_->PageWithFreeSlots(1);
  if (!page_res.ok()) return page_res.status();
  const PageId page = page_res.ValueOrDie();
  const SourceId source = next_source_++;
  I3_RETURN_NOT_OK(data_->Insert(page, source, t));
  LookupEntry entry;
  entry.page = page;
  entry.source = source;
  lookup_.emplace(t.term, entry);
  return Status::OK();
}

// Algorithm 2: insertNonDenseKwd. The density test is on the *cell*, not
// the page: the paper's "page full and all tuples ours" becomes the cell's
// encoded one-page envelope (see DataFile::CellOversized), so cells pack
// several times more tuples than P/B before going dense. The append, or
// the relocation of a cell whose page is full, happens inside AddToCell.
Status I3Index::InsertNonDenseRoot(const SpatialTuple& t,
                                   LookupEntry* entry) {
  TuplePage page;
  auto added = data_->AddToCell(&entry->page, entry->source, t, &page);
  if (!added.ok()) return added.status();
  if (added.ValueOrDie() != DataFile::CellAdd::kMustSplit) {
    return Status::OK();
  }

  // The keyword becomes dense in the root cell: split and re-insert.
  auto node_res =
      SplitCell(options_.space, entry->page, std::move(page), entry->source);
  if (!node_res.ok()) return node_res.status();
  entry->dense = true;
  entry->node = node_res.ValueOrDie();
  entry->page = kInvalidPageId;
  entry->source = kFreeSlot;
  return InsertDense(t, entry->node, CellId::Root(), options_.space);
}

// Algorithm 3: insertDenseKwd, iteratively along the root-to-leaf path.
Status I3Index::InsertDense(const SpatialTuple& t, NodeId node_id,
                            CellId cell, Rect rect) {
  while (true) {
    // Line 1: fold the new tuple into the summaries on the path. Path
    // nodes are pinned in the maintenance buffer (like B-tree internals),
    // so the descent charges no reads; a node is written back only if a
    // summary actually changed -- signatures only grow, so inserts into
    // well-populated cells usually leave the node clean. Both effects are
    // key reasons I3 updates are cheap.
    SummaryNode* node = head_.MutateDeferred(node_id);
    bool changed = node->self.Add(t.doc, t.weight);
    const int q = CellSpace::QuadrantOf(rect, t.location);
    changed |= node->child_summary[q].Add(t.doc, t.weight);
    if (changed) head_.ChargeWrite();
    rect = CellSpace::ChildRect(rect, q);
    cell = cell.Child(q);

    ChildRef& ref = node->child[q];
    switch (ref.kind) {
      case ChildRef::Kind::kSummary:
        node_id = ref.node;
        continue;

      case ChildRef::Kind::kNone: {
        // First tuple of this child keyword cell.
        auto page_res = data_->PageWithFreeSlots(1);
        if (!page_res.ok()) return page_res.status();
        const PageId page = page_res.ValueOrDie();
        const SourceId source = next_source_++;
        I3_RETURN_NOT_OK(data_->Insert(page, source, t));
        ref = ChildRef::ToPage(page, source);
        return Status::OK();
      }

      case ChildRef::Kind::kPage: {
        // Density test on the cell (the encoded one-page envelope, see
        // InsertNonDenseRoot), then the append or, on a full page, the move
        // of the cell (Algorithm 3, lines 12-16).
        const bool splittable = cell.level() < options_.max_split_level;
        TuplePage page;
        auto added = data_->AddToCell(&ref.page, ref.source, t,
                                      splittable ? &page : nullptr);
        if (!added.ok()) return added.status();
        if (added.ValueOrDie() == DataFile::CellAdd::kMustSplit) {
          if (!splittable) {
            // Cannot split further: extend the overflow chain. Whether a
            // page has room depends on the encoding, so each candidate --
            // the primary page first, then the chain -- is simply tried;
            // a full page answers ResourceExhausted and the scan moves on.
            Status primary = data_->Insert(ref.page, ref.source, t);
            if (primary.code() != StatusCode::kResourceExhausted) {
              return primary;
            }
            for (PageId op : ref.overflow) {
              Status st = data_->Insert(op, ref.source, t);
              if (st.code() != StatusCode::kResourceExhausted) return st;
            }
            auto extra_res = data_->PageWithFreeSlots(1);
            if (!extra_res.ok()) return extra_res.status();
            PageId extra = extra_res.ValueOrDie();
            Status st = Status::ResourceExhausted("chain page reuse");
            if (extra != ref.page) {
              // (The primary page may well have free bytes, but the chain
              // must stay a set of distinct pages, so it is never reused.)
              st = data_->Insert(extra, ref.source, t);
              if (!st.ok() &&
                  st.code() != StatusCode::kResourceExhausted) {
                return st;
              }
            }
            if (!st.ok()) {
              // Free bytes promised a *new* cell fits; growing an existing
              // group of this cell can still overflow. A fresh page never
              // does.
              auto fresh = data_->AllocatePage();
              if (!fresh.ok()) return fresh.status();
              extra = fresh.ValueOrDie();
              I3_RETURN_NOT_OK(data_->Insert(extra, ref.source, t));
            }
            ref.overflow.push_back(extra);
            return Status::OK();
          }
          // Child keyword cell becomes dense (Algorithm 3, lines 5-10).
          const PageId child_page = ref.page;
          const SourceId child_source = ref.source;
          auto child_node =
              SplitCell(rect, child_page, std::move(page), child_source);
          if (!child_node.ok()) return child_node.status();
          // `node`/`ref` may dangle after head-file allocation; re-acquire.
          head_.Mutate(node_id)->child[q] =
              ChildRef::ToSummary(child_node.ValueOrDie());
          node_id = child_node.ValueOrDie();
          continue;
        }
        return Status::OK();
      }
    }
  }
}

Result<NodeId> I3Index::SplitCell(const Rect& rect, PageId page,
                                  TuplePage page_img, SourceId source) {
  const NodeId node_id = head_.Allocate();
  SummaryNode* node = head_.Mutate(node_id);

  SourceId child_sources[kQuadrants] = {kFreeSlot, kFreeSlot, kFreeSlot,
                                        kFreeSlot};
  for (StoredTuple& st : page_img.slots) {
    if (st.source != source) continue;
    const int q = CellSpace::QuadrantOf(rect, st.tuple.location);
    if (child_sources[q] == kFreeSlot) child_sources[q] = next_source_++;
    st.source = child_sources[q];  // retag in place
    node->child_summary[q].Add(st.tuple.doc, st.tuple.weight);
  }
  PageId child_pages[kQuadrants];
  for (int q = 0; q < kQuadrants; ++q) child_pages[q] = page;

  // Retagging can grow the page's encoding: the split turns one group into
  // up to four, each with its own directory entry, header, and bases. When
  // the page overflows, child cells are spilled -- whole groups at a time
  // -- to pages with room until the rest fits; a child cell is a unit, so
  // every ChildRef still names exactly one primary page.
  for (int q = 0; q < kQuadrants && !data_->Fits(page_img); ++q) {
    if (child_sources[q] == kFreeSlot) continue;
    std::vector<StoredTuple> kept;
    std::vector<SpatialTuple> moved;
    for (const StoredTuple& st : page_img.slots) {
      if (st.source == child_sources[q]) {
        moved.push_back(st.tuple);
      } else {
        kept.push_back(st);
      }
    }
    std::vector<StoredTuple> group;
    group.reserve(moved.size());
    for (const SpatialTuple& t : moved) group.push_back({child_sources[q], t});
    auto target_res = data_->PageWithRoomForGroup(group);
    if (!target_res.ok()) return target_res.status();
    PageId target = target_res.ValueOrDie();
    if (target == page) {
      // The free-space map still reflects the pre-split page; a fresh page
      // always has room for one spilled cell.
      auto fresh = data_->AllocatePage();
      if (!fresh.ok()) return fresh.status();
      target = fresh.ValueOrDie();
    }
    I3_RETURN_NOT_OK(data_->InsertAll(target, child_sources[q], moved));
    child_pages[q] = target;
    page_img.slots = std::move(kept);
  }

  for (int q = 0; q < kQuadrants; ++q) {
    if (child_sources[q] != kFreeSlot) {
      node->child[q] = ChildRef::ToPage(child_pages[q], child_sources[q]);
    }
  }
  node->RebuildSelf();
  I3_RETURN_NOT_OK(data_->Write(page, page_img));
  return node_id;
}

// ------------------------------------------------------------------ delete

Status I3Index::Delete(const SpatialDocument& doc) {
  const uint64_t start_ns = obs::NowNanos();
  I3_RETURN_NOT_OK(ValidateDocument(doc));
  for (const SpatialTuple& t : PartitionDocument(doc)) {
    I3_RETURN_NOT_OK(DeleteTuple(t));
  }
  --doc_count_;
  delete_latency_us_->Record((obs::NowNanos() - start_ns) / 1000);
  return Status::OK();
}

Status I3Index::DeleteTuple(const SpatialTuple& t) {
  auto it = lookup_.find(t.term);
  if (it == lookup_.end()) {
    return Status::NotFound("keyword not in lookup table");
  }
  LookupEntry& entry = it->second;

  if (!entry.dense) {
    uint32_t remaining = 0;
    auto removed = data_->Remove(entry.page, entry.source, t.doc, &remaining);
    if (!removed.ok()) return removed.status();
    if (!removed.ValueOrDie()) {
      return Status::NotFound("tuple not found for deletion");
    }
    if (remaining == 0) {
      lookup_.erase(it);  // last tuple of the keyword (Section 4.5)
    }
    return Status::OK();
  }

  // Dense keyword: descend to the leaf keyword cell, recording the path.
  struct PathStep {
    NodeId node;
    int quadrant;
  };
  std::vector<PathStep> path;
  NodeId node_id = entry.node;
  Rect rect = options_.space;
  ChildRef* leaf_ref = nullptr;
  while (true) {
    // Descent through buffered path nodes; the bottom-up rebuild below
    // pays the writes.
    SummaryNode* node = head_.MutateDeferred(node_id);
    const int q = CellSpace::QuadrantOf(rect, t.location);
    path.push_back({node_id, q});
    rect = CellSpace::ChildRect(rect, q);
    ChildRef& ref = node->child[q];
    if (ref.kind == ChildRef::Kind::kNone) {
      return Status::NotFound("tuple not found for deletion (empty cell)");
    }
    if (ref.kind == ChildRef::Kind::kSummary) {
      node_id = ref.node;
      continue;
    }
    leaf_ref = &ref;
    break;
  }

  // Remove from the primary page or the overflow chain.
  bool removed = false;
  auto removed_res = data_->Remove(leaf_ref->page, leaf_ref->source, t.doc);
  if (!removed_res.ok()) return removed_res.status();
  removed = removed_res.ValueOrDie();
  if (!removed) {
    for (PageId op : leaf_ref->overflow) {
      auto r = data_->Remove(op, leaf_ref->source, t.doc);
      if (!r.ok()) return r.status();
      if (r.ValueOrDie()) {
        removed = true;
        break;
      }
    }
  }
  if (!removed) {
    return Status::NotFound("tuple not found for deletion (leaf page)");
  }

  // Rebuild the leaf cell's summary from its remaining tuples, then
  // propagate the change bottom-up to the root node (Section 4.5).
  auto entry_res = RebuildEntryFromPages(leaf_ref->page, leaf_ref->overflow,
                                         leaf_ref->source);
  if (!entry_res.ok()) return entry_res.status();
  SummaryEntry rebuilt = entry_res.MoveValue();
  const bool cell_now_empty = rebuilt.sig.IsZero();

  for (size_t i = path.size(); i-- > 0;) {
    SummaryNode* node = head_.Mutate(path[i].node);  // rebuild: real write
    if (i == path.size() - 1) {
      node->child_summary[path[i].quadrant] = rebuilt;
      if (cell_now_empty) {
        node->child[path[i].quadrant] = ChildRef::None();
      }
    } else {
      node->child_summary[path[i].quadrant] = rebuilt;
    }
    node->RebuildSelf();
    rebuilt = node->self;
  }
  return Status::OK();
}

Result<SummaryEntry> I3Index::RebuildEntryFromPages(
    PageId page, const std::vector<PageId>& overflow, SourceId source) {
  SummaryEntry entry;
  entry.sig = Signature(options_.signature_bits);
  I3_RETURN_NOT_OK(VisitCellTuples(
      page, &overflow, source,
      [&entry](const SpatialTuple& t) { entry.Add(t.doc, t.weight); }));
  return entry;
}

Result<std::vector<SpatialTuple>> I3Index::ReadCellTuples(
    PageId page, const std::vector<PageId>& overflow, SourceId source) {
  std::vector<SpatialTuple> out;
  I3_RETURN_NOT_OK(VisitCellTuples(
      page, &overflow, source,
      [&out](const SpatialTuple& t) { out.push_back(t); }));
  return out;
}

// ------------------------------------------------------------------- stats

IndexSizeInfo I3Index::SizeInfo() const {
  IndexSizeInfo info;
  info.components.push_back({"head file", head_.SizeBytes()});
  info.components.push_back({"data file", data_->SizeBytes()});
  // The in-memory lookup table ("quite small" -- Section 6.3): keyword id,
  // dense flag, and a page-or-node reference per keyword.
  info.components.push_back(
      {"lookup table", static_cast<uint64_t>(lookup_.size()) * 13});
  return info;
}

IoStats I3Index::io_stats() const {
  IoStats merged = data_->io_stats();
  merged.MergeFrom(head_.io_stats());
  return merged;
}

void I3Index::ResetIoStats() {
  data_->mutable_io_stats()->Reset();
  const_cast<HeadFile&>(head_).mutable_io_stats()->Reset();
}

// -------------------------------------------------------------- invariants

Result<uint64_t> I3Index::CheckInvariants() {
  uint64_t tuple_count = 0;
  std::unordered_set<SourceId> seen_sources;

  // Every page: its free-space entry matches it, and a v2 page is in the
  // canonical form cell-level writes splice against.
  for (PageId p = 0; p < data_->PageCount(); ++p) {
    I3_RETURN_NOT_OK(data_->CheckPage(p));
  }

  // Walk every keyword's cell tree.
  for (const auto& [term, entry] : lookup_) {
    if (!entry.dense) {
      auto tuples_res = ReadCellTuples(entry.page, {}, entry.source);
      if (!tuples_res.ok()) return tuples_res.status();
      const auto& tuples = tuples_res.ValueOrDie();
      if (tuples.empty()) {
        return Status::Corruption("non-dense keyword with zero tuples");
      }
      if (data_->CellOversized(tuples)) {
        return Status::Corruption("non-dense root cell above capacity");
      }
      if (!seen_sources.insert(entry.source).second) {
        return Status::Corruption("source id reused across cells");
      }
      for (const auto& t : tuples) {
        if (t.term != term) {
          return Status::Corruption("foreign term in keyword cell");
        }
      }
      tuple_count += tuples.size();
      continue;
    }

    // Dense: recursive check of the summary tree.
    struct Frame {
      NodeId node;
      Rect rect;
      uint8_t level;
    };
    std::vector<Frame> stack{{entry.node, options_.space, 0}};
    while (!stack.empty()) {
      Frame f = stack.back();
      stack.pop_back();
      const SummaryNode& node = head_.Read(f.node);
      SummaryEntry expect_self;
      expect_self.sig = Signature(options_.signature_bits);
      for (int q = 0; q < kQuadrants; ++q) {
        expect_self.Merge(node.child_summary[q]);
        const ChildRef& ref = node.child[q];
        const Rect child_rect = CellSpace::ChildRect(f.rect, q);
        if (ref.kind == ChildRef::Kind::kNone) {
          if (!node.child_summary[q].sig.IsZero()) {
            return Status::Corruption("summary for empty child cell");
          }
          continue;
        }
        if (ref.kind == ChildRef::Kind::kSummary) {
          stack.push_back({ref.node, child_rect,
                           static_cast<uint8_t>(f.level + 1)});
          // The child node's self summary must match the parent's child
          // summary (both rebuilt on delete, grown on insert).
          const SummaryNode& child = head_.Read(ref.node);
          if (!(child.self.sig == node.child_summary[q].sig) ||
              child.self.max_s != node.child_summary[q].max_s) {
            return Status::Corruption("parent/child summary mismatch");
          }
          continue;
        }
        // Page-backed child cell.
        if (!seen_sources.insert(ref.source).second) {
          return Status::Corruption("source id reused across cells");
        }
        auto tuples_res = ReadCellTuples(ref.page, ref.overflow, ref.source);
        if (!tuples_res.ok()) return tuples_res.status();
        const auto& tuples = tuples_res.ValueOrDie();
        if (tuples.empty()) {
          return Status::Corruption("page-backed child cell with no tuples");
        }
        if (data_->CellOversized(tuples) &&
            static_cast<uint8_t>(f.level + 1) < options_.max_split_level) {
          return Status::Corruption("splittable cell above capacity");
        }
        SummaryEntry expect;
        expect.sig = Signature(options_.signature_bits);
        for (const auto& t : tuples) {
          if (t.term != term) {
            return Status::Corruption("foreign term in keyword cell");
          }
          if (!child_rect.Contains(t.location)) {
            return Status::Corruption("tuple outside its keyword cell");
          }
          expect.Add(t.doc, t.weight);
        }
        if (!(expect.sig == node.child_summary[q].sig) ||
            expect.max_s != node.child_summary[q].max_s) {
          return Status::Corruption("leaf summary does not match tuples");
        }
        tuple_count += tuples.size();
      }
      if (!(expect_self.sig == node.self.sig) ||
          expect_self.max_s != node.self.max_s) {
        return Status::Corruption("node self summary != union of children");
      }
    }
  }
  return tuple_count;
}

}  // namespace i3
