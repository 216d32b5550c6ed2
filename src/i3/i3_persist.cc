// Serialization of a whole I3 index to a single file and back.
//
// Layout (little-endian):
//   magic "I3IX" + version u32
//   options: space (4 x f64), page_size u64, signature_bits u32,
//            max_split_level u8, signature_pruning u8, summary_screen u8
//   doc_count u64, next_source u32
//   lookup table: count u64, then per entry
//     term u32, dense u8, page u32, source u32, node u32
//   head file: node count u64, then per node
//     5 summary entries (word count u32, words, max_s f32)
//     4 child refs (kind u8, page u32, source u32, node u32,
//                   overflow count u32, overflow page ids)
//   data file: page count u32, then per page
//     tuple count u32, tuples (source u32, term u32, doc u32, x f64, y f64,
//                              weight f32)
//
// The file stores decoded tuples, not page bytes, so it does not depend on
// the page encoding. LoadFrom refuses structural fields the index cannot
// serve -- a page size below codec::kV2MinPageSize, a zero signature
// length, a summary signature whose word count disagrees with it -- as
// Corruption, before allocating anything for them.

#include <cstdint>
#include <cstring>
#include <fstream>

#include "i3/i3_index.h"

namespace i3 {

namespace {

constexpr char kMagic[4] = {'I', '3', 'I', 'X'};
constexpr uint32_t kVersion = 1;

template <typename T>
void WriteP(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadP(std::istream& is, T* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(T));
  return static_cast<bool>(is);
}

void WriteEntry(std::ostream& os, const SummaryEntry& e) {
  const auto& words = e.sig.words();
  WriteP(os, static_cast<uint32_t>(words.size()));
  for (uint64_t w : words) WriteP(os, w);
  WriteP(os, e.max_s);
}

/// Reads one summary entry of a `bits`-bit signature: Corruption when the
/// file ends early or the word count is not the one `bits` needs.
Status ReadEntry(std::istream& is, uint32_t bits, SummaryEntry* e) {
  const uint32_t want = (bits + 63) / 64;
  uint32_t n = 0;
  if (!ReadP(is, &n)) return Status::Corruption("truncated summary entry");
  if (n != want) {
    return Status::Corruption("summary signature has " + std::to_string(n) +
                              " words, " + std::to_string(bits) +
                              " bits need " + std::to_string(want));
  }
  std::vector<uint64_t> words(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!ReadP(is, &words[i])) {
      return Status::Corruption("truncated summary entry");
    }
  }
  e->sig = Signature::FromWords(bits, std::move(words));
  if (!ReadP(is, &e->max_s)) {
    return Status::Corruption("truncated summary entry");
  }
  return Status::OK();
}

void WriteChildRef(std::ostream& os, const ChildRef& ref) {
  WriteP(os, static_cast<uint8_t>(ref.kind));
  WriteP(os, ref.page);
  WriteP(os, ref.source);
  WriteP(os, ref.node);
  WriteP(os, static_cast<uint32_t>(ref.overflow.size()));
  for (PageId p : ref.overflow) WriteP(os, p);
}

bool ReadChildRef(std::istream& is, ChildRef* ref) {
  uint8_t kind = 0;
  if (!ReadP(is, &kind)) return false;
  ref->kind = static_cast<ChildRef::Kind>(kind);
  if (!ReadP(is, &ref->page)) return false;
  if (!ReadP(is, &ref->source)) return false;
  if (!ReadP(is, &ref->node)) return false;
  uint32_t n = 0;
  if (!ReadP(is, &n)) return false;
  ref->overflow.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!ReadP(is, &ref->overflow[i])) return false;
  }
  return true;
}

}  // namespace

Status I3Index::SaveTo(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  os.write(kMagic, 4);
  WriteP(os, kVersion);

  WriteP(os, options_.space.min_x);
  WriteP(os, options_.space.min_y);
  WriteP(os, options_.space.max_x);
  WriteP(os, options_.space.max_y);
  WriteP(os, static_cast<uint64_t>(options_.page_size));
  WriteP(os, options_.signature_bits);
  WriteP(os, options_.max_split_level);
  WriteP(os, static_cast<uint8_t>(options_.signature_pruning));
  WriteP(os, static_cast<uint8_t>(options_.summary_screen));

  WriteP(os, doc_count_);
  WriteP(os, next_source_);

  WriteP(os, static_cast<uint64_t>(lookup_.size()));
  for (const auto& [term, entry] : lookup_) {
    WriteP(os, term);
    WriteP(os, static_cast<uint8_t>(entry.dense));
    WriteP(os, entry.page);
    WriteP(os, entry.source);
    WriteP(os, entry.node);
  }

  // Head file. Mutate-free access via a const_cast'ed Read (charges reads,
  // which is accurate: saving scans the head file once).
  HeadFile& head = const_cast<HeadFile&>(head_);
  WriteP(os, static_cast<uint64_t>(head.NodeCount()));
  for (NodeId id = 0; id < head.NodeCount(); ++id) {
    const SummaryNode& node = head.Read(id);
    WriteEntry(os, node.self);
    for (int q = 0; q < kQuadrants; ++q) {
      WriteEntry(os, node.child_summary[q]);
    }
    for (int q = 0; q < kQuadrants; ++q) {
      WriteChildRef(os, node.child[q]);
    }
  }

  // Data file: decoded pages.
  DataFile& data = const_cast<DataFile&>(*data_);
  WriteP(os, data.PageCount());
  for (PageId p = 0; p < data.PageCount(); ++p) {
    auto page = data.Read(p);
    if (!page.ok()) return page.status();
    const auto& slots = page.ValueOrDie().slots;
    WriteP(os, static_cast<uint32_t>(slots.size()));
    for (const StoredTuple& st : slots) {
      WriteP(os, st.source);
      WriteP(os, st.tuple.term);
      WriteP(os, st.tuple.doc);
      WriteP(os, st.tuple.location.x);
      WriteP(os, st.tuple.location.y);
      WriteP(os, st.tuple.weight);
    }
  }

  if (!os.flush()) {
    return Status::IOError("write to " + path + " failed");
  }
  return Status::OK();
}

Result<std::unique_ptr<I3Index>> I3Index::LoadFrom(const std::string& path) {
  return LoadFrom(path, I3Options{});
}

Result<std::unique_ptr<I3Index>> I3Index::LoadFrom(const std::string& path,
                                                   I3Options base) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return Status::IOError("cannot open " + path);
  }
  char magic[4];
  is.read(magic, 4);
  if (!is || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  uint32_t version = 0;
  if (!ReadP(is, &version) || version != kVersion) {
    return Status::NotSupported("unsupported index file version");
  }

  // Structural options come from the file; environment options (backing
  // factory, checksumming, buffer pool) are taken from `base` so callers
  // can re-home a persisted index onto a different storage stack.
  I3Options opt = base;
  uint64_t page_size = 0;
  uint8_t sig_pruning = 1, screen = 1;
  if (!ReadP(is, &opt.space.min_x) || !ReadP(is, &opt.space.min_y) ||
      !ReadP(is, &opt.space.max_x) || !ReadP(is, &opt.space.max_y) ||
      !ReadP(is, &page_size) || !ReadP(is, &opt.signature_bits) ||
      !ReadP(is, &opt.max_split_level) || !ReadP(is, &sig_pruning) ||
      !ReadP(is, &screen)) {
    return Status::Corruption("truncated options in " + path);
  }
  if (page_size < codec::kV2MinPageSize) {
    return Status::Corruption("page size " + std::to_string(page_size) +
                              " in " + path + " is below the minimum of " +
                              std::to_string(codec::kV2MinPageSize));
  }
  if (opt.signature_bits == 0) {
    return Status::Corruption("zero signature length in " + path);
  }
  opt.page_size = page_size;
  opt.signature_pruning = sig_pruning != 0;
  opt.summary_screen = screen != 0;

  auto index = std::make_unique<I3Index>(opt);
  if (!ReadP(is, &index->doc_count_) || !ReadP(is, &index->next_source_)) {
    return Status::Corruption("truncated header in " + path);
  }

  uint64_t lookup_count = 0;
  if (!ReadP(is, &lookup_count)) {
    return Status::Corruption("truncated lookup table");
  }
  for (uint64_t i = 0; i < lookup_count; ++i) {
    TermId term = 0;
    uint8_t dense = 0;
    LookupEntry entry;
    if (!ReadP(is, &term) || !ReadP(is, &dense) || !ReadP(is, &entry.page) ||
        !ReadP(is, &entry.source) || !ReadP(is, &entry.node)) {
      return Status::Corruption("truncated lookup entry");
    }
    entry.dense = dense != 0;
    index->lookup_.emplace(term, entry);
  }

  uint64_t node_count = 0;
  if (!ReadP(is, &node_count)) {
    return Status::Corruption("truncated head file");
  }
  for (uint64_t i = 0; i < node_count; ++i) {
    const NodeId id = index->head_.Allocate();
    SummaryNode* node = index->head_.Mutate(id);
    I3_RETURN_NOT_OK(ReadEntry(is, opt.signature_bits, &node->self));
    for (int q = 0; q < kQuadrants; ++q) {
      I3_RETURN_NOT_OK(
          ReadEntry(is, opt.signature_bits, &node->child_summary[q]));
    }
    for (int q = 0; q < kQuadrants; ++q) {
      if (!ReadChildRef(is, &node->child[q])) {
        return Status::Corruption("truncated child ref");
      }
    }
  }

  PageId page_count = 0;
  if (!ReadP(is, &page_count)) {
    return Status::Corruption("truncated data file");
  }
  for (PageId p = 0; p < page_count; ++p) {
    auto alloc = index->data_->AllocatePage();
    if (!alloc.ok()) return alloc.status();
    if (alloc.ValueOrDie() != p) {
      return Status::Internal("page id mismatch during load");
    }
    uint32_t tuple_count = 0;
    if (!ReadP(is, &tuple_count)) {
      return Status::Corruption("truncated page header");
    }
    TuplePage page;
    page.slots.resize(tuple_count);
    for (uint32_t s = 0; s < tuple_count; ++s) {
      StoredTuple& st = page.slots[s];
      if (!ReadP(is, &st.source) || !ReadP(is, &st.tuple.term) ||
          !ReadP(is, &st.tuple.doc) || !ReadP(is, &st.tuple.location.x) ||
          !ReadP(is, &st.tuple.location.y) || !ReadP(is, &st.tuple.weight)) {
        return Status::Corruption("truncated tuple");
      }
    }
    I3_RETURN_NOT_OK(index->data_->Write(p, page));
  }
  index->ResetIoStats();
  return index;
}

}  // namespace i3
