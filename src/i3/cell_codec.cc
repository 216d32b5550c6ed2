#include "i3/cell_codec.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "i3/data_file.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define I3_UNPACK_X86 1
#include <immintrin.h>
#endif

namespace i3 {
namespace codec {

namespace {

// ------------------------------------------------------- little-endian I/O

template <typename T>
T LoadLe(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void StoreLe(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

uint64_t DoubleBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, 8);
  return u;
}

double BitsDouble(uint64_t u) {
  double d;
  std::memcpy(&d, &u, 8);
  return d;
}

uint32_t BitsFor(uint32_t v) {
  return v == 0 ? 0 : 32u - static_cast<uint32_t>(__builtin_clz(v));
}

/// Significant low bytes of an XOR residual: byte count covering the
/// highest set bit (0 for a zero residual).
uint32_t SigBytes(uint64_t x) {
  if (x == 0) return 0;
  return (64u - static_cast<uint32_t>(__builtin_clzll(x)) + 7u) / 8u;
}

// -------------------------------------------------------------- weight q16

constexpr uint8_t kWeightRaw = 0;    // 4B float32 per tuple
constexpr uint8_t kWeightQ16 = 1;    // w_min + q * w_step, 2B per tuple
constexpr uint8_t kWeightConst = 2;  // one float32 for the whole group

uint32_t QuantizeQ16(float w, float w_min, float w_step) {
  const double q = std::lrint((static_cast<double>(w) - w_min) / w_step);
  if (q < 0.0) return 0;
  if (q > 65535.0) return 65535;
  return static_cast<uint32_t>(q);
}

/// True when `w` survives the 16-bit round trip bit for bit (the search
/// path must score the inserted weights exactly).
bool Q16Exact(float w, float w_min, float w_step) {
  const float q = static_cast<float>(QuantizeQ16(w, w_min, w_step));
  return w_min + q * w_step == w;
}

// ----------------------------------------------------------- group encoder

/// Layout of one encoded group. It is derived from the group's own rows
/// alone -- no group's bytes depend on the rest of its page -- which is what
/// lets a write splice one group and copy every other group unchanged.
struct GroupPlan {
  uint32_t min_doc = 0;
  uint8_t doc_bits = 0;
  uint8_t weight_mode = kWeightRaw;
  uint8_t x_bytes = 0;
  uint8_t y_bytes = 0;
  float w_min = 0.0f;   // q16 minimum / constant value
  float w_step = 0.0f;  // q16 step
  float block_max = 0.0f;
  size_t bytes = 0;  // group header + payload (directory entry excluded)
};

size_t GroupHeaderBytes(uint8_t weight_mode) {
  return 24 + (weight_mode == kWeightQ16 ? 8 : 0) +
         (weight_mode == kWeightConst ? 4 : 0);
}

size_t WeightBytes(uint8_t weight_mode, size_t n) {
  return weight_mode == kWeightRaw ? 4 * n
                                   : (weight_mode == kWeightQ16 ? 2 * n : 0);
}

size_t DeltaBytes(size_t n, uint32_t doc_bits) {
  return (n * doc_bits + 7) / 8;
}

/// Group header plus payload of `n` rows under these header fields.
size_t GroupBytes(size_t n, uint32_t doc_bits, uint8_t weight_mode,
                  uint32_t x_bytes, uint32_t y_bytes) {
  return GroupHeaderBytes(weight_mode) + DeltaBytes(n, doc_bits) +
         WeightBytes(weight_mode, n) + n * (x_bytes + y_bytes);
}

/// Plans the group of rows `c` (n >= 1); the coordinate bases are row 0.
GroupPlan PlanGroup(const CellColumns& c) {
  GroupPlan g;
  const uint64_t bx = DoubleBits(c.xs[0]);
  const uint64_t by = DoubleBits(c.ys[0]);
  uint32_t min_doc = c.docs[0], max_doc = c.docs[0];
  float w_min = c.weights[0], w_max = c.weights[0];
  uint32_t xb = 0, yb = 0;
  for (uint32_t i = 1; i < c.n; ++i) {
    min_doc = std::min(min_doc, c.docs[i]);
    max_doc = std::max(max_doc, c.docs[i]);
    w_min = std::min(w_min, c.weights[i]);
    w_max = std::max(w_max, c.weights[i]);
    xb = std::max(xb, SigBytes(DoubleBits(c.xs[i]) ^ bx));
    yb = std::max(yb, SigBytes(DoubleBits(c.ys[i]) ^ by));
  }
  g.min_doc = min_doc;
  g.doc_bits = static_cast<uint8_t>(BitsFor(max_doc - min_doc));
  g.x_bytes = static_cast<uint8_t>(xb);
  g.y_bytes = static_cast<uint8_t>(yb);
  g.block_max = w_max;

  if (w_min == w_max) {
    g.weight_mode = kWeightConst;
    g.w_min = w_min;
  } else {
    // Try exact 16-bit quantization; keep it only when every weight
    // round-trips bit for bit.
    const float step = (w_max - w_min) / 65535.0f;
    bool exact = step > 0.0f;
    for (uint32_t i = 0; i < c.n && exact; ++i) {
      exact = Q16Exact(c.weights[i], w_min, step);
    }
    if (exact) {
      g.weight_mode = kWeightQ16;
      g.w_min = w_min;
      g.w_step = step;
    } else {
      g.weight_mode = kWeightRaw;
    }
  }

  g.bytes = GroupBytes(c.n, g.doc_bits, g.weight_mode, g.x_bytes, g.y_bytes);
  return g;
}

/// Packs `vals[i] - base` as an LSB-first stream of `bits`-wide values.
void PackOffsets(const uint32_t* vals, uint32_t n, uint32_t base,
                 uint32_t bits, uint8_t* dst) {
  if (bits == 0) return;
  const uint64_t mask = bits == 32 ? 0xFFFFFFFFull : ((1ull << bits) - 1);
  uint64_t buf = 0;
  uint32_t have = 0;
  uint8_t* p = dst;
  for (uint32_t i = 0; i < n; ++i) {
    buf |= (static_cast<uint64_t>(vals[i] - base) & mask) << have;
    have += bits;
    while (have >= 8) {
      *p++ = static_cast<uint8_t>(buf & 0xFF);
      buf >>= 8;
      have -= 8;
    }
  }
  if (have != 0) *p = static_cast<uint8_t>(buf & 0xFF);
}

/// Stores the XOR residuals of `v` against `base`, `width` low bytes each,
/// and returns the end of them. Each residual goes out as one fixed 8-byte
/// word and the cursor advances by `width`: the bytes past `width` are zero
/// (the width covers every set bit of every residual of the group), and
/// the next residual, the next group or the zeroed page tail lands on them,
/// since a page is always written front to back. Within 8 bytes of `end`
/// the exact width is copied instead.
uint8_t* StoreResiduals(const double* v, uint32_t n, uint64_t base,
                        uint32_t width, uint8_t* p, const uint8_t* end) {
  if (width == 0) return p;
  uint32_t i = 0;
  for (; i < n && end - p >= 8; ++i, p += width) {
    StoreLe<uint64_t>(p, DoubleBits(v[i]) ^ base);
  }
  for (; i < n; ++i, p += width) {
    const uint64_t r = DoubleBits(v[i]) ^ base;
    std::memcpy(p, &r, width);  // low bytes, little-endian
  }
  return p;
}

/// Encodes the group of rows `c`, planned as `g`, at `p`; stores never
/// pass `end`.
void EncodeGroup(const CellColumns& c, const GroupPlan& g, uint8_t* p,
                 const uint8_t* end) {
  uint8_t* const start = p;
  StoreLe<uint32_t>(p + 0, g.min_doc);
  p[4] = g.doc_bits;
  p[5] = g.weight_mode;
  p[6] = g.x_bytes;
  p[7] = g.y_bytes;
  StoreLe<double>(p + 8, c.xs[0]);
  StoreLe<double>(p + 16, c.ys[0]);
  p += 24;
  if (g.weight_mode == kWeightQ16) {
    StoreLe<float>(p, g.w_min);
    StoreLe<float>(p + 4, g.w_step);
    p += 8;
  } else if (g.weight_mode == kWeightConst) {
    StoreLe<float>(p, g.w_min);
    p += 4;
  }

  PackOffsets(c.docs, c.n, g.min_doc, g.doc_bits, p);
  p += DeltaBytes(c.n, g.doc_bits);

  if (g.weight_mode == kWeightRaw) {
    for (uint32_t i = 0; i < c.n; ++i, p += 4) {
      StoreLe<float>(p, c.weights[i]);
    }
  } else if (g.weight_mode == kWeightQ16) {
    for (uint32_t i = 0; i < c.n; ++i, p += 2) {
      StoreLe<uint16_t>(p, static_cast<uint16_t>(QuantizeQ16(
                               c.weights[i], g.w_min, g.w_step)));
    }
  }

  p = StoreResiduals(c.xs, c.n, DoubleBits(c.xs[0]), g.x_bytes, p, end);
  p = StoreResiduals(c.ys, c.n, DoubleBits(c.ys[0]), g.y_bytes, p, end);
  assert(static_cast<size_t>(p - start) == g.bytes);
  (void)start;
}

void StoreHeader(uint8_t* out, size_t groups, size_t used) {
  StoreLe<uint32_t>(out, kV2PageMagic);
  StoreLe<uint16_t>(out + 4, kV2FormatVersion);
  StoreLe<uint16_t>(out + 6, static_cast<uint16_t>(groups));
  StoreLe<uint32_t>(out + 8, static_cast<uint32_t>(used));
}

uint8_t* DirEntry(uint8_t* page, size_t g) {
  return page + kV2PageHeaderBytes + g * kV2DirEntryBytes;
}
const uint8_t* DirEntry(const uint8_t* page, size_t g) {
  return page + kV2PageHeaderBytes + g * kV2DirEntryBytes;
}

void StoreDirEntry(uint8_t* dir, uint32_t source, const CellColumns& c,
                   const GroupPlan& g, size_t offset) {
  StoreLe<uint32_t>(dir + 0, source);
  StoreLe<uint32_t>(dir + 4, c.term);
  StoreLe<uint32_t>(dir + 8, c.n);
  StoreLe<uint32_t>(dir + 12, static_cast<uint32_t>(offset));
  StoreLe<float>(dir + 16, g.block_max);
}

// ------------------------------------------------------------ page planning

/// A page's slots regrouped by source in first-appearance order: group `g`
/// owns rows [start[g], start[g + 1]) of the columns, in slot order.
struct PageGroups {
  std::vector<uint32_t> sources;
  std::vector<uint32_t> terms;
  std::vector<uint32_t> start;
  std::vector<DocId> docs;
  std::vector<float> weights;
  std::vector<double> xs, ys;
  std::vector<GroupPlan> plans;
  size_t total = 0;  // encoded page bytes

  CellColumns Group(size_t g) const {
    const uint32_t r = start[g];
    CellColumns c;
    c.term = terms[g];
    c.n = start[g + 1] - r;
    c.docs = docs.data() + r;
    c.weights = weights.data() + r;
    c.xs = xs.data() + r;
    c.ys = ys.data() + r;
    return c;
  }
};

PageGroups PlanPage(const StoredTuple* slots, size_t n) {
  PageGroups pg;
  std::vector<uint32_t> group_of(n);
  for (size_t s = 0; s < n; ++s) {
    size_t g = 0;
    while (g < pg.sources.size() && pg.sources[g] != slots[s].source) ++g;
    if (g == pg.sources.size()) {
      pg.sources.push_back(slots[s].source);
      pg.terms.push_back(slots[s].tuple.term);
    }
    group_of[s] = static_cast<uint32_t>(g);
  }
  const size_t groups = pg.sources.size();
  pg.start.assign(groups + 1, 0);
  for (size_t s = 0; s < n; ++s) ++pg.start[group_of[s] + 1];
  for (size_t g = 0; g < groups; ++g) pg.start[g + 1] += pg.start[g];
  pg.docs.resize(n);
  pg.weights.resize(n);
  pg.xs.resize(n);
  pg.ys.resize(n);
  std::vector<uint32_t> fill(pg.start.begin(), pg.start.end() - 1);
  for (size_t s = 0; s < n; ++s) {
    const uint32_t r = fill[group_of[s]]++;
    const SpatialTuple& t = slots[s].tuple;
    pg.docs[r] = t.doc;
    pg.weights[r] = t.weight;
    pg.xs[r] = t.location.x;
    pg.ys[r] = t.location.y;
  }

  pg.total = kV2PageHeaderBytes + groups * kV2DirEntryBytes;
  pg.plans.reserve(groups);
  for (size_t g = 0; g < groups; ++g) {
    pg.plans.push_back(PlanGroup(pg.Group(g)));
    pg.total += pg.plans.back().bytes;
  }
  return pg;
}

/// The envelope of a cell of `n` >= 1 rows whose doc offsets span
/// `doc_bits` bits and whose widest residuals are `xb`/`yb` bytes: the
/// group plan's own widths, so a plan-preserving append can answer the
/// density test from the group header.
size_t EnvelopeOf(size_t n, uint32_t doc_bits, uint32_t xb, uint32_t yb) {
  // Weight term: the worse of mode 0 (24B header + 4B/tuple) and mode 1
  // (32B header + 2B/tuple), so whichever mode any subset lands on is
  // covered; mode 2 is smaller than both.
  const size_t weight_bytes = std::max<size_t>(4 * n, 8 + 2 * n);
  return kV2PageHeaderBytes + kV2DirEntryBytes + 24 +
         DeltaBytes(n, doc_bits) + weight_bytes +
         static_cast<size_t>(xb + yb) * n;
}

/// Shared body of the CellEnvelopeBytes overloads over `n` rows;
/// `row(i)` returns row i as a SpatialTuple.
template <typename Row>
size_t EnvelopeBytes(size_t n, Row row) {
  if (n == 0) return kV2PageHeaderBytes;
  const SpatialTuple first = row(0);
  uint32_t min_doc = first.doc;
  uint32_t max_doc = first.doc;
  const uint64_t bx = DoubleBits(first.location.x);
  const uint64_t by = DoubleBits(first.location.y);
  uint32_t xb = 0;
  uint32_t yb = 0;
  for (size_t i = 1; i < n; ++i) {
    const SpatialTuple t = row(i);
    min_doc = std::min(min_doc, t.doc);
    max_doc = std::max(max_doc, t.doc);
    xb = std::max(xb, SigBytes(DoubleBits(t.location.x) ^ bx));
    yb = std::max(yb, SigBytes(DoubleBits(t.location.y) ^ by));
  }
  return EnvelopeOf(n, BitsFor(max_doc - min_doc), xb, yb);
}

// ---------------------------------------------------------------- splicing

/// A v2 page's directory, validated by ReadDirectory, and the group of one
/// source in it. The default value is an empty page, which a splice turns
/// into a one-group page.
struct Directory {
  const uint8_t* page = nullptr;
  size_t gc = 0;
  size_t used = kV2PageHeaderBytes;
  size_t dir_end = kV2PageHeaderBytes;
  size_t hit = 0;  // directory index of the source's group (gc: none)

  bool found() const { return hit < gc; }
  size_t OffsetOf(size_t g) const {
    return g < gc ? LoadLe<uint32_t>(DirEntry(page, g) + 12) : used;
  }
};

/// True for a page never written: all zero, and at least a header long.
/// It reads as an empty page. A shorter buffer, or a zero header over a
/// nonzero body, is damage.
bool IsZeroPage(const uint8_t* page, size_t page_size) {
  return page_size >= kV2PageHeaderBytes && page[0] == 0 &&
         std::memcmp(page, page + 1, page_size - 1) == 0;
}

/// Validates the header and every directory offset of `page` before any of
/// them is trusted -- groups must sit back to back from the end of the
/// directory to `used`, in directory order, and `used` within the page --
/// and locates the group of `source`. A zero page reads as the empty
/// directory. Damage returns Corruption.
Status ReadDirectory(const uint8_t* page, size_t page_size, uint32_t source,
                     Directory* d) {
  if (!IsV2Page(page, page_size)) {
    if (IsZeroPage(page, page_size)) {
      *d = Directory{};
      return Status::OK();
    }
    return Status::Corruption("splice of a page that is not v2");
  }
  d->page = page;
  d->gc = LoadLe<uint16_t>(page + 6);
  d->used = LoadLe<uint32_t>(page + 8);
  d->dir_end = kV2PageHeaderBytes + d->gc * kV2DirEntryBytes;
  if (d->used > page_size || d->dir_end > d->used ||
      (d->gc == 0 && d->used != d->dir_end)) {
    return Status::Corruption("v2 page header out of bounds");
  }
  d->hit = d->gc;
  for (size_t g = 0; g < d->gc; ++g) {
    const size_t off = d->OffsetOf(g);
    if ((g == 0 && off != d->dir_end) || off >= d->OffsetOf(g + 1)) {
      return Status::Corruption("v2 directory offsets out of order");
    }
    if (!d->found() && LoadLe<uint32_t>(DirEntry(page, g)) == source) {
      d->hit = g;
    }
  }
  return Status::OK();
}

/// Writes the page of `d` into `out` (page_size bytes) with the group
/// `d.hit` replaced by a group of `bytes` bytes -- dropped when `bytes` is
/// 0, appended last when the page has none -- that `put(dir, off)` writes:
/// its directory entry at `dir`, its bytes at `out + off`. Every other
/// group is copied unchanged; the header and directory offsets are
/// rewritten and the tail is zeroed. ResourceExhausted, writing nothing,
/// when the result does not fit.
template <typename Put>
Result<size_t> Splice(const Directory& d, size_t page_size, size_t bytes,
                      Put&& put, uint8_t* out) {
  const bool keep = bytes > 0;
  const size_t hit_bytes =
      d.found() ? d.OffsetOf(d.hit + 1) - d.OffsetOf(d.hit) : 0;
  const size_t new_gc = d.gc + (!d.found() && keep) - (d.found() && !keep);
  const size_t new_dir_end = kV2PageHeaderBytes + new_gc * kV2DirEntryBytes;
  const size_t total = new_dir_end + (d.used - d.dir_end) - hit_bytes + bytes;
  if (total > page_size) {
    return Status::ResourceExhausted(
        "v2 page encoding needs " + std::to_string(total) +
        " bytes, page holds " + std::to_string(page_size));
  }
  if (new_gc > UINT16_MAX) {
    return Status::ResourceExhausted("too many keyword cells on one page");
  }

  StoreHeader(out, new_gc, total);
  size_t slot = 0;
  size_t off = new_dir_end;
  auto put_group = [&]() {
    put(DirEntry(out, slot++), off);
    off += bytes;
  };
  for (size_t g = 0; g < d.gc; ++g) {
    if (g == d.hit) {
      if (keep) put_group();
      continue;
    }
    const size_t from = d.OffsetOf(g);
    const size_t len = d.OffsetOf(g + 1) - from;
    uint8_t* dir = DirEntry(out, slot++);
    std::memcpy(dir, DirEntry(d.page, g), kV2DirEntryBytes);
    StoreLe<uint32_t>(dir + 12, static_cast<uint32_t>(off));
    std::memcpy(out + off, d.page + from, len);
    off += len;
  }
  if (!d.found() && keep) put_group();
  assert(off == total);
  std::memset(out + total, 0, page_size - total);
  return total;
}

/// Splice of the group of rows `cell` (n >= 1), planned and encoded.
Result<size_t> SpliceCell(const Directory& d, size_t page_size,
                          uint32_t source, const CellColumns& cell,
                          uint8_t* out) {
  const GroupPlan plan = PlanGroup(cell);
  return Splice(
      d, page_size, plan.bytes,
      [&](uint8_t* dir, size_t off) {
        StoreDirEntry(dir, source, cell, plan, off);
        EncodeGroup(cell, plan, out + off, out + page_size);
      },
      out);
}

/// True when a group of `n` rows in weight mode `mode` -- header at `g`,
/// weight column at `col`, maximum `w_max` -- keeps its mode and weight
/// parameters with `w` appended: re-planning the grown rows would find
/// the same minimum, maximum and step, and `w` encodes exactly under them.
bool WeightFitsPlan(uint8_t mode, const uint8_t* g, const uint8_t* col,
                    uint32_t n, float w_max, float w) {
  if (mode == kWeightConst) return w == LoadLe<float>(g + 24);
  if (mode == kWeightQ16) {
    const float w_min = LoadLe<float>(g + 24);
    return w >= w_min && w <= w_max &&
           Q16Exact(w, w_min, LoadLe<float>(g + 28));
  }
  // Raw: inside the column's range the minimum, maximum and step stay
  // put, so the rows that ruled out q16 still rule it out.
  float w_min = LoadLe<float>(col);
  for (uint32_t i = 1; i < n; ++i) {
    w_min = std::min(w_min, LoadLe<float>(col + 4 * i));
  }
  return w >= w_min && w <= w_max;
}

/// ORs `v` (`bits` wide) into an LSB-first bit stream at bit `pos`; the
/// stream's bits from `pos` on must be zero.
void PutBitsAt(uint8_t* stream, size_t pos, uint32_t bits, uint32_t v) {
  uint8_t* p = stream + pos / 8;
  const uint64_t w = static_cast<uint64_t>(v) << (pos % 8);
  for (size_t k = 0; k < (pos % 8 + bits + 7) / 8; ++k) {
    p[k] |= static_cast<uint8_t>(w >> (8 * k));
  }
}

}  // namespace

bool IsV2Page(const uint8_t* page, size_t page_size) {
  if (page_size < kV2PageHeaderBytes) return false;
  return LoadLe<uint32_t>(page) == kV2PageMagic &&
         LoadLe<uint16_t>(page + 4) == kV2FormatVersion;
}

size_t EncodedPageSize(const StoredTuple* slots, size_t n) {
  return PlanPage(slots, n).total;
}

size_t CellEnvelopeBytes(const SpatialTuple* tuples, size_t n) {
  return EnvelopeBytes(n, [tuples](size_t i) { return tuples[i]; });
}

size_t CellEnvelopeBytes(const CellColumns& cell) {
  return EnvelopeBytes(cell.n, [&cell](size_t i) { return cell.Tuple(i); });
}

Result<size_t> EncodePage(const StoredTuple* slots, size_t n, uint8_t* out,
                          size_t page_size) {
  const PageGroups pg = PlanPage(slots, n);
  if (pg.total > page_size) {
    return Status::ResourceExhausted(
        "v2 page encoding needs " + std::to_string(pg.total) +
        " bytes, page holds " + std::to_string(page_size));
  }
  const size_t groups = pg.sources.size();
  if (groups > UINT16_MAX) {
    return Status::ResourceExhausted("too many keyword cells on one page");
  }

  StoreHeader(out, groups, pg.total);
  size_t off = kV2PageHeaderBytes + groups * kV2DirEntryBytes;
  for (size_t g = 0; g < groups; ++g) {
    const CellColumns cell = pg.Group(g);
    StoreDirEntry(DirEntry(out, g), pg.sources[g], cell, pg.plans[g], off);
    EncodeGroup(cell, pg.plans[g], out + off, out + page_size);
    off += pg.plans[g].bytes;
  }
  assert(off == pg.total);
  std::memset(out + pg.total, 0, page_size - pg.total);
  return pg.total;
}

Result<size_t> SpliceGroup(const uint8_t* page, size_t page_size,
                           uint32_t source, const CellColumns& cell,
                           uint8_t* out) {
  Directory d;
  I3_RETURN_NOT_OK(ReadDirectory(page, page_size, source, &d));
  if (cell.n == 0) {
    return Splice(d, page_size, 0, [](uint8_t*, size_t) {}, out);
  }
  return SpliceCell(d, page_size, source, cell, out);
}

Result<size_t> EncodeGroupPage(uint32_t source, const CellColumns& cell,
                               uint8_t* out, size_t page_size) {
  return SpliceCell(Directory{}, page_size, source, cell, out);
}

Result<AppendResult> AppendRow(const uint8_t* page, size_t page_size,
                               uint32_t source, const SpatialTuple& row,
                               uint8_t* out) {
  Directory d;
  I3_RETURN_NOT_OK(ReadDirectory(page, page_size, source, &d));
  AppendResult r;
  if (!d.found()) return r;

  // The group's header must describe exactly its directory extent before
  // any of its sections is copied.
  const uint8_t* entry = DirEntry(page, d.hit);
  const size_t n = LoadLe<uint32_t>(entry + 8);
  const size_t extent = d.OffsetOf(d.hit + 1) - d.OffsetOf(d.hit);
  const uint8_t* g = page + d.OffsetOf(d.hit);
  if (extent < 24 || n == 0 || n > page_size * 8 || g[4] > 32 ||
      g[5] > kWeightConst || g[6] > 8 || g[7] > 8 ||
      GroupBytes(n, g[4], g[5], g[6], g[7]) != extent) {
    return Status::Corruption(
        "v2 group header disagrees with its directory extent");
  }
  const uint32_t min_doc = LoadLe<uint32_t>(g);
  const uint32_t doc_bits = g[4];
  const uint8_t mode = g[5];
  const uint32_t xb = g[6];
  const uint32_t yb = g[7];
  const uint64_t rx = DoubleBits(row.location.x) ^ LoadLe<uint64_t>(g + 8);
  const uint64_t ry = DoubleBits(row.location.y) ^ LoadLe<uint64_t>(g + 16);
  const size_t header = GroupHeaderBytes(mode);
  const size_t deltas = DeltaBytes(n, doc_bits);
  const size_t weights = WeightBytes(mode, n);
  const uint8_t* col = g + header + deltas;  // weight column
  if (row.doc < min_doc || BitsFor(row.doc - min_doc) > doc_bits ||
      SigBytes(rx) > xb || SigBytes(ry) > yb ||
      !WeightFitsPlan(mode, g, col, static_cast<uint32_t>(n),
                      LoadLe<float>(entry + 16), row.weight)) {
    return r;
  }

  // The plan holds, so its widths are the grown cell's own.
  r.envelope = EnvelopeOf(n + 1, doc_bits, xb, yb);
  if (r.envelope > page_size) {
    r.outcome = RowAppend::kOversized;
    return r;
  }
  const size_t grown_deltas = DeltaBytes(n + 1, doc_bits);
  const size_t grown = extent + (grown_deltas - deltas) +
                       WeightBytes(mode, 1) + xb + yb;
  auto put = [&](uint8_t* dir, size_t off) {
    std::memcpy(dir, entry, kV2DirEntryBytes);
    StoreLe<uint32_t>(dir + 8, static_cast<uint32_t>(n + 1));
    StoreLe<uint32_t>(dir + 12, static_cast<uint32_t>(off));
    uint8_t* p = out + off;
    std::memcpy(p, g, header + deltas);
    p += header;
    // The new offset starts at bit n * doc_bits: clear the old stream's
    // padding bits past it and the bytes it grows by, then OR it in.
    const size_t bit = n * doc_bits;
    if (bit % 8 != 0) {
      p[deltas - 1] &= static_cast<uint8_t>((1u << (bit % 8)) - 1);
    }
    std::memset(p + deltas, 0, grown_deltas - deltas);
    PutBitsAt(p, bit, doc_bits, row.doc - min_doc);
    p += grown_deltas;
    std::memcpy(p, col, weights);
    p += weights;
    if (mode == kWeightRaw) {
      StoreLe<float>(p, row.weight);
    } else if (mode == kWeightQ16) {
      const uint32_t q = QuantizeQ16(row.weight, LoadLe<float>(g + 24),
                                     LoadLe<float>(g + 28));
      StoreLe<uint16_t>(p, static_cast<uint16_t>(q));
    }
    p += WeightBytes(mode, 1);
    const uint8_t* xs = col + weights;
    std::memcpy(p, xs, n * xb);
    std::memcpy(p + n * xb, &rx, xb);  // low bytes, little-endian
    p += (n + 1) * xb;
    std::memcpy(p, xs + n * xb, n * yb);
    std::memcpy(p + n * yb, &ry, yb);
  };
  auto in_place = Splice(d, page_size, grown, put, out);
  if (in_place.ok()) {
    r.outcome = RowAppend::kAppended;
    r.used = in_place.ValueOrDie();
    return r;
  }
  if (in_place.status().code() != StatusCode::kResourceExhausted) {
    return in_place.status();
  }
  // The envelope bounds the grown group alone on a page, so this fits.
  auto alone = Splice(Directory{}, page_size, grown, put, out);
  if (!alone.ok()) return alone.status();
  r.outcome = RowAppend::kOverflow;
  r.used = alone.ValueOrDie();
  return r;
}

Result<size_t> AddGroup(const uint8_t* page, size_t page_size,
                        const uint8_t* group, uint8_t* out) {
  Directory from;
  I3_RETURN_NOT_OK(ReadDirectory(group, page_size, 0, &from));
  if (from.gc != 1) {
    return Status::Corruption("moved group is not a one-group page");
  }
  const uint8_t* entry = DirEntry(group, 0);
  Directory d;
  I3_RETURN_NOT_OK(
      ReadDirectory(page, page_size, LoadLe<uint32_t>(entry), &d));
  const size_t bytes = from.used - from.dir_end;
  return Splice(
      d, page_size, bytes,
      [&](uint8_t* dir, size_t off) {
        std::memcpy(dir, entry, kV2DirEntryBytes);
        StoreLe<uint32_t>(dir + 12, static_cast<uint32_t>(off));
        std::memcpy(out + off, group + from.dir_end, bytes);
      },
      out);
}

// ---------------------------------------------------------------- read path

Result<uint32_t> GroupCount(const uint8_t* page, size_t page_size) {
  if (!IsV2Page(page, page_size)) {
    if (IsZeroPage(page, page_size)) return 0u;
    return Status::Corruption("not a v2 page");
  }
  const uint32_t gc = LoadLe<uint16_t>(page + 6);
  const uint32_t used = LoadLe<uint32_t>(page + 8);
  if (used > page_size ||
      kV2PageHeaderBytes + static_cast<size_t>(gc) * kV2DirEntryBytes >
          used) {
    return Status::Corruption("v2 page header out of bounds");
  }
  return gc;
}

Status ReadGroupRef(const uint8_t* page, size_t page_size, uint32_t g,
                    GroupRef* out) {
  auto gc = GroupCount(page, page_size);
  if (!gc.ok()) return gc.status();
  if (g >= gc.ValueOrDie()) {
    return Status::Corruption("v2 group index out of range");
  }
  const uint8_t* dir =
      page + kV2PageHeaderBytes + static_cast<size_t>(g) * kV2DirEntryBytes;
  out->source = LoadLe<uint32_t>(dir + 0);
  out->term = LoadLe<uint32_t>(dir + 4);
  out->count = LoadLe<uint32_t>(dir + 8);
  out->offset = LoadLe<uint32_t>(dir + 12);
  out->block_max = LoadLe<float>(dir + 16);
  return Status::OK();
}

Result<bool> FindGroup(const uint8_t* page, size_t page_size, uint32_t source,
                       GroupRef* out) {
  auto gc_res = GroupCount(page, page_size);
  if (!gc_res.ok()) return gc_res.status();
  const uint32_t gc = gc_res.ValueOrDie();
  for (uint32_t g = 0; g < gc; ++g) {
    const uint8_t* dir =
        page + kV2PageHeaderBytes + static_cast<size_t>(g) * kV2DirEntryBytes;
    if (LoadLe<uint32_t>(dir) == source) {
      I3_RETURN_NOT_OK(ReadGroupRef(page, page_size, g, out));
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------------ decode scratch

namespace {

struct ScratchBufs {
  std::vector<uint32_t> docs;
  std::vector<float> weights;
  std::vector<double> xs, ys;

  void Ensure(uint32_t n) {
    if (docs.size() < n) {
      docs.resize(n);
      weights.resize(n);
      xs.resize(n);
      ys.resize(n);
    }
  }
};

struct ScratchStack {
  std::vector<std::unique_ptr<ScratchBufs>> levels;
  size_t depth = 0;
};
thread_local ScratchStack t_decode_scratch;

}  // namespace

DecodeScratch::DecodeScratch() {
  ScratchStack& s = t_decode_scratch;
  if (s.depth == s.levels.size()) {
    s.levels.push_back(std::make_unique<ScratchBufs>());
  }
  slot_ = s.levels[s.depth].get();
  ++s.depth;
}

DecodeScratch::~DecodeScratch() {
  assert(t_decode_scratch.depth > 0);
  --t_decode_scratch.depth;
}

Status DecodeGroup(const uint8_t* page, size_t page_size, const GroupRef& g,
                   DecodeScratch* scratch, DecodedGroup* out) {
  const uint32_t used = LoadLe<uint32_t>(page + 8);
  // Sanity cap: a directory count larger than the bit capacity of the page
  // cannot be honest (it would also make the scratch resize unbounded).
  if (g.count == 0 || g.count > page_size * 8) {
    return Status::Corruption("v2 group count out of bounds");
  }
  if (g.offset < kV2PageHeaderBytes ||
      static_cast<size_t>(g.offset) + 24 > used || used > page_size) {
    return Status::Corruption("v2 group header out of bounds");
  }

  const uint8_t* p = page + g.offset;
  const uint32_t min_doc = LoadLe<uint32_t>(p + 0);
  const uint8_t doc_bits = p[4];
  const uint8_t weight_mode = p[5];
  const uint8_t x_bytes = p[6];
  const uint8_t y_bytes = p[7];
  const double base_x = LoadLe<double>(p + 8);
  const double base_y = LoadLe<double>(p + 16);
  if (doc_bits > 32 || weight_mode > kWeightConst || x_bytes > 8 ||
      y_bytes > 8) {
    return Status::Corruption("v2 group field out of range");
  }

  const size_t n = g.count;
  const size_t header = GroupHeaderBytes(weight_mode);
  const size_t delta_bytes = DeltaBytes(n, doc_bits);
  const size_t weight_bytes = WeightBytes(weight_mode, n);
  if (static_cast<size_t>(g.offset) +
          GroupBytes(n, doc_bits, weight_mode, x_bytes, y_bytes) >
      used) {
    return Status::Corruption("v2 group payload out of bounds");
  }

  ScratchBufs* bufs = static_cast<ScratchBufs*>(scratch->slot_);
  bufs->Ensure(g.count);
  uint32_t* docs = bufs->docs.data();
  float* weights = bufs->weights.data();
  double* xs = bufs->xs.data();
  double* ys = bufs->ys.data();

  const uint8_t* deltas = p + header;
  internal::UnpackBits(deltas, page_size - (g.offset + header),
                       g.count, doc_bits, docs);
  for (size_t i = 0; i < n; ++i) docs[i] += min_doc;

  const uint8_t* wp = deltas + delta_bytes;
  if (weight_mode == kWeightRaw) {
    for (size_t i = 0; i < n; ++i) weights[i] = LoadLe<float>(wp + 4 * i);
  } else if (weight_mode == kWeightQ16) {
    const float w_min = LoadLe<float>(p + 24);
    const float w_step = LoadLe<float>(p + 28);
    for (size_t i = 0; i < n; ++i) {
      weights[i] =
          w_min + static_cast<float>(LoadLe<uint16_t>(wp + 2 * i)) * w_step;
    }
  } else {
    const float w = LoadLe<float>(p + 24);
    for (size_t i = 0; i < n; ++i) weights[i] = w;
  }

  const uint8_t* xp = wp + weight_bytes;
  const uint64_t bx = DoubleBits(base_x);
  for (size_t i = 0; i < n; ++i) {
    uint64_t r = 0;
    std::memcpy(&r, xp + i * x_bytes, x_bytes);
    xs[i] = BitsDouble(r ^ bx);
  }
  const uint8_t* yp = xp + n * x_bytes;
  const uint64_t by = DoubleBits(base_y);
  for (size_t i = 0; i < n; ++i) {
    uint64_t r = 0;
    std::memcpy(&r, yp + i * y_bytes, y_bytes);
    ys[i] = BitsDouble(r ^ by);
  }

  out->docs = docs;
  out->weights = weights;
  out->xs = xs;
  out->ys = ys;
  out->n = g.count;
  return Status::OK();
}

// -------------------------------------------------------------- bit packing

namespace internal {

void PackBits(const uint32_t* vals, uint32_t n, uint32_t bits, uint8_t* dst) {
  PackOffsets(vals, n, 0, bits, dst);
}

void UnpackBitsPortable(const uint8_t* src, uint32_t n, uint32_t bits,
                        uint32_t* out) {
  if (bits == 0) {
    std::fill(out, out + n, 0u);
    return;
  }
  const uint64_t mask = bits == 32 ? 0xFFFFFFFFull : ((1ull << bits) - 1);
  uint64_t buf = 0;
  uint32_t have = 0;
  const uint8_t* p = src;
  for (uint32_t i = 0; i < n; ++i) {
    while (have < bits) {
      buf |= static_cast<uint64_t>(*p++) << have;
      have += 8;
    }
    out[i] = static_cast<uint32_t>(buf & mask);
    buf >>= bits;
    have -= bits;
  }
}

#ifdef I3_UNPACK_X86

// Eight values per iteration: gather the 32-bit window containing each
// value's first bit, shift it into place, mask. Sound for widths <= 25 (a
// window shifted by at most 7 bits still holds 25 payload bits); wider
// deltas -- astronomically rare at real cell sizes -- take the portable
// loop. The wrapper guarantees every gathered window lies inside the page.
__attribute__((target("avx2"))) void UnpackBitsAvx2(const uint8_t* src,
                                                    uint32_t n, uint32_t bits,
                                                    uint32_t* out) {
  const uint32_t mask = (1u << bits) - 1;
  const __m256i vmask = _mm256_set1_epi32(static_cast<int>(mask));
  const __m256i vseven = _mm256_set1_epi32(7);
  const __m256i lane_bits = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_set1_epi32(static_cast<int>(bits)));
  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bitpos = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(i * bits)), lane_bits);
    const __m256i byteoff = _mm256_srli_epi32(bitpos, 3);
    const __m256i shift = _mm256_and_si256(bitpos, vseven);
    __m256i w = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(src), byteoff, 1);
    w = _mm256_and_si256(_mm256_srlv_epi32(w, shift), vmask);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), w);
  }
  for (; i < n; ++i) {
    const uint64_t bp = static_cast<uint64_t>(i) * bits;
    uint32_t w;
    std::memcpy(&w, src + (bp >> 3), 4);
    out[i] = (w >> (bp & 7)) & mask;
  }
}

// The SIMD path must reproduce the portable unpacker bit for bit across
// every dispatchable width, random payloads, and ragged counts before it
// is allowed to serve (the checksum.cc discipline).
bool SelfTestAvx2() {
  uint8_t packed[256];
  uint32_t vals[48], got[48];
  uint64_t lcg = 0x9E3779B97F4A7C15ull;
  for (uint32_t bits = 1; bits <= 25; ++bits) {
    const uint64_t mask = (1ull << bits) - 1;
    for (uint32_t n : {1u, 7u, 8u, 9u, 31u, 48u}) {
      for (uint32_t i = 0; i < n; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        vals[i] = static_cast<uint32_t>((lcg >> 23) & mask);
      }
      std::memset(packed, 0, sizeof(packed));
      PackBits(vals, n, bits, packed);
      UnpackBitsAvx2(packed, n, bits, got);
      for (uint32_t i = 0; i < n; ++i) {
        if (got[i] != vals[i]) return false;
      }
    }
  }
  return true;
}

bool ChooseSimd() {
  return __builtin_cpu_supports("avx2") && SelfTestAvx2();
}

#else  // !I3_UNPACK_X86

bool ChooseSimd() { return false; }

#endif  // I3_UNPACK_X86

namespace {
const bool g_use_simd = ChooseSimd();
}  // namespace

bool UsingSimdUnpack() { return g_use_simd; }

void UnpackBits(const uint8_t* src, size_t src_readable, uint32_t n,
                uint32_t bits, uint32_t* out) {
  if (bits == 0) {
    std::fill(out, out + n, 0u);
    return;
  }
#ifdef I3_UNPACK_X86
  if (g_use_simd && bits <= 25 && n >= 8) {
    // Every gathered/memcpy'd window is 4 bytes at offset (i*bits)/8.
    const size_t need = (static_cast<size_t>(n - 1) * bits) / 8 + 4;
    if (need <= src_readable) {
      UnpackBitsAvx2(src, n, bits, out);
      return;
    }
  }
#endif
  UnpackBitsPortable(src, n, bits, out);
}

}  // namespace internal

}  // namespace codec
}  // namespace i3
