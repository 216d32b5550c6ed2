// Unit tests of the v2 compressed cell-page codec (i3/cell_codec.h):
// lossless round-trips across all three weight modes, directory block-max
// semantics, SIMD-vs-portable bit-unpacker parity, the subset-stable cell
// envelope that drives the v2 split rule, the one-group splice that
// cell-level writes use (byte-identical to a whole-page encode), and --
// because compression can run with page checksums disabled -- the promise
// that truncated or bit-flipped pages surface as clean Status::Corruption,
// never as out-of-bounds reads or garbage accepted silently at the
// structural layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <vector>

#include "common/rng.h"
#include "i3/cell_codec.h"
#include "i3/data_file.h"

namespace i3 {
namespace codec {
namespace {

// Deterministic tuple soup: `sources` cells, round-robin interleaved the
// way real pages store them, spatially clustered per cell so coordinate
// residuals exercise the truncated-XOR path.
std::vector<StoredTuple> MakeSlots(uint32_t sources, uint32_t per_source,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<StoredTuple> slots;
  std::vector<double> cx(sources), cy(sources);
  for (uint32_t s = 0; s < sources; ++s) {
    cx[s] = rng.UniformDouble(0.0, 100.0);
    cy[s] = rng.UniformDouble(0.0, 100.0);
  }
  for (uint32_t i = 0; i < per_source; ++i) {
    for (uint32_t s = 0; s < sources; ++s) {
      StoredTuple st;
      st.source = s + 1;
      st.tuple.term = s + 100;
      st.tuple.doc = rng.UniformInt(0, 1 << 20);
      st.tuple.location = {cx[s] + rng.UniformDouble(-0.5, 0.5),
                           cy[s] + rng.UniformDouble(-0.5, 0.5)};
      st.tuple.weight = static_cast<float>(rng.UniformDouble(0.05, 1.0));
      slots.push_back(st);
    }
  }
  return slots;
}

// Full read pipeline: header -> directory -> per-group decode, rebuilding
// source -> tuples (slot order preserved within a group).
Status DecodeWholePage(const uint8_t* page, size_t page_size,
                       std::map<SourceId, std::vector<SpatialTuple>>* out) {
  auto count = GroupCount(page, page_size);
  if (!count.ok()) return count.status();
  for (uint32_t g = 0; g < count.ValueOrDie(); ++g) {
    GroupRef ref;
    I3_RETURN_NOT_OK(ReadGroupRef(page, page_size, g, &ref));
    DecodeScratch scratch;
    DecodedGroup dec;
    I3_RETURN_NOT_OK(DecodeGroup(page, page_size, ref, &scratch, &dec));
    std::vector<SpatialTuple>& tuples = (*out)[ref.source];
    for (uint32_t i = 0; i < dec.n; ++i) {
      SpatialTuple t;
      t.term = ref.term;
      t.doc = dec.docs[i];
      t.location = {dec.xs[i], dec.ys[i]};
      t.weight = dec.weights[i];
      tuples.push_back(t);
    }
  }
  return Status::OK();
}

std::map<SourceId, std::vector<SpatialTuple>> BySource(
    const std::vector<StoredTuple>& slots) {
  std::map<SourceId, std::vector<SpatialTuple>> out;
  for (const StoredTuple& st : slots) out[st.source].push_back(st.tuple);
  return out;
}

void ExpectExactEqual(
    const std::map<SourceId, std::vector<SpatialTuple>>& want,
    const std::map<SourceId, std::vector<SpatialTuple>>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (const auto& [source, tuples] : want) {
    auto it = got.find(source);
    ASSERT_NE(it, got.end()) << "missing source " << source;
    ASSERT_EQ(tuples.size(), it->second.size()) << "source " << source;
    for (size_t i = 0; i < tuples.size(); ++i) {
      // Bit-exact, not approximate: the codec's contract is losslessness.
      EXPECT_EQ(tuples[i].doc, it->second[i].doc);
      EXPECT_EQ(tuples[i].term, it->second[i].term);
      EXPECT_EQ(tuples[i].location.x, it->second[i].location.x);
      EXPECT_EQ(tuples[i].location.y, it->second[i].location.y);
      EXPECT_EQ(tuples[i].weight, it->second[i].weight);
    }
  }
}

TEST(CellCodecTest, RoundTripInterleavedGroups) {
  const std::vector<StoredTuple> slots = MakeSlots(5, 35, 7);
  std::vector<uint8_t> page(kDefaultPageSize, 0);
  auto used = EncodePage(slots.data(), slots.size(), page.data(), page.size());
  ASSERT_TRUE(used.ok()) << used.status().message();
  EXPECT_EQ(used.ValueOrDie(),
            EncodedPageSize(slots.data(), slots.size()));
  EXPECT_TRUE(IsV2Page(page.data(), page.size()));

  std::map<SourceId, std::vector<SpatialTuple>> got;
  ASSERT_TRUE(DecodeWholePage(page.data(), page.size(), &got).ok());
  ExpectExactEqual(BySource(slots), got);
}

TEST(CellCodecTest, EmptyAndSingleTuplePages) {
  std::vector<uint8_t> page(kDefaultPageSize, 0);
  auto used = EncodePage(nullptr, 0, page.data(), page.size());
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(used.ValueOrDie(), kV2PageHeaderBytes);
  auto count = GroupCount(page.data(), page.size());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.ValueOrDie(), 0u);

  const std::vector<StoredTuple> one = MakeSlots(1, 1, 3);
  std::fill(page.begin(), page.end(), 0);
  ASSERT_TRUE(
      EncodePage(one.data(), one.size(), page.data(), page.size()).ok());
  std::map<SourceId, std::vector<SpatialTuple>> got;
  ASSERT_TRUE(DecodeWholePage(page.data(), page.size(), &got).ok());
  ExpectExactEqual(BySource(one), got);
}

// Weight-mode selection is observable through the group header byte
// (offset + 5 per the layout comment) and through the encoded size.
uint8_t WeightModeOf(const uint8_t* page, size_t page_size, uint32_t g) {
  GroupRef ref;
  EXPECT_TRUE(ReadGroupRef(page, page_size, g, &ref).ok());
  return page[ref.offset + 5];
}

TEST(CellCodecTest, WeightModesRoundTripExactly) {
  // Mode 2 (constant): every weight identical.
  std::vector<StoredTuple> constant = MakeSlots(1, 60, 11);
  for (StoredTuple& st : constant) st.tuple.weight = 0.625f;
  // Mode 1 (q16): weights on an exactly representable lattice
  // (step = (max - min) / 65535 = 1.0f, integer offsets round-trip).
  std::vector<StoredTuple> lattice = MakeSlots(1, 60, 13);
  for (size_t i = 0; i < lattice.size(); ++i) {
    lattice[i].tuple.weight = static_cast<float>(i * 1000);
  }
  lattice.back().tuple.weight = 65535.0f;
  // Mode 0 (raw): arbitrary floats that defeat exact quantization.
  const std::vector<StoredTuple> raw = MakeSlots(1, 60, 17);

  const std::vector<StoredTuple>* groups[] = {&constant, &lattice, &raw};
  for (const std::vector<StoredTuple>* slots : groups) {
    std::vector<uint8_t> page(kDefaultPageSize, 0);
    ASSERT_TRUE(EncodePage(slots->data(), slots->size(), page.data(),
                           page.size())
                    .ok());
    std::map<SourceId, std::vector<SpatialTuple>> got;
    ASSERT_TRUE(DecodeWholePage(page.data(), page.size(), &got).ok());
    ExpectExactEqual(BySource(*slots), got);
  }

  std::vector<uint8_t> page(kDefaultPageSize, 0);
  ASSERT_TRUE(EncodePage(constant.data(), constant.size(), page.data(),
                         page.size())
                  .ok());
  EXPECT_EQ(WeightModeOf(page.data(), page.size(), 0), 2);
  std::fill(page.begin(), page.end(), 0);
  ASSERT_TRUE(EncodePage(lattice.data(), lattice.size(), page.data(),
                         page.size())
                  .ok());
  EXPECT_EQ(WeightModeOf(page.data(), page.size(), 0), 1);
  // Constant and quantized layouts must actually be smaller than raw.
  EXPECT_LT(EncodedPageSize(constant.data(), constant.size()),
            EncodedPageSize(raw.data(), raw.size()));
  EXPECT_LT(EncodedPageSize(lattice.data(), lattice.size()),
            EncodedPageSize(raw.data(), raw.size()));
}

TEST(CellCodecTest, BlockMaxIsTheGroupMaximumWeight) {
  const std::vector<StoredTuple> slots = MakeSlots(4, 30, 23);
  std::vector<uint8_t> page(kDefaultPageSize, 0);
  ASSERT_TRUE(
      EncodePage(slots.data(), slots.size(), page.data(), page.size()).ok());
  auto count = GroupCount(page.data(), page.size());
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count.ValueOrDie(), 4u);
  for (uint32_t g = 0; g < 4; ++g) {
    GroupRef ref;
    ASSERT_TRUE(ReadGroupRef(page.data(), page.size(), g, &ref).ok());
    float want = 0.0f;
    for (const StoredTuple& st : slots) {
      if (st.source == ref.source) want = std::max(want, st.tuple.weight);
    }
    EXPECT_EQ(ref.block_max, want) << "group " << g;
  }
}

TEST(CellCodecTest, FindGroupLocatesEverySourceAndRejectsOthers) {
  const std::vector<StoredTuple> slots = MakeSlots(6, 10, 29);
  std::vector<uint8_t> page(kDefaultPageSize, 0);
  ASSERT_TRUE(
      EncodePage(slots.data(), slots.size(), page.data(), page.size()).ok());
  for (uint32_t s = 1; s <= 6; ++s) {
    GroupRef ref;
    auto found = FindGroup(page.data(), page.size(), s, &ref);
    ASSERT_TRUE(found.ok());
    EXPECT_TRUE(found.ValueOrDie());
    EXPECT_EQ(ref.source, s);
    EXPECT_EQ(ref.count, 10u);
  }
  GroupRef ref;
  auto found = FindGroup(page.data(), page.size(), 999, &ref);
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(found.ValueOrDie());
}

TEST(CellCodecTest, PackUnpackParityAtEveryWidth) {
  Rng rng(31);
  for (uint32_t bits = 1; bits <= 32; ++bits) {
    const uint32_t n = 97;
    const uint64_t mask =
        bits == 32 ? 0xFFFFFFFFull : ((1ull << bits) - 1);
    std::vector<uint32_t> vals(n);
    for (uint32_t& v : vals) {
      v = static_cast<uint32_t>(
          static_cast<uint64_t>(rng.UniformInt(0, 1 << 30)) * 7919 & mask);
    }
    // Pad like a real page: the SIMD path may read whole 32-bit windows
    // past the packed bytes as long as they are within `src_readable`.
    std::vector<uint8_t> packed((n * bits + 7) / 8 + 16, 0xAB);
    internal::PackBits(vals.data(), n, bits, packed.data());
    std::vector<uint32_t> portable(n, 0), dispatched(n, 0);
    internal::UnpackBitsPortable(packed.data(), n, bits, portable.data());
    internal::UnpackBits(packed.data(), packed.size(), n, bits,
                         dispatched.data());
    EXPECT_EQ(vals, portable) << "portable, bits=" << bits;
    EXPECT_EQ(portable, dispatched) << "dispatched, bits=" << bits;
  }
}

TEST(CellCodecTest, TruncationIsDetectedNeverOverread) {
  const std::vector<StoredTuple> slots = MakeSlots(3, 25, 37);
  std::vector<uint8_t> page(kDefaultPageSize, 0);
  auto used_res =
      EncodePage(slots.data(), slots.size(), page.data(), page.size());
  ASSERT_TRUE(used_res.ok());
  const size_t used = used_res.ValueOrDie();

  const auto want = BySource(slots);
  for (size_t cut = 0; cut <= used + 8; ++cut) {
    // A fresh exactly-sized buffer, so any overread trips ASan.
    std::vector<uint8_t> trunc(page.begin(), page.begin() + cut);
    std::map<SourceId, std::vector<SpatialTuple>> got;
    const Status st = DecodeWholePage(trunc.data(), trunc.size(), &got);
    if (st.ok()) {
      // Decoding may only succeed once every group's payload survived --
      // and then it must be the exact original data.
      EXPECT_GE(cut, used) << "decode succeeded on a truncated page";
      ExpectExactEqual(want, got);
    } else {
      EXPECT_TRUE(st.IsCorruption()) << st.message();
    }
  }
}

TEST(CellCodecTest, BitFlipsNeverCrashAndErrorsAreCorruption) {
  const std::vector<StoredTuple> slots = MakeSlots(2, 20, 41);
  std::vector<uint8_t> page(1024, 0);
  auto used_res =
      EncodePage(slots.data(), slots.size(), page.data(), page.size());
  ASSERT_TRUE(used_res.ok());
  const size_t used = used_res.ValueOrDie();

  for (size_t byte = 0; byte < used; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> damaged = page;
      damaged[byte] ^= static_cast<uint8_t>(1u << bit);
      std::map<SourceId, std::vector<SpatialTuple>> got;
      const Status st = DecodeWholePage(damaged.data(), damaged.size(), &got);
      // Payload flips can decode to wrong-but-well-formed values (that is
      // what checksum_pages is for); structural damage must be a clean
      // Corruption. Either way: no crash, no overread, and no status class
      // other than Corruption. A flip in the magic or version leaves a
      // page that is neither v2 nor zero, which must be refused.
      if (!st.ok()) {
        EXPECT_TRUE(st.IsCorruption()) << st.message();
      }
      if (!IsV2Page(damaged.data(), damaged.size())) {
        EXPECT_FALSE(st.ok()) << "byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(CellCodecTest, EnvelopeBoundsTheCellAndEverySubset) {
  Rng rng(43);
  const std::vector<StoredTuple> slots = MakeSlots(1, 200, 47);
  std::vector<SpatialTuple> cell;
  for (const StoredTuple& st : slots) cell.push_back(st.tuple);

  const size_t env = CellEnvelopeBytes(cell.data(), cell.size());
  EXPECT_GE(env, EncodedPageSize(slots.data(), slots.size()));

  // Random subsets, re-based to their own first tuple exactly like a
  // quadrant split would store them: the parent envelope must still bound
  // both their envelope and their exact encoding.
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<StoredTuple> sub_slots;
    std::vector<SpatialTuple> sub;
    for (const StoredTuple& st : slots) {
      if (rng.Chance(0.4)) {
        sub_slots.push_back(st);
        sub.push_back(st.tuple);
      }
    }
    if (sub.empty()) continue;
    EXPECT_LE(CellEnvelopeBytes(sub.data(), sub.size()), env);
    EXPECT_LE(EncodedPageSize(sub_slots.data(), sub_slots.size()), env);
  }
}

// Bytes in the paper's fixed-slot layout -- a slot whose source id counts
// up from 1, nowhere near the magic -- are not a page of this format: every
// read refuses them as Corruption.
TEST(CellCodecTest, V1BytesAreNotMistakenForV2) {
  std::vector<uint8_t> page(kDefaultPageSize, 0);
  StoredTuple st;
  st.source = 1;
  st.tuple = {5, 42, {1.0, 2.0}, 0.5f};
  std::memcpy(page.data(), &st.source, 4);
  std::memcpy(page.data() + 4, &st.tuple.term, 4);
  std::memcpy(page.data() + 8, &st.tuple.doc, 4);
  EXPECT_FALSE(IsV2Page(page.data(), page.size()));
  EXPECT_FALSE(IsV2Page(page.data(), 4));  // shorter than the header
  std::map<SourceId, std::vector<SpatialTuple>> got;
  EXPECT_TRUE(DecodeWholePage(page.data(), page.size(), &got).IsCorruption());
  GroupRef ref;
  EXPECT_TRUE(
      FindGroup(page.data(), page.size(), 1, &ref).status().IsCorruption());
}

TEST(CellCodecTest, OverflowingEncodeWritesNothing) {
  const std::vector<StoredTuple> slots = MakeSlots(2, 40, 53);
  ASSERT_GT(EncodedPageSize(slots.data(), slots.size()), 256u);
  std::vector<uint8_t> page(256, 0);
  auto used = EncodePage(slots.data(), slots.size(), page.data(), page.size());
  ASSERT_FALSE(used.ok());
  EXPECT_EQ(used.status().code(), StatusCode::kResourceExhausted);
  for (uint8_t b : page) EXPECT_EQ(b, 0);
}

// A page never written is all zero and reads as an empty page: no groups,
// no cell found, and a splice onto it makes the same bytes as EncodePage.
// A buffer shorter than the header, or a zero header over a nonzero body,
// is damage.
TEST(CellCodecTest, ZeroPageReadsAsEmptyPage) {
  std::vector<uint8_t> page(kV2MinPageSize, 0);
  EXPECT_FALSE(IsV2Page(page.data(), page.size()));
  auto count = GroupCount(page.data(), page.size());
  ASSERT_TRUE(count.ok()) << count.status().message();
  EXPECT_EQ(count.ValueOrDie(), 0u);
  GroupRef ref;
  auto found = FindGroup(page.data(), page.size(), 1, &ref);
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(found.ValueOrDie());

  const std::vector<StoredTuple> slots = MakeSlots(1, 6, 61);
  std::vector<DocId> docs;
  std::vector<float> weights;
  std::vector<double> xs, ys;
  for (const StoredTuple& st : slots) {
    docs.push_back(st.tuple.doc);
    weights.push_back(st.tuple.weight);
    xs.push_back(st.tuple.location.x);
    ys.push_back(st.tuple.location.y);
  }
  CellColumns cell;
  cell.term = slots[0].tuple.term;
  cell.n = static_cast<uint32_t>(slots.size());
  cell.docs = docs.data();
  cell.weights = weights.data();
  cell.xs = xs.data();
  cell.ys = ys.data();
  std::vector<uint8_t> spliced(page.size(), 0xEE);
  auto used = SpliceGroup(page.data(), page.size(), slots[0].source, cell,
                          spliced.data());
  ASSERT_TRUE(used.ok()) << used.status().message();
  std::vector<uint8_t> encoded(page.size(), 0);
  auto want = EncodePage(slots.data(), slots.size(), encoded.data(),
                         encoded.size());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(used.ValueOrDie(), want.ValueOrDie());
  EXPECT_EQ(spliced, encoded);

  // Damage: a short zero buffer, and one nonzero byte past the header.
  for (size_t n : {size_t{0}, size_t{1}, kV2PageHeaderBytes - 1}) {
    EXPECT_TRUE(GroupCount(page.data(), n).status().IsCorruption()) << n;
  }
  page[page.size() - 1] = 1;
  EXPECT_TRUE(GroupCount(page.data(), page.size()).status().IsCorruption());
  EXPECT_TRUE(SpliceGroup(page.data(), page.size(), 1, cell, spliced.data())
                  .status()
                  .IsCorruption());
}

// Seeds swept by the randomized splice test: 3 by default, more under
// I3_CHAOS_SEEDS (the chaos job's setting).
uint64_t SpliceSeeds() {
  const char* env = std::getenv("I3_CHAOS_SEEDS");
  if (env == nullptr) return 3;
  const uint64_t n = std::strtoull(env, nullptr, 10);
  return n > 0 ? n : 3;
}

/// Columnar rows of one cell, the input of SpliceGroup.
struct Rows {
  uint32_t term = 0;
  std::vector<DocId> docs;
  std::vector<float> weights;
  std::vector<double> xs, ys;

  void Add(const SpatialTuple& t) {
    if (docs.empty()) term = t.term;
    docs.push_back(t.doc);
    weights.push_back(t.weight);
    xs.push_back(t.location.x);
    ys.push_back(t.location.y);
  }
  CellColumns columns() const {
    CellColumns c;
    c.term = term;
    c.n = static_cast<uint32_t>(docs.size());
    c.docs = docs.data();
    c.weights = weights.data();
    c.xs = xs.data();
    c.ys = ys.data();
    return c;
  }
};

/// The whole-page edit a splice must reproduce: the tuples of `source`
/// are replaced by `rows` at the position of the source's first tuple
/// (appended when the page has none), so EncodePage keeps every group's
/// first-appearance position.
std::vector<StoredTuple> ReplaceSource(const std::vector<StoredTuple>& slots,
                                       SourceId source, const Rows& rows) {
  std::vector<StoredTuple> out;
  bool placed = false;
  auto place = [&]() {
    const CellColumns c = rows.columns();
    for (uint32_t i = 0; i < c.n; ++i) out.push_back({source, c.Tuple(i)});
    placed = true;
  };
  for (const StoredTuple& st : slots) {
    if (st.source != source) {
      out.push_back(st);
    } else if (!placed) {
      place();
    }
  }
  if (!placed) place();
  return out;
}

SpatialTuple RandomTuple(Rng* rng, TermId term, double cx, double cy) {
  SpatialTuple t;
  t.term = term;
  t.doc = static_cast<DocId>(rng->UniformInt(0, 1 << 20));
  if (rng->Chance(0.1)) {
    // An outlier widens the group's coordinate residuals.
    t.location = {rng->UniformDouble(-170.0, 170.0),
                  rng->UniformDouble(-80.0, 80.0)};
  } else {
    t.location = {cx + rng->UniformDouble(-0.01, 0.01),
                  cy + rng->UniformDouble(-0.01, 0.01)};
  }
  t.weight = 0.5f;
  if (rng->Chance(0.7)) {
    t.weight = static_cast<float>(rng->UniformDouble(0.05, 1.0));
  }
  return t;
}

/// The plan of the group of `rows` as EncodePage writes it: the group's
/// block_max and its header bytes (bases, widths, weight mode and weight
/// parameters).
std::vector<uint8_t> PlanBytes(SourceId source, const Rows& rows) {
  std::vector<StoredTuple> slots;
  const CellColumns c = rows.columns();
  for (uint32_t i = 0; i < c.n; ++i) slots.push_back({source, c.Tuple(i)});
  std::vector<uint8_t> page(kDefaultPageSize * 4, 0);
  EXPECT_TRUE(
      EncodePage(slots.data(), slots.size(), page.data(), page.size()).ok());
  const size_t group = kV2PageHeaderBytes + kV2DirEntryBytes;
  const uint8_t mode = page[group + 5];
  const size_t header = 24 + (mode == 1 ? 8 : 0) + (mode == 2 ? 4 : 0);
  return std::vector<uint8_t>(page.begin() + group - 4,
                              page.begin() + group + header);
}

/// A row for the group `rows` (n >= 1) that keeps its plan -- every field
/// copied from some existing row -- when `kind` is 0, or that breaks one
/// plan field: 1 doc below min_doc, 2 doc offset past doc_bits, 3 wider x
/// residual, 4 wider y residual, 5 weight above the group's maximum, 6
/// weight below its minimum, 7 weight inside the range (off the constant,
/// and almost never q16-exact).
SpatialTuple PlanRow(Rng* rng, const Rows& rows, int kind) {
  const size_t n = rows.docs.size();
  auto pick = [&]() { return rng->UniformInt(0, n - 1); };
  SpatialTuple t;
  t.term = rows.term;
  t.doc = rows.docs[pick()];
  t.location = {rows.xs[pick()], rows.ys[pick()]};
  t.weight = rows.weights[pick()];
  const DocId lo = *std::min_element(rows.docs.begin(), rows.docs.end());
  const DocId hi = *std::max_element(rows.docs.begin(), rows.docs.end());
  const float w_lo =
      *std::min_element(rows.weights.begin(), rows.weights.end());
  const float w_hi =
      *std::max_element(rows.weights.begin(), rows.weights.end());
  switch (kind) {
    case 1:
      t.doc = lo > 0 ? lo - 1 : t.doc;
      break;
    case 2: {
      uint32_t bits = 0;
      while (bits < 32 && ((hi - lo) >> bits) != 0) ++bits;
      if (bits < 31) t.doc = lo + (1u << bits);
      break;
    }
    case 3:
      t.location.x = -2.0 * rows.xs[0] - 1.0;
      break;
    case 4:
      t.location.y = -2.0 * rows.ys[0] - 1.0;
      break;
    case 5:
      t.weight = w_hi + 0.25f;
      break;
    case 6:
      t.weight = w_lo * 0.5f;
      break;
    case 7:
      t.weight = static_cast<float>(
          rng->UniformDouble(w_lo, w_lo == w_hi ? w_lo + 0.5f : w_hi));
      break;
    default:
      break;
  }
  return t;
}

// Seeded sequences of replace / append / drop edits on a v2 page: after
// every step the spliced page must equal EncodePage of the edited slots,
// byte for byte, and an edit that does not fit must fail exactly when the
// whole-page encode does, leaving the output untouched. One op appends
// through AppendRow with a row that keeps the group's plan or breaks one of
// its fields. AppendRow must grow the group in its encoded form (in place,
// as a one-group page on overflow, or not at all when the grown cell is
// oversized) for every row copied from existing rows, and only when the
// grown group's plan -- header and block_max -- is unchanged; any other
// row is spliced after decoding, as DataFile does.
TEST(CellCodecTest, SpliceMatchesEncodePageOverSeededEdits) {
  const uint64_t seeds = SpliceSeeds();
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(seed * 7919 + 13);
    // The model keeps a page's slots in its decoded order: group by group.
    std::vector<StoredTuple> model = MakeSlots(4, 6, seed);
    std::stable_sort(model.begin(), model.end(),
                     [](const StoredTuple& a, const StoredTuple& b) {
                       return a.source < b.source;
                     });
    // A 1KB page fills up within a few dozen appends.
    std::vector<uint8_t> page(1024, 0);
    ASSERT_TRUE(
        EncodePage(model.data(), model.size(), page.data(), page.size()).ok());
    SourceId next_source = 5;
    int rejected = 0;
    int in_place = 0;  // AppendRow appends (in place or overflowed)
    int replans = 0;   // AppendRow rows that changed the plan

    for (int step = 0; step < 300; ++step) {
      std::vector<SourceId> present;
      for (const StoredTuple& st : model) {
        if (present.empty() || present.back() != st.source) {
          present.push_back(st.source);
        }
      }
      const bool fresh = present.empty() || rng.Chance(0.15);
      SourceId source = next_source;
      if (fresh) {
        ++next_source;
      } else {
        source = present[rng.UniformInt(0, present.size() - 1)];
      }
      Rows rows;
      for (const StoredTuple& st : model) {
        if (st.source == source) rows.Add(st.tuple);
      }
      // New tuples cluster around the group's first one (its bases).
      double cx = rng.UniformDouble(0.0, 100.0);
      double cy = rng.UniformDouble(0.0, 100.0);
      TermId term = source + 100;
      if (!rows.docs.empty()) {
        cx = rows.xs[0];
        cy = rows.ys[0];
        term = rows.term;
      }
      // Appends dominate, so the page keeps filling up and the overflow
      // branch is exercised as well.
      const double pick = rng.UniformDouble(0.0, 1.0);
      int op = 3;
      if (fresh || pick < 0.3) {
        op = 0;
      } else if (pick < 0.55) {
        op = 4;
      } else if (pick < 0.75) {
        op = 1;
      } else if (pick < 0.8) {
        op = 2;
      }
      if (op == 4) {  // append through AppendRow
        const int kind = rng.Chance(0.5) ? 0 : rng.UniformInt(1, 7);
        const SpatialTuple row = PlanRow(&rng, rows, kind);
        const std::vector<uint8_t> plan = PlanBytes(source, rows);
        Rows grown = rows;
        grown.Add(row);
        const bool keeps_plan = PlanBytes(source, grown) == plan;
        std::vector<uint8_t> out(page.size(), 0xCD);
        auto got = AppendRow(page.data(), page.size(), source, row,
                             out.data());
        ASSERT_TRUE(got.ok()) << got.status().message();
        const AppendResult r = got.ValueOrDie();
        const std::string where = "seed " + std::to_string(seed) + " step " +
                                  std::to_string(step) + " kind " +
                                  std::to_string(kind);
        if (kind == 0) {
          ASSERT_NE(r.outcome, RowAppend::kReplan) << where;
        }
        if (!keeps_plan) {
          ASSERT_EQ(r.outcome, RowAppend::kReplan) << where;
        }
        if (r.outcome == RowAppend::kReplan) {
          for (uint8_t b : out) ASSERT_EQ(b, 0xCD) << where << " wrote";
          ++replans;
          rows = grown;  // decode and splice instead, below
        } else {
          const CellColumns gc = grown.columns();
          ASSERT_EQ(r.envelope, CellEnvelopeBytes(gc)) << where;
          ++in_place;
          if (r.outcome == RowAppend::kOversized) {
            EXPECT_GT(r.envelope, page.size()) << where;
            for (uint8_t b : out) ASSERT_EQ(b, 0xCD) << where << " wrote";
            continue;
          }
          const std::vector<StoredTuple> edited =
              ReplaceSource(model, source, grown);
          std::vector<uint8_t> want(page.size(), 0);
          auto want_used = EncodePage(edited.data(), edited.size(),
                                      want.data(), want.size());
          if (r.outcome == RowAppend::kOverflow) {
            // Whole page full: `out` is the grown group alone.
            ASSERT_FALSE(want_used.ok()) << where;
            const std::vector<StoredTuple> alone =
                ReplaceSource({}, source, grown);
            want_used = EncodePage(alone.data(), alone.size(), want.data(),
                                   want.size());
            ASSERT_TRUE(want_used.ok()) << where;
            ASSERT_EQ(r.used, want_used.ValueOrDie()) << where;
            ASSERT_EQ(out, want) << where;
            ++rejected;
            continue;
          }
          ASSERT_TRUE(want_used.ok()) << where;
          ASSERT_EQ(r.used, want_used.ValueOrDie()) << where;
          ASSERT_EQ(out, want) << where;
          page = out;
          model = edited;
          continue;
        }
      } else if (op == 0) {  // append a tuple (or start a new group)
        rows.Add(RandomTuple(&rng, term, cx, cy));
      } else if (op == 1) {  // drop one tuple (the first moves the bases)
        Rows kept;
        const size_t drop = rng.UniformInt(0, rows.docs.size() - 1);
        for (size_t i = 0; i < rows.docs.size(); ++i) {
          if (i != drop) {
            kept.Add({term, rows.docs[i], {rows.xs[i], rows.ys[i]},
                      rows.weights[i]});
          }
        }
        rows = kept;
      } else if (op == 2) {  // drop the group
        rows = Rows();
      } else {  // replace every row
        rows = Rows();
        const int n = static_cast<int>(rng.UniformInt(1, 20));
        for (int i = 0; i < n; ++i) {
          rows.Add(RandomTuple(&rng, term, cx, cy));
        }
      }

      const std::vector<StoredTuple> edited =
          ReplaceSource(model, source, rows);
      std::vector<uint8_t> want(page.size(), 0);
      auto want_used =
          EncodePage(edited.data(), edited.size(), want.data(), want.size());
      std::vector<uint8_t> out(page.size(), 0xCD);
      auto got = SpliceGroup(page.data(), page.size(), source,
                             rows.columns(), out.data());
      if (!want_used.ok()) {
        ASSERT_FALSE(got.ok()) << "seed " << seed << " step " << step;
        EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
        for (uint8_t b : out) ASSERT_EQ(b, 0xCD) << "rejected splice wrote";
        ++rejected;
        continue;
      }
      ASSERT_TRUE(got.ok()) << "seed " << seed << " step " << step << ": "
                            << got.status().message();
      EXPECT_EQ(got.ValueOrDie(), want_used.ValueOrDie());
      ASSERT_EQ(out, want) << "seed " << seed << " step " << step
                           << " source " << source << " op " << op;
      page = out;
      model = edited;
    }
    // The page must have filled up at least once, or the overflow branch
    // went untested; and AppendRow must have taken both of its paths.
    EXPECT_GT(rejected, 0) << "seed " << seed;
    EXPECT_GT(in_place, 0) << "seed " << seed;
    EXPECT_GT(replans, 0) << "seed " << seed;
  }
}

// A raw-weight group keeps its plan under a weight inside its range, but
// a weight below it can put every row on a new 16-bit lattice: rows 0.5,
// 0.75 and 65535/65536 miss the lattice of their own range, and with 0
// added the step is exactly 2^-16. AppendRow must append the first row in
// encoded form and re-plan the second.
TEST(CellCodecTest, AppendRowReplansARawGroupTheRowPutsOnALattice) {
  std::vector<StoredTuple> slots;
  for (float w : {0.5f, 0.75f, 65535.0f / 65536.0f}) {
    slots.push_back({1, {7, 101, {1.0, 1.0}, w}});
  }
  std::vector<uint8_t> page(kDefaultPageSize);
  ASSERT_TRUE(
      EncodePage(slots.data(), slots.size(), page.data(), page.size()).ok());
  ASSERT_EQ(WeightModeOf(page.data(), page.size(), 0), 0);

  const SpatialTuple inside{7, 101, {1.0, 1.0}, 0.625f};
  std::vector<uint8_t> out(page.size());
  auto got = AppendRow(page.data(), page.size(), 1, inside, out.data());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie().outcome, RowAppend::kAppended);
  std::vector<StoredTuple> grown = slots;
  grown.push_back({1, inside});
  std::vector<uint8_t> want(page.size());
  ASSERT_TRUE(
      EncodePage(grown.data(), grown.size(), want.data(), want.size()).ok());
  EXPECT_EQ(out, want);

  const SpatialTuple below{7, 101, {1.0, 1.0}, 0.0f};
  got = AppendRow(page.data(), page.size(), 1, below, out.data());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie().outcome, RowAppend::kReplan);
  grown = slots;
  grown.push_back({1, below});
  ASSERT_TRUE(
      EncodePage(grown.data(), grown.size(), want.data(), want.size()).ok());
  EXPECT_EQ(WeightModeOf(want.data(), want.size(), 0), 1);
}

// Padding bits past a group's last doc offset are ignored by the decoder,
// so a page that carries set ones there still decodes; an append must not
// let them leak into the offset it adds after them.
TEST(CellCodecTest, AppendRowClearsDocOffsetPadding) {
  std::vector<StoredTuple> slots;
  for (DocId doc : {100u, 103u, 101u}) {  // 2-bit offsets: 6 of 8 bits
    slots.push_back({1, {7, doc, {1.0, 1.0}, 0.5f}});
  }
  std::vector<uint8_t> page(kDefaultPageSize);
  ASSERT_TRUE(
      EncodePage(slots.data(), slots.size(), page.data(), page.size()).ok());
  GroupRef ref;
  ASSERT_TRUE(ReadGroupRef(page.data(), page.size(), 0, &ref).ok());
  page[ref.offset + 28] |= 0xC0;  // constant weight: 28-byte header

  std::vector<uint8_t> out(page.size());
  auto got = AppendRow(page.data(), page.size(), 1, {7, 102, {1.0, 1.0}, 0.5f},
                       out.data());
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.ValueOrDie().outcome, RowAppend::kAppended);
  std::map<SourceId, std::vector<SpatialTuple>> decoded;
  ASSERT_TRUE(DecodeWholePage(out.data(), out.size(), &decoded).ok());
  ASSERT_EQ(decoded[1].size(), 4u);
  EXPECT_EQ(decoded[1][0].doc, 100u);
  EXPECT_EQ(decoded[1][1].doc, 103u);
  EXPECT_EQ(decoded[1][2].doc, 101u);
  EXPECT_EQ(decoded[1][3].doc, 102u);
}

// A damaged directory is rejected before any byte of it is trusted: the
// splice, AppendRow and AddGroup return Corruption and leave the output
// buffer untouched. AppendRow also copies the sections of the group it
// grows, so that group's header must describe exactly its directory
// extent. Exact-size buffers, so an overread trips ASan.
TEST(CellCodecTest, SpliceRejectsDamagedDirectoryAndWritesNothing) {
  const std::vector<StoredTuple> slots = MakeSlots(3, 10, 61);
  std::vector<uint8_t> page(1024, 0);
  auto used_res =
      EncodePage(slots.data(), slots.size(), page.data(), page.size());
  ASSERT_TRUE(used_res.ok());
  const uint32_t used = static_cast<uint32_t>(used_res.ValueOrDie());
  Rows cell;
  cell.Add({101, 7, {1.0, 2.0}, 0.5f});
  std::vector<uint8_t> group(page.size());
  ASSERT_TRUE(
      EncodeGroupPage(99, cell.columns(), group.data(), group.size()).ok());

  // Byte offset of directory entry g's payload offset field.
  auto offset_field = [](uint32_t g) {
    return kV2PageHeaderBytes + g * kV2DirEntryBytes + 12;
  };
  auto get32 = [](const std::vector<uint8_t>& p, size_t at) {
    uint32_t v;
    std::memcpy(&v, p.data() + at, 4);
    return v;
  };
  auto put32 = [](std::vector<uint8_t>* p, size_t at, uint32_t v) {
    std::memcpy(p->data() + at, &v, 4);
  };
  const char* const damages[] = {
      "offsets out of order",
      "offsets not strictly ascending",
      "first offset past the directory end",
      "offset past used",
      "used larger than the page",
      "group count past the directory",
      "not a v2 page",
  };
  for (int d = 0; d < 7; ++d) {
    std::vector<uint8_t> bad = page;
    const uint32_t off0 = get32(bad, offset_field(0));
    const uint32_t off1 = get32(bad, offset_field(1));
    const uint32_t off2 = get32(bad, offset_field(2));
    switch (d) {
      case 0:
        put32(&bad, offset_field(1), off2);
        put32(&bad, offset_field(2), off1);
        break;
      case 1:
        put32(&bad, offset_field(2), off1);
        break;
      case 2:
        put32(&bad, offset_field(0), off0 + 4);
        break;
      case 3:
        put32(&bad, offset_field(2), used);
        break;
      case 4:
        put32(&bad, 8, 1024 + 1);
        break;
      case 5: {
        const uint16_t gc = static_cast<uint16_t>(
            (used - kV2PageHeaderBytes) / kV2DirEntryBytes + 1);
        std::memcpy(bad.data() + 6, &gc, 2);
        break;
      }
      default:
        bad[0] ^= 0xFF;
    }
    auto expect_rejected = [&](const Status& st, const char* what,
                               const std::vector<uint8_t>& out) {
      ASSERT_FALSE(st.ok()) << damages[d] << " " << what;
      EXPECT_TRUE(st.IsCorruption())
          << damages[d] << " " << what << ": " << st.message();
      for (uint8_t b : out) ASSERT_EQ(b, 0xCD) << damages[d] << " wrote";
    };
    for (SourceId source : {2u, 99u}) {  // replace a group / append one
      std::vector<uint8_t> out(bad.size(), 0xCD);
      auto spliced = SpliceGroup(bad.data(), bad.size(), source,
                                 cell.columns(), out.data());
      expect_rejected(spliced.status(), "SpliceGroup", out);
      auto appended = AppendRow(bad.data(), bad.size(), source,
                                cell.columns().Tuple(0), out.data());
      expect_rejected(appended.status(), "AppendRow", out);
    }
    std::vector<uint8_t> out(bad.size(), 0xCD);
    auto onto = AddGroup(bad.data(), bad.size(), group.data(), out.data());
    expect_rejected(onto.status(), "AddGroup onto it", out);
    auto of = AddGroup(group.data(), group.size(), bad.data(), out.data());
    expect_rejected(of.status(), "AddGroup of it", out);
  }

  // Group 1 (source 2) with a header that disagrees with its directory
  // extent: a residual width, the doc-offset width, or the row count.
  const uint32_t off1 = get32(page, offset_field(1));
  for (int d = 0; d < 3; ++d) {
    std::vector<uint8_t> bad = page;
    if (d == 0) bad[off1 + 6] = static_cast<uint8_t>(bad[off1 + 6] % 8 + 1);
    if (d == 1) bad[off1 + 4] = static_cast<uint8_t>(bad[off1 + 4] + 8);
    if (d == 2) {
      const size_t count = kV2PageHeaderBytes + kV2DirEntryBytes + 8;
      put32(&bad, count, get32(bad, count) + 1);
    }
    std::vector<uint8_t> out(bad.size(), 0xCD);
    auto got = AppendRow(bad.data(), bad.size(), 2, cell.columns().Tuple(0),
                         out.data());
    ASSERT_FALSE(got.ok()) << "header damage " << d;
    EXPECT_TRUE(got.status().IsCorruption()) << got.status().message();
    for (uint8_t b : out) ASSERT_EQ(b, 0xCD) << "header damage " << d;
  }

  // The undamaged page splices cleanly.
  std::vector<uint8_t> out(page.size());
  EXPECT_TRUE(
      SpliceGroup(page.data(), page.size(), 2, cell.columns(), out.data())
          .ok());
  auto appended = AppendRow(page.data(), page.size(), 2,
                            cell.columns().Tuple(0), out.data());
  EXPECT_TRUE(appended.ok());
  auto added = AddGroup(page.data(), page.size(), group.data(), out.data());
  EXPECT_TRUE(added.ok());
}

}  // namespace
}  // namespace codec
}  // namespace i3
