// Unit tests of I3's storage components: signature files, the keyword-cell
// data file, and the head file of summary nodes.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "common/rng.h"
#include "i3/data_file.h"
#include "i3/head_file.h"
#include "i3/signature.h"
#include "obs/metrics.h"

namespace i3 {
namespace {

TEST(SignatureTest, SetAndTestBits) {
  Signature sig(300);
  EXPECT_TRUE(sig.IsZero());
  sig.Add(7);
  sig.Add(307);  // 307 % 300 == 7: same bit
  EXPECT_TRUE(sig.MayContain(7));
  EXPECT_TRUE(sig.MayContain(307));
  EXPECT_FALSE(sig.MayContain(8));
  EXPECT_EQ(sig.PopCount(), 1u);
}

TEST(SignatureTest, PaperExample) {
  // Section 5.3's worked example: eta = 4, H(id) = id % 4; "restaurant" in
  // C4 contains {d4, d7, d8} -> signature 1001 (bits 0 and 3).
  Signature sig(4);
  sig.Add(4);
  sig.Add(7);
  sig.Add(8);
  EXPECT_EQ(sig.ToString(), "1001");
}

TEST(SignatureTest, IntersectAndUnion) {
  Signature a(64), b(64);
  a.Add(1);
  a.Add(2);
  b.Add(2);
  b.Add(3);
  EXPECT_TRUE(a.Intersects(b));
  Signature c = a;
  c.IntersectWith(b);
  EXPECT_TRUE(c.MayContain(2));
  EXPECT_FALSE(c.MayContain(1));
  EXPECT_EQ(c.PopCount(), 1u);
  Signature u = a;
  u.UnionWith(b);
  EXPECT_EQ(u.PopCount(), 3u);

  Signature d(64);
  d.Add(40);
  EXPECT_FALSE(a.Intersects(d));
}

TEST(SignatureTest, SizeBytes) {
  EXPECT_EQ(Signature(300).SizeBytes(), 38u);
  EXPECT_EQ(Signature(8).SizeBytes(), 1u);
  EXPECT_EQ(Signature(9).SizeBytes(), 2u);
}

/// Tuples of `source` on `page`, in row order.
std::vector<SpatialTuple> OfSource(const TuplePage& page, SourceId source) {
  std::vector<SpatialTuple> out;
  for (const StoredTuple& st : page.slots) {
    if (st.source == source) out.push_back(st.tuple);
  }
  return out;
}

/// A tuple of `term` at a random location with a random weight: full
/// coordinate residuals and a raw weight column, the encoding's worst case.
SpatialTuple RandomTuple(Rng* rng, TermId term, DocId doc) {
  return {term, doc,
          {rng->UniformDouble(0.0, 100.0), rng->UniformDouble(0.0, 100.0)},
          static_cast<float>(rng->UniformDouble(0.05, 1.0))};
}

// The paper's page holds P/B fixed 32-byte slots (128 at P = 4KB). An
// encoded page holds at least as many tuples of one keyword cell, even of
// one with random coordinates and weights.
TEST(DataFileTest, CapacityFollowsPaperSetting) {
  for (size_t page_size : {codec::kV2MinPageSize, kDefaultPageSize}) {
    DataFile df(page_size);
    const PageId p = df.AllocatePage().ValueOrDie();
    Rng rng(page_size);
    uint32_t n = 0;
    while (df.Insert(p, 1, RandomTuple(&rng, 1, n * 7919)).ok()) ++n;
    EXPECT_GE(n, page_size / 32) << "page size " << page_size;
    EXPECT_TRUE(df.CheckPage(p).ok());
  }
}

TEST(DataFileTest, InsertReadRemove) {
  DataFile df(codec::kV2MinPageSize);
  auto page = df.PageWithFreeSlots(1);
  ASSERT_TRUE(page.ok());
  const PageId p = page.ValueOrDie();
  EXPECT_EQ(df.FreeBytes(p), codec::kV2MinPageSize);

  const SpatialTuple t1{/*term=*/5, /*doc=*/10, {1.5, 2.5}, 0.7f};
  const SpatialTuple t2{/*term=*/5, /*doc=*/11, {3.0, 4.0}, 0.3f};
  ASSERT_TRUE(df.Insert(p, /*source=*/1, t1).ok());
  const uint32_t one_cell = df.FreeBytes(p);
  ASSERT_TRUE(df.Insert(p, /*source=*/2, t2).ok());
  EXPECT_LT(df.FreeBytes(p), one_cell);
  EXPECT_TRUE(df.CheckPage(p).ok());

  auto read = df.Read(p);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.ValueOrDie().slots.size(), 2u);
  EXPECT_EQ(read.ValueOrDie().slots[0].source, 1u);
  EXPECT_EQ(read.ValueOrDie().slots[0].tuple, t1);
  EXPECT_EQ(read.ValueOrDie().slots[1].source, 2u);
  EXPECT_EQ(read.ValueOrDie().slots[1].tuple, t2);

  auto removed = df.Remove(p, 1, 10);
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(removed.ValueOrDie());
  auto removed_again = df.Remove(p, 1, 10);
  ASSERT_TRUE(removed_again.ok());
  EXPECT_FALSE(removed_again.ValueOrDie());
  // The page now holds t2's group alone: what t1's group alone took.
  EXPECT_EQ(df.FreeBytes(p), one_cell);
  EXPECT_TRUE(df.CheckPage(p).ok());
  read = df.Read(p);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.ValueOrDie().slots.size(), 1u);
  EXPECT_EQ(read.ValueOrDie().slots[0].tuple, t2);
}

TEST(DataFileTest, FullPageRejectsInsert) {
  DataFile df(codec::kV2MinPageSize);
  auto page = df.PageWithFreeSlots(1);
  ASSERT_TRUE(page.ok());
  const PageId p = page.ValueOrDie();
  Rng rng(3);
  Status st;
  DocId doc = 0;
  for (; st.ok(); ++doc) st = df.Insert(p, 1, RandomTuple(&rng, 1, doc));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // The refused insert wrote nothing.
  auto read = df.Read(p);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.ValueOrDie().slots.size(), doc - 1);
  EXPECT_TRUE(df.CheckPage(p).ok());
  // A fresh request gets a different page.
  auto other = df.PageWithFreeSlots(1);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other.ValueOrDie(), p);
}

TEST(DataFileTest, FullPageMovesCell) {
  DataFile df(codec::kV2MinPageSize);
  const PageId p = df.PageWithFreeSlots(1).ValueOrDie();
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(df.Insert(p, 7, {1, i, {double(i), 0.0}, 0.5f}).ok());
  }
  // Fill the rest of the page with cell 8.
  Rng rng(8);
  Status st;
  uint32_t cell8 = 0;
  for (; st.ok(); ++cell8) st = df.Insert(p, 8, RandomTuple(&rng, 2, cell8));
  ASSERT_EQ(st.code(), StatusCode::kResourceExhausted);
  --cell8;
  // The grown cell no longer fits its page (a distant row widens every
  // column): it moves, with the new tuple.
  PageId cell_page = p;
  const SpatialTuple extra{1, 1 << 20, {95.0, 95.0}, 0.75f};
  auto added = df.AddToCell(&cell_page, 7, extra, nullptr);
  ASSERT_TRUE(added.ok()) << added.status().message();
  EXPECT_EQ(added.ValueOrDie(), DataFile::CellAdd::kMoved);
  ASSERT_NE(cell_page, p);
  EXPECT_TRUE(df.CheckPage(p).ok());
  EXPECT_TRUE(df.CheckPage(cell_page).ok());

  auto old_page = df.Read(p);
  ASSERT_TRUE(old_page.ok());
  EXPECT_TRUE(OfSource(old_page.ValueOrDie(), 7).empty());
  EXPECT_EQ(OfSource(old_page.ValueOrDie(), 8).size(), cell8);
  auto new_page = df.Read(cell_page);
  ASSERT_TRUE(new_page.ok());
  const std::vector<SpatialTuple> moved = OfSource(new_page.ValueOrDie(), 7);
  ASSERT_EQ(moved.size(), 6u);
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(moved[i].doc, i);
  EXPECT_EQ(moved[5], extra);
}

TEST(DataFileTest, RoundTripPreservesTupleBytes) {
  DataFile df(codec::kV2MinPageSize);
  const PageId p = df.PageWithFreeSlots(1).ValueOrDie();
  const SpatialTuple t{123456, 987654, {-73.98765, 40.12345}, 0.8125f};
  ASSERT_TRUE(df.Insert(p, 42, t).ok());
  auto read = df.Read(p);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.ValueOrDie().slots.size(), 1u);
  EXPECT_EQ(read.ValueOrDie().slots[0].source, 42u);
  EXPECT_EQ(read.ValueOrDie().slots[0].tuple, t);
}

// The cell-level writes (Insert, Remove, AddToCell) must leave exactly the
// pages, free-space entries and placement of the whole-page cycle they
// replaced -- Read, edit the TuplePage, check Fits, Write -- at the
// smallest and the default page size. A reference file runs that cycle for
// the same seeded operations and every page is compared byte for byte
// after each.
class DataFileCellOpsTest : public ::testing::TestWithParam<size_t> {};

/// The whole-page relocation branch of Algorithms 2-3: move the cell plus
/// `t` to a page with room for its exact encoding, asked for before the
/// source page is rewritten.
Result<PageId> WholePageMove(DataFile* ref, PageId p, TuplePage page,
                             SourceId source, const SpatialTuple& t) {
  std::vector<StoredTuple> kept, moved;
  for (const StoredTuple& st : page.slots) {
    (st.source == source ? moved : kept).push_back(st);
  }
  moved.push_back({source, t});
  auto target_res = ref->PageWithRoomForGroup(moved);
  if (!target_res.ok()) return target_res.status();
  PageId target = target_res.ValueOrDie();
  if (target == p) target = ref->AllocatePage().ValueOrDie();
  page.slots = std::move(kept);
  I3_RETURN_NOT_OK(ref->Write(p, page));
  auto timg = ref->Read(target);
  if (!timg.ok()) return timg.status();
  TuplePage target_page = timg.MoveValue();
  for (const StoredTuple& st : moved) target_page.slots.push_back(st);
  I3_RETURN_NOT_OK(ref->Write(target, target_page));
  return target;
}

TEST_P(DataFileCellOpsTest, MatchWholePageRewrites) {
  const size_t page_size = GetParam();
  DataFile df(page_size);
  DataFile ref(page_size);

  Rng rng(page_size);
  struct Cell {
    PageId page;
    double cx, cy;
    std::vector<DocId> docs;
    bool full = false;  // reached the split threshold
  };
  std::map<SourceId, Cell> cells;
  SourceId next_source = 1;
  DocId next_doc = 1;
  auto tuple_of = [&](SourceId source, const Cell& c) {
    SpatialTuple t;
    t.term = source + 1000;
    t.doc = next_doc++ * 7 % 100003;  // distinct: 7 is invertible mod p
    t.location = {c.cx + rng.UniformDouble(-0.01, 0.01),
                  c.cy + rng.UniformDouble(-0.01, 0.01)};
    if (rng.Chance(0.1)) {  // an outlier widens the cell's residuals
      t.location = {rng.UniformDouble(0.0, 100.0),
                    rng.UniformDouble(0.0, 100.0)};
    }
    t.weight = 0.5f;
    if (rng.Chance(0.5)) {
      t.weight = static_cast<float>(rng.UniformDouble(0.05, 1.0));
    }
    return t;
  };

  int moves = 0, splits = 0, removes = 0;
  for (int step = 0; step < 1500; ++step) {
    const double pick = rng.UniformDouble(0.0, 1.0);
    std::vector<SourceId> open;
    for (const auto& [source, c] : cells) {
      if (!c.full) open.push_back(source);
    }
    if (cells.empty() || pick < 0.1) {
      // A new cell on a page with room for one.
      auto p = df.PageWithFreeSlots(1);
      auto rp = ref.PageWithFreeSlots(1);
      ASSERT_TRUE(p.ok() && rp.ok());
      ASSERT_EQ(p.ValueOrDie(), rp.ValueOrDie()) << "step " << step;
      const SourceId source = next_source++;
      Cell c{p.ValueOrDie(), rng.UniformDouble(0.0, 100.0),
             rng.UniformDouble(0.0, 100.0), {}};
      const SpatialTuple t = tuple_of(source, c);
      const Status st = df.Insert(c.page, source, t);
      auto page = ref.Read(c.page);
      ASSERT_TRUE(page.ok());
      page.ValueOrDie().slots.push_back({source, t});
      Status want = Status::ResourceExhausted("full");
      if (ref.Fits(page.ValueOrDie())) {
        want = ref.Write(c.page, page.ValueOrDie());
      }
      ASSERT_EQ(st.code(), want.code()) << "step " << step;
      if (st.ok()) {
        c.docs.push_back(t.doc);
        cells[source] = c;
      }
    } else if (pick < 0.75 && !open.empty()) {
      // Algorithms 2-3 on an existing cell; half the appends go to the
      // oldest open cell, so cells also grow to the split threshold.
      SourceId source = open.front();
      if (rng.Chance(0.5)) source = open[rng.UniformInt(0, open.size() - 1)];
      Cell& c = cells[source];
      const SpatialTuple t = tuple_of(source, c);
      auto page = ref.Read(c.page);
      ASSERT_TRUE(page.ok());
      std::vector<SpatialTuple> grown = OfSource(page.ValueOrDie(), source);
      grown.push_back(t);
      DataFile::CellAdd want;
      PageId want_page = c.page;
      if (ref.CellOversized(grown)) {
        want = DataFile::CellAdd::kMustSplit;
      } else {
        TuplePage img = page.ValueOrDie();
        img.slots.push_back({source, t});
        if (ref.Fits(img)) {
          ASSERT_TRUE(ref.Write(c.page, img).ok());
          want = DataFile::CellAdd::kAdded;
        } else {
          auto target = WholePageMove(&ref, c.page, page.ValueOrDie(),
                                      source, t);
          ASSERT_TRUE(target.ok()) << target.status().message();
          want_page = target.ValueOrDie();
          want = DataFile::CellAdd::kMoved;
        }
      }
      TuplePage split_image;
      auto got = df.AddToCell(&c.page, source, t, &split_image);
      ASSERT_TRUE(got.ok()) << got.status().message();
      ASSERT_EQ(got.ValueOrDie(), want) << "step " << step;
      ASSERT_EQ(c.page, want_page) << "step " << step;
      if (want == DataFile::CellAdd::kMustSplit) {
        // The split image is the whole page, from the same view.
        ASSERT_EQ(split_image.slots.size(), page.ValueOrDie().slots.size());
        for (size_t i = 0; i < split_image.slots.size(); ++i) {
          EXPECT_EQ(split_image.slots[i].source,
                    page.ValueOrDie().slots[i].source);
          EXPECT_EQ(split_image.slots[i].tuple,
                    page.ValueOrDie().slots[i].tuple);
        }
        c.full = true;
        ++splits;
      } else {
        c.docs.push_back(t.doc);
        moves += want == DataFile::CellAdd::kMoved;
      }
    } else {
      // Delete one tuple (sometimes one the cell does not hold).
      auto it = cells.begin();
      std::advance(it, rng.UniformInt(0, cells.size() - 1));
      const SourceId source = it->first;
      Cell& c = it->second;
      const bool absent = rng.Chance(0.1);
      const size_t idx = rng.UniformInt(0, c.docs.size() - 1);
      const DocId doc = absent ? 999999 : c.docs[idx];
      uint32_t remaining = 0;
      auto got = df.Remove(c.page, source, doc, &remaining);
      ASSERT_TRUE(got.ok());
      auto page = ref.Read(c.page);
      ASSERT_TRUE(page.ok());
      auto& slots = page.ValueOrDie().slots;
      auto hit = std::find_if(slots.begin(), slots.end(),
                              [&](const StoredTuple& st) {
                                return st.source == source &&
                                       st.tuple.doc == doc;
                              });
      ASSERT_EQ(got.ValueOrDie(), hit != slots.end()) << "step " << step;
      if (hit == slots.end()) continue;
      slots.erase(hit);
      ASSERT_TRUE(ref.Write(c.page, page.ValueOrDie()).ok());
      EXPECT_EQ(remaining, OfSource(page.ValueOrDie(), source).size());
      c.docs.erase(c.docs.begin() + idx);
      c.full = false;
      ++removes;
      if (c.docs.empty()) cells.erase(it);
    }

    ASSERT_EQ(df.PageCount(), ref.PageCount()) << "step " << step;
    for (PageId p = 0; p < df.PageCount(); ++p) {
      auto got = df.ReadPageBytes(p);
      auto want = ref.ReadPageBytes(p);
      ASSERT_TRUE(got.ok() && want.ok());
      ASSERT_EQ(got.ValueOrDie(), want.ValueOrDie())
          << "page " << p << " after step " << step;
      ASSERT_EQ(df.FreeBytes(p), ref.FreeBytes(p)) << "page " << p;
    }
  }
  for (PageId p = 0; p < df.PageCount(); ++p) {
    EXPECT_TRUE(df.CheckPage(p).ok()) << df.CheckPage(p).message();
  }
  // Every branch ran.
  EXPECT_GT(moves, 0);
  EXPECT_GT(splits, 0);
  EXPECT_GT(removes, 0);
}

// Each cell-level write charges what the whole-page cycle charged: one
// read of the page, and one write when it changes. The relocation branch
// reads and writes both pages.
TEST_P(DataFileCellOpsTest, UncachedChargesPerOperation) {
  const size_t page_size = GetParam();
  BufferPoolOptions uncached;
  uncached.capacity_pages = 0;
  DataFile df(page_size, uncached);
  using Charge = std::pair<uint64_t, uint64_t>;  // data-file reads, writes
  Charge last{0, 0};
  // What was charged since the previous call.
  auto charged = [&]() {
    const Charge now{df.io_stats().reads(IoCategory::kI3DataFile),
                     df.io_stats().writes(IoCategory::kI3DataFile)};
    const Charge delta{now.first - last.first, now.second - last.second};
    last = now;
    return delta;
  };

  PageId p = df.PageWithFreeSlots(1).ValueOrDie();
  charged();
  ASSERT_TRUE(df.Insert(p, 1, {1, 10, {1.0, 1.0}, 0.5f}).ok());
  EXPECT_EQ(charged(), Charge(1, 1)) << "new cell";
  PageId cell_page = p;
  auto added = df.AddToCell(&cell_page, 1, {1, 11, {1.0, 1.0}, 0.5f},
                            nullptr);
  ASSERT_TRUE(added.ok());
  ASSERT_EQ(added.ValueOrDie(), DataFile::CellAdd::kAdded);
  EXPECT_EQ(charged(), Charge(1, 1)) << "append into an existing cell";
  auto removed = df.Remove(p, 1, 11);
  ASSERT_TRUE(removed.ok() && removed.ValueOrDie());
  EXPECT_EQ(charged(), Charge(1, 1)) << "delete";
  removed = df.Remove(p, 1, 12345);
  ASSERT_TRUE(removed.ok() && !removed.ValueOrDie());
  EXPECT_EQ(charged(), Charge(1, 0)) << "delete of an absent tuple";

  // Fill the page with another cell until an append is refused.
  Rng rng(5);
  Status st;
  for (DocId d = 100; st.ok(); ++d) {
    st = df.Insert(p, 2, {2, d * 131, {rng.UniformDouble(0.0, 90.0),
                                       rng.UniformDouble(0.0, 90.0)},
                          static_cast<float>(rng.UniformDouble(0.1, 1.0))});
    if (st.ok()) charged();
  }
  ASSERT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(charged(), Charge(1, 0)) << "refused insert";
  // Cell 1 grows by a distant tuple with a distant doc id and weight: too
  // big for what is left, so it moves.
  added = df.AddToCell(&cell_page, 1, {1, 1 << 20, {95.0, 95.0}, 0.75f},
                       nullptr);
  ASSERT_TRUE(added.ok());
  ASSERT_EQ(added.ValueOrDie(), DataFile::CellAdd::kMoved);
  EXPECT_NE(cell_page, p);
  EXPECT_EQ(charged(), Charge(2, 2)) << "relocation";
}

/// In-memory page file that logs every page read ('R', id) and write
/// ('W', id) in order.
class LoggingPageFile : public PageFile {
 public:
  explicit LoggingPageFile(size_t page_size)
      : PageFile(page_size), base_(page_size) {}

  PageId PageCount() const override { return base_.PageCount(); }
  Result<PageId> AllocatePage() override { return base_.AllocatePage(); }
  Status ReadPage(PageId id, void* buf, IoCategory category) override {
    log.emplace_back('R', id);
    return base_.ReadPage(id, buf, category);
  }
  Status WritePage(PageId id, const void* buf,
                   IoCategory category) override {
    log.emplace_back('W', id);
    return base_.WritePage(id, buf, category);
  }

  std::vector<std::pair<char, PageId>> log;

 private:
  InMemoryPageFile base_;
};

// The relocation order: the target is chosen while the source page's
// free-space entry still shows the cell on it, then the source page is
// rewritten, then the target. Page 0 holds the growing cell and a filler
// cell; page 1 holds one tuple. Once the growing cell leaves page 0, page
// 0 is the fuller page, so a best-fit search would try it first -- and
// pass over it: the cell relocates because its growth exceeds page 0's
// free bytes, and leaving frees exactly its old bytes, so page 0 can never
// take it, whichever comes first. The cell must land on page 1, the only
// page with room before the move, with no page allocated, and page 0 must
// be read and written before page 1.
TEST_P(DataFileCellOpsTest, RelocationLandsOnThePageChosenBeforeTheMove) {
  const size_t page_size = GetParam();
  BufferPoolOptions uncached;
  uncached.capacity_pages = 0;  // every view is a logged device read
  auto file = std::make_unique<LoggingPageFile>(page_size);
  LoggingPageFile* logged = file.get();
  DataFile df(std::move(file), uncached);

  const PageId p = df.AllocatePage().ValueOrDie();
  const PageId q = df.AllocatePage().ValueOrDie();
  // Rows of the growing cell keep the plan its first two rows set, so it
  // grows in its encoded form and relocates as bytes.
  auto grow_row = [](DocId i) {
    return SpatialTuple{1, 1000 + i, {i % 2 ? -1.0 : 1.0, i % 2 ? 1.0 : -1.0},
                        i % 2 ? 0.75f : 0.25f};
  };
  ASSERT_TRUE(df.Insert(p, 1, grow_row(0)).ok());
  ASSERT_TRUE(df.Insert(p, 1, grow_row(60001)).ok());
  const obs::Counter* in_place = obs::MetricsRegistry::Global().GetCounter(
      "i3_cell_appends_in_place_total", "");
  Rng rng(11);
  Status st;
  for (DocId d = 0; st.ok(); ++d) {  // fill page 0 with the filler cell
    st = df.Insert(p, 2, {2, d * 131, {rng.UniformDouble(0.0, 90.0),
                                       rng.UniformDouble(0.0, 90.0)},
                          static_cast<float>(rng.UniformDouble(0.1, 1.0))});
  }
  ASSERT_EQ(st.code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(df.Insert(q, 3, {3, 5, {50.0, 50.0}, 0.5f}).ok());

  PageId cell_page = p;
  for (DocId i = 1; cell_page == p; ++i) {
    ASSERT_LT(i, 1000u) << "the cell never relocated";
    logged->log.clear();
    const uint64_t in_place_before = in_place->Value();
    auto added = df.AddToCell(&cell_page, 1, grow_row(i), nullptr);
    ASSERT_TRUE(added.ok()) << added.status().message();
    ASSERT_NE(added.ValueOrDie(), DataFile::CellAdd::kMustSplit);
    // Every append, the relocating one too, skipped the decode.
    EXPECT_EQ(in_place->Value() - in_place_before, 1u);
    if (added.ValueOrDie() == DataFile::CellAdd::kAdded) {
      ASSERT_EQ(cell_page, p);
      continue;
    }
    EXPECT_EQ(cell_page, q);
    EXPECT_EQ(df.PageCount(), 2u) << "the move allocated a page";
    const std::vector<std::pair<char, PageId>> want = {
        {'R', p}, {'W', p}, {'R', q}, {'W', q}};
    EXPECT_EQ(logged->log, want);
  }
  EXPECT_TRUE(df.CheckPage(p).ok());
  EXPECT_TRUE(df.CheckPage(q).ok());
}

// The instantiation keeps the name its cases have been tracked under; both
// sizes are v2 pages, the only format.
INSTANTIATE_TEST_SUITE_P(V1AndV2, DataFileCellOpsTest,
                         ::testing::Values(codec::kV2MinPageSize,
                                           size_t{kDefaultPageSize}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "V2Page" + std::to_string(info.param);
                         });

TEST(HeadFileTest, AllocateAndUpdate) {
  HeadFile head(64);
  const NodeId n = head.Allocate();
  EXPECT_EQ(head.NodeCount(), 1u);
  SummaryNode* node = head.Mutate(n);
  node->self.Add(5, 0.5f);
  node->child_summary[2].Add(5, 0.5f);
  node->child[2] = ChildRef::ToPage(3, 9);

  const SummaryNode& r = head.Read(n);
  EXPECT_TRUE(r.self.sig.MayContain(5));
  EXPECT_FLOAT_EQ(r.self.max_s, 0.5f);
  EXPECT_EQ(r.child[2].kind, ChildRef::Kind::kPage);
  EXPECT_EQ(r.child[2].page, 3u);
  EXPECT_EQ(r.child[2].source, 9u);
  EXPECT_GT(head.io_stats().reads(IoCategory::kI3HeadFile), 0u);
}

TEST(HeadFileTest, RebuildSelfMergesChildren) {
  HeadFile head(64);
  const NodeId n = head.Allocate();
  SummaryNode* node = head.Mutate(n);
  node->child_summary[0].Add(1, 0.3f);
  node->child_summary[3].Add(2, 0.9f);
  node->RebuildSelf();
  EXPECT_TRUE(node->self.sig.MayContain(1));
  EXPECT_TRUE(node->self.sig.MayContain(2));
  EXPECT_FLOAT_EQ(node->self.max_s, 0.9f);
}

TEST(HeadFileTest, NodeBytesScaleWithEta) {
  HeadFile small(64), large(512);
  EXPECT_LT(small.NodeBytes(), large.NodeBytes());
  // 5 entries of (sig + float) plus 4 child pointers.
  EXPECT_EQ(small.NodeBytes(), 5 * (8 + 4) + 4 * 9u);
  small.Allocate();
  small.Allocate();
  EXPECT_EQ(small.SizeBytes(), 2 * small.NodeBytes());
}

}  // namespace
}  // namespace i3
