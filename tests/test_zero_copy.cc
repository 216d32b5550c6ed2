// Differential and concurrency tests of the zero-copy page read path:
// DataFile::View / PageView must decode exactly what the legacy TuplePage
// materialization decodes, on every pool configuration, and the pinned-frame
// window must stay valid while other readers churn the LRU (run under
// ASan/TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "i3/data_file.h"

namespace i3 {
namespace {

constexpr size_t kPageSize = codec::kV2MinPageSize;

// A deterministic random page image: up to `max_tuples` tuples of several
// interleaved keyword cells (one term each), trimmed until it encodes into
// one page of `df`.
TuplePage RandomPage(Rng* rng, const DataFile& df, uint32_t max_tuples,
                     uint32_t n_sources) {
  TuplePage page;
  const uint32_t n = static_cast<uint32_t>(
      rng->UniformInt(0, static_cast<int64_t>(max_tuples)));
  for (uint32_t s = 0; s < n; ++s) {
    StoredTuple st;
    st.source = static_cast<SourceId>(rng->UniformInt(1, n_sources));
    st.tuple.term = st.source * 1000;
    st.tuple.doc = static_cast<DocId>(rng->UniformInt(0, 1 << 30));
    st.tuple.location.x = rng->UniformDouble(-180.0, 180.0);
    st.tuple.location.y = rng->UniformDouble(-90.0, 90.0);
    st.tuple.weight = static_cast<float>(rng->UniformDouble(0.0, 1.0));
    page.slots.push_back(st);
  }
  while (!df.Fits(page)) page.slots.pop_back();
  return page;
}

/// `img`'s tuples in the order a page stores them: grouped by keyword
/// cell in first-appearance order, insertion order within a group.
std::vector<StoredTuple> Grouped(const TuplePage& img) {
  std::vector<SourceId> order;
  for (const StoredTuple& st : img.slots) {
    if (std::find(order.begin(), order.end(), st.source) == order.end()) {
      order.push_back(st.source);
    }
  }
  std::vector<StoredTuple> out;
  for (SourceId src : order) {
    for (const StoredTuple& st : img.slots) {
      if (st.source == src) out.push_back(st);
    }
  }
  return out;
}

void ExpectSameTuple(const SpatialTuple& a, const SpatialTuple& b) {
  EXPECT_EQ(a.term, b.term);
  EXPECT_EQ(a.doc, b.doc);
  EXPECT_EQ(a.location.x, b.location.x);
  EXPECT_EQ(a.location.y, b.location.y);
  EXPECT_EQ(a.weight, b.weight);
}

/// Columnar copy of the cell `source` out of `view`.
std::vector<SpatialTuple> CopyCell(const PageView& view, SourceId source) {
  std::vector<DocId> docs;
  std::vector<float> weights;
  std::vector<double> xs, ys;
  auto cols = view.CopySource(source, [&](uint32_t n) {
    docs.resize(n);
    weights.resize(n);
    xs.resize(n);
    ys.resize(n);
    return CellRows{docs.data(), weights.data(), xs.data(), ys.data()};
  });
  EXPECT_TRUE(cols.ok()) << cols.status().message();
  std::vector<SpatialTuple> out;
  if (!cols.ok()) return out;
  for (uint32_t i = 0; i < cols.ValueOrDie().n; ++i) {
    out.push_back(cols.ValueOrDie().Tuple(i));
  }
  return out;
}

// View must agree with the legacy decode on random pages, for both a
// pinning pool and the uncached (capacity-0) pool.
void RunDifferential(BufferPoolOptions pool) {
  DataFile df(kPageSize, pool);
  Rng rng(20260805);
  constexpr uint32_t kPages = 64;
  constexpr uint32_t kSources = 5;

  std::vector<TuplePage> images;
  for (uint32_t p = 0; p < kPages; ++p) {
    auto id = df.AllocatePage();
    ASSERT_TRUE(id.ok());
    images.push_back(RandomPage(&rng, df, 24, kSources));
    ASSERT_TRUE(df.Write(id.ValueOrDie(), images.back()).ok());
  }

  for (uint32_t round = 0; round < 4; ++round) {
    for (uint32_t p = 0; p < kPages; ++p) {
      auto view_res = df.View(p);
      ASSERT_TRUE(view_res.ok());
      const PageView& view = view_res.ValueOrDie();
      const std::vector<StoredTuple> legacy = Grouped(images[p]);

      for (SourceId src = 1; src <= kSources; ++src) {
        std::vector<SpatialTuple> want;
        for (const StoredTuple& st : legacy) {
          if (st.source == src) want.push_back(st.tuple);
        }
        const std::vector<SpatialTuple> got = CopyCell(view, src);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          ExpectSameTuple(got[i], want[i]);
        }
      }

      uint32_t visited = 0;
      auto visit = [&](SourceId src, const SpatialTuple& t) {
        ASSERT_LT(visited, legacy.size());
        EXPECT_EQ(src, legacy[visited].source);
        ExpectSameTuple(t, legacy[visited].tuple);
        ++visited;
      };
      ASSERT_TRUE(view.VisitSlots(visit).ok());
      EXPECT_EQ(visited, legacy.size());
    }
    // Cold-cache the pool between rounds so both hit and miss paths of
    // PinPage are exercised.
    df.ClearCache();
  }
}

TEST(ZeroCopyDifferentialTest, PinnedPoolMatchesLegacyDecode) {
  BufferPoolOptions pool;
  pool.capacity_pages = 8;  // far fewer frames than pages: eviction churn
  RunDifferential(pool);
}

TEST(ZeroCopyDifferentialTest, LargePoolMatchesLegacyDecode) {
  BufferPoolOptions pool;
  pool.capacity_pages = 1024;  // everything stays cached after round one
  RunDifferential(pool);
}

TEST(ZeroCopyDifferentialTest, UncachedPoolMatchesLegacyDecode) {
  RunDifferential(BufferPoolOptions{});  // capacity 0: scratch-backed views
}

TEST(ZeroCopyDifferentialTest, NestedViewsAreIndependent) {
  // A caller may hold one view while opening another (the invariant checker
  // and overflow chains do); both must decode their own page.
  DataFile df(kPageSize, BufferPoolOptions{});  // scratch stack, depth 2
  Rng rng(7);
  const TuplePage a = RandomPage(&rng, df, 16, 3);
  const TuplePage b = RandomPage(&rng, df, 16, 3);
  ASSERT_TRUE(df.AllocatePage().ok());
  ASSERT_TRUE(df.AllocatePage().ok());
  ASSERT_TRUE(df.Write(0, a).ok());
  ASSERT_TRUE(df.Write(1, b).ok());

  // Visits every tuple of `view` against `img`'s stored order.
  auto expect_page = [](const PageView& view, const TuplePage& img) {
    const std::vector<StoredTuple> want = Grouped(img);
    uint32_t n = 0;
    auto visit = [&](SourceId, const SpatialTuple& t) {
      ASSERT_LT(n, want.size());
      ExpectSameTuple(t, want[n].tuple);
      ++n;
    };
    ASSERT_TRUE(view.VisitSlots(visit).ok());
    EXPECT_EQ(n, want.size());
  };
  auto va = df.View(0);
  ASSERT_TRUE(va.ok());
  {
    auto vb = df.View(1);  // nested: destroyed before va (LIFO)
    ASSERT_TRUE(vb.ok());
    expect_page(vb.ValueOrDie(), b);
  }
  expect_page(va.ValueOrDie(), a);
}

// Concurrent readers over a pool much smaller than the page set: every view
// pins its frame while other threads force misses, evictions, and frame
// recycling. Each page's content encodes its id, so any use-after-recycle
// shows up as a value mismatch (and as a race under TSan).
TEST(ZeroCopyConcurrencyTest, PinnedWindowSurvivesEvictionChurn) {
  BufferPoolOptions pool;
  pool.capacity_pages = 4;
  DataFile df(kPageSize, pool);
  constexpr uint32_t kPages = 32;
  constexpr uint32_t kRows = 16;

  for (uint32_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(df.AllocatePage().ok());
    TuplePage page;
    for (uint32_t s = 0; s < kRows; ++s) {
      StoredTuple st;
      st.source = p + 1;
      st.tuple.term = p;
      st.tuple.doc = p * 1000 + s;
      st.tuple.location = {static_cast<double>(p), static_cast<double>(s)};
      st.tuple.weight = static_cast<float>(s);
      page.slots.push_back(st);
    }
    ASSERT_TRUE(df.Write(p, page).ok());
  }

  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 2000;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kReadsPerThread; ++i) {
        const PageId p = static_cast<PageId>(
            rng.UniformInt(0, static_cast<int64_t>(kPages) - 1));
        auto view_res = df.View(p);
        if (!view_res.ok()) {
          ++failures;
          return;
        }
        const PageView& view = view_res.ValueOrDie();
        uint32_t n = 0;
        uint64_t doc_sum = 0;
        auto visit = [&](SourceId src, const SpatialTuple& t) {
          doc_sum += t.doc;
          if (src != p + 1 || t.term != p) ++failures;
          ++n;
        };
        if (!view.VisitSlots(visit).ok() || n != kRows) ++failures;
        const uint64_t expect = uint64_t{kRows} * (p * 1000) +
                                uint64_t{kRows} * (kRows - 1) / 2;
        if (doc_sum != expect) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace i3
